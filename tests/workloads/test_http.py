import pytest

from repro.guest.kernel import GuestKernel
from repro.guest.socket import VirtualNetwork
from repro.perf.clock import SimClock
from repro.workloads.http import (
    HTTP_BAD_REQUEST,
    HTTP_NOT_FOUND,
    HTTP_OK,
    HttpClient,
    HttpError,
    StaticHttpServer,
    build_response,
    parse_request,
    parse_response,
)


class TestParsing:
    def test_request_roundtrip(self):
        raw = b"GET /index.html HTTP/1.1\r\nHost: example\r\n\r\n"
        request = parse_request(raw)
        assert request.method == "GET"
        assert request.path == "/index.html"
        assert request.headers["host"] == "example"

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            parse_request(b"NONSENSE\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(HttpError):
            parse_request(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")

    def test_response_roundtrip(self):
        raw = build_response(HTTP_OK, b"body bytes")
        status, body = parse_response(raw)
        assert status == HTTP_OK
        assert body == b"body bytes"

    def test_response_carries_length(self):
        raw = build_response(HTTP_OK, b"12345")
        assert b"Content-Length: 5" in raw


def make_stack():
    clock = SimClock()
    network = VirtualNetwork(clock=clock)
    server_kernel = GuestKernel(clock=clock)
    server = StaticHttpServer(server_kernel, network)
    client_kernel = GuestKernel(clock=clock)
    client = HttpClient(client_kernel, network, server.handle_one)
    return clock, server, client


class TestEndToEnd:
    def test_serves_published_page(self):
        _, server, client = make_stack()
        server.publish("/index.html", b"<h1>hello</h1>")
        status, body = client.get(("10.0.0.1", 80), "/index.html")
        assert status == HTTP_OK
        assert body == b"<h1>hello</h1>"
        assert server.stats.requests == 1
        assert server.stats.bytes_served == len(body)

    def test_missing_page_404(self):
        _, server, client = make_stack()
        status, _ = client.get(("10.0.0.1", 80), "/nope.html")
        assert status == HTTP_NOT_FOUND
        assert server.stats.errors == 1

    def test_large_page_served_in_chunks(self):
        _, server, client = make_stack()
        payload = bytes(range(256)) * 64  # 16 KiB, crosses read chunks
        server.publish("/big", payload)
        status, body = client.get(("10.0.0.1", 80), "/big")
        assert status == HTTP_OK
        assert body == payload

    def test_many_requests_charge_simulated_time(self):
        clock, server, client = make_stack()
        server.publish("/p", b"x" * 1000)
        before = clock.now_ns
        for _ in range(10):
            status, _ = client.get(("10.0.0.1", 80), "/p")
            assert status == HTTP_OK
        assert clock.now_ns > before
        assert server.stats.requests == 10

    def test_keep_alive_reuses_one_connection(self):
        _, server, client = make_stack()
        server.publish("/p", b"page")
        for _ in range(10):
            status, _ = client.get(("10.0.0.1", 80), "/p")
            assert status == HTTP_OK
        # HTTP/1.1 keep-alive: ten requests ride one handshake.
        assert client.sockets.network.connections == 1
        assert len(server._open) == 1

    def test_connection_close_honored(self):
        _, server, client = make_stack()
        server.publish("/p", b"page")
        pid = client.proc.pid
        fd = client.sockets.socket(pid)
        client.sockets.connect(pid, fd, ("10.0.0.1", 80))
        client.sockets.send(
            pid,
            fd,
            b"GET /p HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        server.handle_one()
        status, body = parse_response(client.sockets.recv(pid, fd, 65536))
        assert status == HTTP_OK
        assert body == b"page"
        assert server._open == []  # server closed after responding

    def test_client_reconnects_after_server_close(self):
        _, server, client = make_stack()
        server.publish("/p", b"page")
        # A bad request makes the server close the pooled connection...
        client.get(("10.0.0.1", 80), "/nope")  # 404 keeps it open
        assert client.get(("10.0.0.1", 80), "/p")[0] == HTTP_OK
        # ...force one: POST by hand on the pooled fd is not possible via
        # get(), so close server-side directly and watch get() recover.
        server_fd = server._open[0]
        server.sockets.close(server.worker.pid, server_fd)
        server._open.clear()
        status, body = client.get(("10.0.0.1", 80), "/p")
        assert status == HTTP_OK
        assert body == b"page"
        assert client.sockets.network.connections == 2

    def test_client_close_reaps_server_side(self):
        _, server, client = make_stack()
        server.publish("/p", b"page")
        client.get(("10.0.0.1", 80), "/p")
        assert len(server._open) == 1
        fd, _sock = client._conns[("10.0.0.1", 80)]
        client.sockets.close(client.proc.pid, fd)
        assert server.handle_one() is True  # reaps the dead peer
        assert server._open == []
        assert server.handle_one() is False  # now truly idle

    def test_republish_invalidates_response_cache(self):
        _, server, client = make_stack()
        server.publish("/p", b"old")
        assert client.get(("10.0.0.1", 80), "/p")[1] == b"old"
        server.publish("/p", b"new!")
        assert client.get(("10.0.0.1", 80), "/p")[1] == b"new!"

    def test_non_get_rejected(self):
        _, server, client = make_stack()
        # Issue a POST by hand through the client's socket layer.
        pid = client.proc.pid
        fd = client.sockets.socket(pid)
        client.sockets.connect(pid, fd, ("10.0.0.1", 80))
        client.sockets.send(
            pid, fd, b"POST /x HTTP/1.1\r\n\r\n"
        )
        server.handle_one()
        status, _ = parse_response(client.sockets.recv(pid, fd, 65536))
        assert status == HTTP_BAD_REQUEST
