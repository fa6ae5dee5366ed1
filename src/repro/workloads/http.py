"""Functional HTTP layer: a static server and a wrk-like client.

Not a cost model — actual request parsing and file serving over the
functional socket fabric (:mod:`repro.guest.socket`), with bytes read out
of the serving kernel's RamFS.  Used by the end-to-end scenarios and the
full-stack example; the priced models in :mod:`repro.workloads.base`
remain the source of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.guest.kernel import GuestKernel
from repro.guest.socket import (
    SocketError,
    SocketLayer,
    SocketState,
    VirtualNetwork,
)
from repro.guest.vfs import VfsError

HTTP_OK = 200
HTTP_NOT_FOUND = 404
HTTP_BAD_REQUEST = 400

_REASONS = {200: "OK", 404: "Not Found", 400: "Bad Request"}


class HttpError(ValueError):
    pass


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)


def parse_request(raw: bytes) -> HttpRequest:
    """Parse a request head (``METHOD /path HTTP/1.1`` + headers)."""
    try:
        text = raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin1 total
        raise HttpError("undecodable request") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            break
        if ":" not in line:
            raise HttpError(f"malformed header {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    return HttpRequest(method.upper(), path, headers)


def build_response(status: int, body: bytes,
                   content_type: str = "text/html") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Server: repro-nginx\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def parse_response(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split(b" ")
    if len(status_line) < 2:
        raise HttpError("malformed response")
    return int(status_line[1]), body


@dataclass
class ServerStats:
    requests: int = 0
    errors: int = 0
    bytes_served: int = 0


class StaticHttpServer:
    """Serves files from its kernel's RamFS — a functional NGINX."""

    def __init__(
        self,
        kernel: GuestKernel,
        network: VirtualNetwork,
        address: tuple[str, int] = ("10.0.0.1", 80),
        docroot: str = "/srv",
    ) -> None:
        self.kernel = kernel
        self.sockets = SocketLayer(kernel, network)
        self.docroot = docroot.rstrip("/")
        self.stats = ServerStats()
        self.worker = kernel.spawn("nginx-worker")
        self.listen_fd = self.sockets.socket(self.worker.pid)
        self.sockets.bind(self.worker.pid, self.listen_fd, address)
        self.sockets.listen(self.worker.pid, self.listen_fd)
        self._listen_sock = self.sockets.resolve(
            self.worker.pid, self.listen_fd
        )
        #: Accepted keep-alive connections still open.
        self._open: list[int] = []
        #: fd -> resolved endpoint (skips the fd-table walk per request).
        self._socks: dict[int, object] = {}
        #: Open-file cache (NGINX ``open_file_cache`` + ``sendfile``):
        #: request path -> (prebuilt response, body length).  Invalidated
        #: whenever the docroot changes.
        self._response_cache: dict[str, tuple[bytes, int]] = {}
        #: Memoized full respond results keyed on the raw request bytes —
        #: (response, close_after, errored, body length).  Sound because
        #: ``_respond`` is pure in the docroot state; invalidated with it.
        self._respond_cache: dict[bytes, tuple[bytes, bool, bool, int]] = {}

    def publish(self, path: str, body: bytes) -> None:
        self.kernel.vfs.create(f"{self.docroot}{path}", body)
        self._response_cache.clear()
        self._respond_cache.clear()

    def handle_one(self) -> bool:
        """Service the listener once: accept pending connections and
        serve every buffered request on the open (keep-alive) ones.

        Connections persist across requests (HTTP/1.1 default) until the
        client sends ``Connection: close``, the request errors, or the
        peer hangs up — dead peers are reaped here.  Returns False when
        there was nothing at all to do.
        """
        pid = self.worker.pid
        sockets = self.sockets
        network = sockets.network
        netstack = self.kernel.netstack
        progressed = False
        while self._listen_sock.backlog:
            conn = sockets.accept(pid, self.listen_fd)
            self._open.append(conn)
            self._socks[conn] = sockets.resolve(pid, conn)
            progressed = True
        for conn in list(self._open):
            sock = self._socks[conn]
            if not sock.rx:
                peer = sock.peer
                if peer is None or peer.state is SocketState.CLOSED:
                    self._open.remove(conn)
                    self._socks.pop(conn, None)
                    sockets.close(pid, conn)
                    progressed = True
                continue
            # In-kernel fast path (sendfile-style): the worker holds the
            # resolved endpoint, so data-plane calls skip the fd table.
            raw = network.recv(netstack, sock, 65536)
            cached = self._respond_cache.get(raw)
            if cached is not None:
                response, close_after, errs, served = cached
                self.stats.requests += 1
                self.stats.errors += errs
                self.stats.bytes_served += served
            else:
                errs0 = self.stats.errors
                served0 = self.stats.bytes_served
                response, close_after = self._respond(raw)
                self._respond_cache[raw] = (
                    response,
                    close_after,
                    self.stats.errors - errs0,
                    self.stats.bytes_served - served0,
                )
            try:
                network.send(netstack, sock, response)
            except SocketError:
                close_after = True  # client went away mid-response
            if close_after:
                self._open.remove(conn)
                self._socks.pop(conn, None)
                sockets.close(pid, conn)
            progressed = True
        return progressed

    def _respond(self, raw: bytes) -> tuple[bytes, bool]:
        """Build the response and whether to close the connection after.

        Error responses close (the NGINX default for malformed traffic);
        successful exchanges keep the connection alive unless the client
        asked for ``Connection: close``.
        """
        self.stats.requests += 1
        try:
            request = parse_request(raw)
        except HttpError:
            self.stats.errors += 1
            return build_response(HTTP_BAD_REQUEST, b"bad request"), True
        wants_close = request.headers.get("connection", "") == "close"
        if request.method != "GET":
            self.stats.errors += 1
            return build_response(HTTP_BAD_REQUEST, b"only GET here"), True
        cached = self._response_cache.get(request.path)
        if cached is not None:
            response, body_len = cached
            self.stats.bytes_served += body_len
            return response, wants_close
        full_path = f"{self.docroot}{request.path}"
        try:
            fd = self.kernel.open(self.worker.pid, full_path)
        except VfsError:
            self.stats.errors += 1
            return (
                build_response(HTTP_NOT_FOUND, b"no such page"),
                wants_close,
            )
        body = bytearray()
        while True:
            chunk = self.kernel.read(self.worker.pid, fd, 4096)
            if not chunk:
                break
            body += chunk
        self.kernel.close(self.worker.pid, fd)
        self.stats.bytes_served += len(body)
        response = build_response(HTTP_OK, bytes(body))
        self._response_cache[request.path] = (response, len(body))
        return response, wants_close


class HttpClient:
    """A wrk-flavoured synchronous client with keep-alive connections.

    One persistent connection per server address (HTTP/1.1 default),
    reconnecting transparently when the server closed it — so steady-state
    requests pay no handshake and the request/response pair costs O(1)
    substrate crossings.
    """

    def __init__(
        self,
        kernel: GuestKernel,
        network: VirtualNetwork,
        server_pump,
    ) -> None:
        self.kernel = kernel
        self.sockets = SocketLayer(kernel, network)
        self.proc = kernel.spawn("wrk")
        #: Callable that lets the server process its backlog (the
        #: simulation is single-threaded).
        self._pump = server_pump
        #: address -> pooled (connection fd, resolved endpoint).
        self._conns: dict[tuple[str, int], tuple[int, object]] = {}
        #: (address, path) -> prebuilt request bytes.
        self._requests: dict[tuple[tuple[str, int], str], bytes] = {}
        #: raw response bytes -> parsed (status, body); sound because
        #: parsing is pure and responses repeat under keep-alive.
        self._parsed: dict[bytes, tuple[int, bytes]] = {}

    def _connect(self, address: tuple[str, int]) -> tuple[int, object]:
        fd = self.sockets.socket(self.proc.pid)
        self.sockets.connect(self.proc.pid, fd, address)
        entry = (fd, self.sockets.resolve(self.proc.pid, fd))
        self._conns[address] = entry
        return entry

    def _drop(self, address: tuple[str, int], fd: int) -> None:
        self._conns.pop(address, None)
        try:
            self.sockets.close(self.proc.pid, fd)
        except SocketError:
            pass

    def get(self, address: tuple[str, int], path: str) -> tuple[int, bytes]:
        entry = self._conns.get(address)
        if entry is None:
            entry = self._connect(address)
        fd, sock = entry
        request = self._requests.get((address, path))
        if request is None:
            request = (
                f"GET {path} HTTP/1.1\r\nHost: {address[0]}\r\n\r\n"
            ).encode("latin-1")
            self._requests[(address, path)] = request
        network = self.sockets.network
        netstack = self.kernel.netstack
        try:
            network.send(netstack, sock, request)
        except SocketError:
            # The server closed the pooled connection; reconnect once.
            self._drop(address, fd)
            fd, sock = self._connect(address)
            network.send(netstack, sock, request)
        self._pump()
        raw = network.recv(netstack, sock, 1 << 20)
        peer = sock.peer
        if peer is None or peer.state is SocketState.CLOSED:
            self._drop(address, fd)
        parsed = self._parsed.get(raw)
        if parsed is None:
            parsed = parse_response(raw)
            self._parsed[raw] = parsed
        return parsed
