"""Sockets and a host-local virtual network.

A functional (not just priced) socket layer: kernels attach to a
:class:`VirtualNetwork`, servers listen, clients connect, and bytes flow
between processes living in *different* kernel instances — the substrate
under the PHP→MySQL queries of Fig 6c and the proxied connections of
Fig 9.

Costs: each send charges the sender's netstack (and the wire), each
receive charges the receiver's; connects pay the handshake on both ends.
"""

from __future__ import annotations

import enum
import errno
from collections import deque
from dataclasses import dataclass, field

from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


class SocketError(OSError):
    def __init__(self, err: int, message: str = "") -> None:
        super().__init__(err, message or errno.errorcode.get(err, str(err)))


class SocketState(enum.Enum):
    CREATED = "created"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    CLOSED = "closed"


Address = tuple[str, int]


@dataclass
class Socket:
    """One endpoint.  Stream semantics; rx buffering is unbounded (flow
    control is not what the experiments measure)."""

    state: SocketState = SocketState.CREATED
    local: Address | None = None
    peer: "Socket | None" = None
    rx: deque = field(default_factory=deque)
    backlog: deque = field(default_factory=deque)
    bytes_sent: int = 0
    bytes_received: int = 0


class VirtualNetwork:
    """A host-local L3 fabric connecting kernel instances."""

    def __init__(
        self,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: (ip, port) -> (owning kernel's netstack, listening socket)
        self._listeners: dict[Address, tuple[object, Socket]] = {}
        self.connections = 0
        self.bytes_carried = 0

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def register_listener(
        self, address: Address, netstack, sock: Socket
    ) -> None:
        if address in self._listeners:
            raise SocketError(errno.EADDRINUSE, str(address))
        self._listeners[address] = (netstack, sock)

    def unregister_listener(self, address: Address) -> None:
        self._listeners.pop(address, None)

    def connect(self, client_stack, client_sock: Socket,
                address: Address) -> None:
        """3-way handshake: enqueue a peer endpoint on the listener."""
        entry = self._listeners.get(address)
        if entry is None:
            raise SocketError(errno.ECONNREFUSED, str(address))
        server_stack, listener = entry
        server_side = Socket(state=SocketState.CONNECTED, local=address)
        client_sock.peer = server_side
        server_side.peer = client_sock
        client_sock.state = SocketState.CONNECTED
        listener.backlog.append(server_side)
        self.connections += 1
        self.clock.advance(
            client_stack.connection_setup_cost_ns()
            + server_stack.connection_setup_cost_ns()
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send(self, sender_stack, sock: Socket, data: bytes) -> int:
        if sock.state is not SocketState.CONNECTED or sock.peer is None:
            raise SocketError(errno.ENOTCONN)
        if sock.peer.state is SocketState.CLOSED:
            raise SocketError(errno.EPIPE)
        sock.peer.rx.append(bytes(data))
        sock.bytes_sent += len(data)
        sock.peer.bytes_received += len(data)
        self.bytes_carried += len(data)
        self.clock.advance(sender_stack.request_response_cost_ns(len(data), 0))
        return len(data)

    def recv(self, receiver_stack, sock: Socket, count: int) -> bytes:
        if sock.state is not SocketState.CONNECTED:
            raise SocketError(errno.ENOTCONN)
        if count < 0:
            raise SocketError(errno.EINVAL)
        # Fast path: one buffered chunk that fits the read — hand the
        # bytes over without the copy loop (the common case on the HTTP
        # request path, where each exchange is a single segment train).
        if len(sock.rx) == 1 and len(sock.rx[0]) <= count:
            chunk = sock.rx.popleft()
            self.clock.advance(
                receiver_stack.request_response_cost_ns(0, len(chunk))
            )
            return chunk
        out = bytearray()
        while sock.rx and len(out) < count:
            chunk = sock.rx.popleft()
            take = count - len(out)
            out += chunk[:take]
            if take < len(chunk):
                sock.rx.appendleft(chunk[take:])
        if out:
            self.clock.advance(
                receiver_stack.request_response_cost_ns(0, len(out))
            )
        return bytes(out)


class SocketLayer:
    """Per-kernel socket API, installed into process fd tables."""

    def __init__(self, kernel, network: VirtualNetwork) -> None:
        self.kernel = kernel
        self.network = network

    def socket(self, pid: int) -> int:
        proc = self.kernel.process(pid)
        return proc.install_fd(Socket())

    def _sock(self, pid: int, fd: int) -> Socket:
        obj = self.kernel.process(pid).fds.get(fd)
        if not isinstance(obj, Socket):
            raise SocketError(errno.EBADF)
        return obj

    def resolve(self, pid: int, fd: int) -> Socket:
        """Resolve ``fd`` to its endpoint once, for callers that hold a
        descriptor across many operations (in-kernel servers) and don't
        want to pay the fd-table walk per I/O call.  The returned object
        is live — ``close`` on the fd marks it CLOSED."""
        return self._sock(pid, fd)

    def bind(self, pid: int, fd: int, address: Address) -> None:
        sock = self._sock(pid, fd)
        if sock.state is not SocketState.CREATED:
            raise SocketError(errno.EINVAL, "socket already bound")
        sock.local = address
        sock.state = SocketState.BOUND

    def listen(self, pid: int, fd: int) -> None:
        sock = self._sock(pid, fd)
        if sock.state is not SocketState.BOUND:
            raise SocketError(errno.EINVAL, "listen needs a bound socket")
        sock.state = SocketState.LISTENING
        self.network.register_listener(
            sock.local, self.kernel.netstack, sock
        )

    def accept(self, pid: int, fd: int) -> int:
        sock = self._sock(pid, fd)
        if sock.state is not SocketState.LISTENING:
            raise SocketError(errno.EINVAL, "accept needs a listener")
        if not sock.backlog:
            raise SocketError(errno.EAGAIN, "no pending connection")
        conn = sock.backlog.popleft()
        return self.kernel.process(pid).install_fd(conn)

    def connect(self, pid: int, fd: int, address: Address) -> None:
        sock = self._sock(pid, fd)
        self.network.connect(self.kernel.netstack, sock, address)

    def send(self, pid: int, fd: int, data: bytes) -> int:
        return self.network.send(
            self.kernel.netstack, self._sock(pid, fd), data
        )

    def recv(self, pid: int, fd: int, count: int) -> bytes:
        return self.network.recv(
            self.kernel.netstack, self._sock(pid, fd), count
        )

    def close(self, pid: int, fd: int) -> None:
        sock = self._sock(pid, fd)
        if sock.state is SocketState.LISTENING and sock.local:
            self.network.unregister_listener(sock.local)
        sock.state = SocketState.CLOSED
        del self.kernel.process(pid).fds[fd]
