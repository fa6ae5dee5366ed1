"""The backend fleet: X-Container domains behind one IPVS director.

Owns the live :class:`repro.guest.ipvs.IPVS` instance for the run and
the backend-id bookkeeping around it: spawning (with a cold-start
delay), draining removal on scale-down, deaths injected by the chaos
overlay, and the connection-lifecycle plumbing the traffic shards'
keep-alive pools ride on.  All scheduling decisions — which backend a
new or re-scheduled connection lands on — are made by the director
itself (weighted least-connection by default), so the serve subsystem
exercises exactly the code path the Fig 9 experiment models.
"""

from __future__ import annotations

from repro.guest.ipvs import IPVS, IpvsMode, RealServer, ServerState
from repro.lb.cluster import LoadBalancedCluster
from repro.platforms.base import Platform


def backend_host(backend_id: int) -> str:
    """A unique RFC1918 address per backend id (fleet-scale safe)."""
    return f"10.0.{backend_id // 250}.{backend_id % 250 + 2}"


class BackendFleet:
    """Dynamic backend set behind one live IPVS director."""

    def __init__(
        self,
        cluster: LoadBalancedCluster,
        platform: Platform,
        mode: IpvsMode,
        scheduler: str = "wlc",
    ) -> None:
        kernel = platform.make_kernel()
        kernel.modules.load("ip_vs")
        kernel.modules.load("ip_vs_rr")
        self.ipvs = IPVS(kernel.modules, mode, cluster.costs,
                         scheduler=scheduler)
        self._next_id = 0
        self._server_of: dict[int, RealServer] = {}
        self._id_of: dict[tuple[str, int], int] = {}
        self._dead: set[int] = set()
        #: (backend_id, ready_at_ns) cold spawns not yet serving.
        self._pending: list[tuple[int, float]] = []
        for _ in range(cluster.n_backends):
            self._activate(self._allocate_id())

    # -- lifecycle -----------------------------------------------------
    def _allocate_id(self) -> int:
        backend_id = self._next_id
        self._next_id += 1
        return backend_id

    def _activate(self, backend_id: int) -> None:
        host = backend_host(backend_id)
        server = self.ipvs.add_server(host, 80)
        self._server_of[backend_id] = server
        self._id_of[(host, 80)] = backend_id

    def spawn(self, ready_at_ns: float) -> int:
        """Provision a backend; it joins the fleet once warmed up."""
        backend_id = self._allocate_id()
        self._pending.append((backend_id, ready_at_ns))
        return backend_id

    def activate_ready(self, now_ns: float) -> list[int]:
        """Admit every pending backend whose cold start has finished."""
        ready = [b for b, at in self._pending if at <= now_ns]
        self._pending = [
            (b, at) for b, at in self._pending if at > now_ns
        ]
        for backend_id in ready:
            self._activate(backend_id)
        return ready

    def drain(self, backend_id: int) -> None:
        """Scale-down removal: no new connections, existing ones finish."""
        server = self._server_of[backend_id]
        self.ipvs.remove_server(server.host, server.port, drain=True)

    def kill(self, backend_id: int) -> int:
        """Chaos backend death; returns the connections that died."""
        server = self._server_of[backend_id]
        failed = self.ipvs.kill_server(server.host, server.port)
        self._dead.add(backend_id)
        return failed

    # -- connections ---------------------------------------------------
    def open_conn(self) -> int:
        """New connection, scheduled by the director; returns backend id."""
        server = self.ipvs.open_connection()
        return self._id_of[(server.host, server.port)]

    def close_conn(self, backend_id: int) -> None:
        self.ipvs.close_connection(self._server_of[backend_id])

    # -- views ---------------------------------------------------------
    @property
    def dead_ids(self) -> frozenset[int]:
        return frozenset(self._dead)

    def alive_ids(self) -> list[int]:
        """Backends accepting new connections, in id order."""
        return sorted(
            backend_id
            for backend_id, server in self._server_of.items()
            if server.state is ServerState.ACTIVE
        )

    def n_alive(self) -> int:
        return len(self.alive_ids())

    def n_provisioned(self) -> int:
        """Alive plus still-warming backends (the autoscaler's count)."""
        return self.n_alive() + len(self._pending)

    def active_conns(self, backend_id: int) -> int:
        return self._server_of[backend_id].active_conns
