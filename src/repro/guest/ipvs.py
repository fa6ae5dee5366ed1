"""IPVS — IP Virtual Server, kernel-level load balancing (§5.7).

    "X-Containers supports HAProxy, but can also use kernel-level load
     balancing solutions, such as IPVS ... IPVS requires inserting new
     kernel modules and changing iptable and ARP table rules, which is not
     possible in Docker without root privilege and access to the host
     network."

Two forwarding modes are modelled:

* **NAT** — the director rewrites both request and response; responses flow
  back through it, so it does roughly the work of a full proxy minus the
  user-space hop;
* **Direct routing (DR)** — the director only rewrites the inbound MAC;
  responses go straight from the real server to the client, so the
  director's per-request work collapses (the 2.5× shift in Fig 9).

Two schedulers are modelled (the ``ip_vs_rr`` / ``ip_vs_wlc`` modules):

* **wrr** — weighted round-robin, the paper's Fig 9 setup;
* **wlc** — weighted least-connection, what a production fleet runs:
  each new connection goes to the real server with the smallest
  ``(active + 1) / weight`` (ties break in insertion order, so
  scheduling is deterministic).

Real servers can be added and removed while connections are live:
``remove_server`` with draining stops routing *new* connections to the
server immediately and finalizes the removal when its last active
connection closes; ``kill_server`` models a backend death — every active
connection on it fails and the server never receives another one.  All
churn is accounted in :class:`IpvsStats`, and the conservation invariant
``scheduled == sum(served)`` holds across adds, drains, removals and
deaths (see ``tests/lb/test_ipvs.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.guest.modules import ModuleRegistry
from repro.perf.costs import CostModel


class IpvsMode(enum.Enum):
    NAT = "nat"
    DIRECT_ROUTING = "dr"


class ServerState(enum.Enum):
    ACTIVE = "active"
    DRAINING = "draining"
    DEAD = "dead"
    #: Removal finalized — off the director's books except accounting.
    REMOVED = "removed"


@dataclass
class RealServer:
    host: str
    port: int
    weight: int = 1
    served: int = 0
    #: Connections currently assigned to this server.
    active_conns: int = 0
    state: ServerState = ServerState.ACTIVE

    @property
    def schedulable(self) -> bool:
        return self.state is ServerState.ACTIVE


@dataclass
class IpvsStats:
    scheduled: int = 0
    nat_translations: int = 0
    dr_forwards: int = 0
    # -- connection churn ---------------------------------------------
    conns_opened: int = 0
    conns_closed: int = 0
    #: Connections that died with their server (kill / forced removal).
    conns_failed: int = 0
    # -- server churn --------------------------------------------------
    servers_added: int = 0
    servers_removed: int = 0
    drains_started: int = 0
    backend_deaths: int = 0


class IPVS:
    """One IPVS director instance living inside a kernel."""

    def __init__(
        self,
        modules: ModuleRegistry,
        mode: IpvsMode,
        costs: CostModel | None = None,
        scheduler: str = "wrr",
    ) -> None:
        modules.require("ip_vs")
        if mode is IpvsMode.DIRECT_ROUTING:
            # DR additionally needs ARP rules on the backends; the module
            # dependency stands in for that plumbing.
            modules.require("ip_vs_rr")
        if scheduler not in ("wrr", "wlc"):
            raise ValueError(
                f"unknown IPVS scheduler {scheduler!r} (known: wrr, wlc)"
            )
        self.mode = mode
        self.scheduler = scheduler
        self.costs = costs or CostModel()
        self._servers: list[RealServer] = []
        #: Finalized removals, kept so stats conservation can be audited.
        self._removed: list[RealServer] = []
        self._next = 0
        self.stats = IpvsStats()

    # ------------------------------------------------------------------
    # Server set management
    # ------------------------------------------------------------------
    def add_server(self, host: str, port: int, weight: int = 1) -> RealServer:
        if weight < 1:
            raise ValueError(f"weight must be >= 1: {weight}")
        server = RealServer(host, port, weight)
        self._servers.append(server)
        self.stats.servers_added += 1
        return server

    def _find(self, host: str, port: int) -> RealServer:
        for server in self._servers:
            if server.host == host and server.port == port:
                return server
        raise KeyError(f"no real server {host}:{port}")

    def remove_server(self, host: str, port: int, drain: bool = True) -> int:
        """Remove a real server; returns the number of connections failed.

        With ``drain=True`` (the default) the server stops receiving new
        connections immediately and the removal finalizes when its last
        active connection closes — no connection is reset.  With
        ``drain=False`` the removal is immediate and every active
        connection on the server fails.
        """
        server = self._find(host, port)
        if server.state is ServerState.DEAD:
            raise ValueError(f"server {host}:{port} is dead, not removable")
        if drain and server.active_conns > 0:
            if server.state is not ServerState.DRAINING:
                server.state = ServerState.DRAINING
                self.stats.drains_started += 1
            return 0
        failed = server.active_conns
        if failed:
            self.stats.conns_failed += failed
            server.active_conns = 0
        self._finalize_removal(server)
        return failed

    def kill_server(self, host: str, port: int) -> int:
        """A backend death: active connections fail, nothing new routed.

        The dead server stays on the books (``servers`` still lists it)
        so the director's accounting remains conserved; returns the
        number of connections that died with it.
        """
        server = self._find(host, port)
        if server.state is ServerState.DEAD:
            return 0
        failed = server.active_conns
        server.active_conns = 0
        server.state = ServerState.DEAD
        self.stats.conns_failed += failed
        self.stats.backend_deaths += 1
        return failed

    def _finalize_removal(self, server: RealServer) -> None:
        self._servers.remove(server)
        self._removed.append(server)
        server.state = ServerState.REMOVED
        self.stats.servers_removed += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self) -> RealServer:
        """Pick the next real server (wrr or wlc, per ``scheduler``).

        Draining and dead servers never receive new work ("no requests
        routed to a removed backend").
        """
        candidates = [s for s in self._servers if s.schedulable]
        if not candidates:
            raise RuntimeError("IPVS has no schedulable real servers")
        if self.scheduler == "wlc":
            server = min(
                candidates,
                key=lambda s: (s.active_conns + 1) / s.weight,
            )
        else:
            expanded: list[RealServer] = []
            for candidate in candidates:
                expanded.extend([candidate] * candidate.weight)
            server = expanded[self._next % len(expanded)]
            self._next += 1
        server.served += 1
        self.stats.scheduled += 1
        return server

    # ------------------------------------------------------------------
    # Connection lifecycle (IPVS balances per connection, not per request)
    # ------------------------------------------------------------------
    def open_connection(self) -> RealServer:
        """Schedule a new connection onto a real server."""
        server = self.schedule()
        server.active_conns += 1
        self.stats.conns_opened += 1
        return server

    def close_connection(self, server: RealServer) -> None:
        """Close one connection; finalizes a drained server's removal."""
        if server.active_conns < 1:
            raise ValueError(
                f"no active connections on {server.host}:{server.port}"
            )
        server.active_conns -= 1
        self.stats.conns_closed += 1
        if (
            server.state is ServerState.DRAINING
            and server.active_conns == 0
        ):
            self._finalize_removal(server)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_served(self) -> int:
        """Requests scheduled across live, dead and removed servers."""
        return sum(s.served for s in self._servers) + sum(
            s.served for s in self._removed
        )

    def active_connections(self) -> int:
        return sum(s.active_conns for s in self._servers)

    def conservation_ok(self) -> bool:
        """The director's books balance.

        Every scheduled decision landed on exactly one server (live,
        dead or removed), and every opened connection either closed,
        failed, or is still active.
        """
        conns_balanced = self.stats.conns_opened == (
            self.stats.conns_closed
            + self.stats.conns_failed
            + self.active_connections()
        )
        return self.stats.scheduled == self.total_served() and conns_balanced

    def director_cost_ns(self, request_bytes: int, response_bytes: int) -> float:
        """Per-request CPU cost on the director."""
        # IP-level processing plus connection tracking; no TCP endpoint.
        base = self.costs.host_netstack_ns * 0.75
        if self.mode is IpvsMode.NAT:
            self.stats.nat_translations += 1
            # Rewrite + forward both directions, plus response bytes
            # flowing back through the director.
            return (
                base
                + 2 * self.costs.iptables_dnat_ns
                + (request_bytes + response_bytes)
                * self.costs.copy_per_byte_ns
            )
        self.stats.dr_forwards += 1
        # DR: inbound MAC rewrite only; responses bypass the director.
        return (
            base * 0.45
            + self.costs.iptables_dnat_ns * 0.5
            + request_bytes * self.costs.copy_per_byte_ns
        )
