"""Software RDMA — Soft-iWARP / Soft-RoCE (§5.7).

    "For example, X-Containers can run software RDMA (both Soft-iwarp and
     Soft-ROCE) applications.  In Docker environments, such modules
     require root privilege and expose the host network to the container
     directly, raising security concerns."

The model: a software RDMA device is a kernel module providing queue
pairs whose data path bypasses the socket layer — per-message cost is a
fraction of a TCP round trip because there is no per-message syscall, no
sk_buff churn, and completion is polled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.guest.modules import ModuleRegistry
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


class RdmaProvider(enum.Enum):
    SOFT_IWARP = "siw"
    SOFT_ROCE = "rdma_rxe"


class RdmaError(RuntimeError):
    pass


@dataclass
class QueuePairStats:
    sends: int = 0
    recvs: int = 0
    bytes_moved: int = 0
    completions_polled: int = 0


@dataclass
class WorkCompletion:
    wr_id: int
    nbytes: int
    opcode: str


class QueuePair:
    """One RDMA queue pair between two endpoints."""

    def __init__(self, device: "SoftRdmaDevice", qp_num: int) -> None:
        self.device = device
        self.qp_num = qp_num
        self.stats = QueuePairStats()
        self._completions: list[WorkCompletion] = []
        self._next_wr = 1
        self.connected = False

    def connect(self) -> None:
        self.connected = True

    def post_send(self, nbytes: int) -> int:
        """Post a send work request; returns the wr_id."""
        if not self.connected:
            raise RdmaError("queue pair is not connected")
        if nbytes < 0:
            raise RdmaError(f"negative message size {nbytes}")
        wr_id = self._next_wr
        self._next_wr += 1
        self.stats.sends += 1
        self.stats.bytes_moved += nbytes
        self._completions.append(WorkCompletion(wr_id, nbytes, "SEND"))
        self.device.charge_message(nbytes)
        return wr_id

    def post_recv(self, nbytes: int) -> int:
        if not self.connected:
            raise RdmaError("queue pair is not connected")
        wr_id = self._next_wr
        self._next_wr += 1
        self.stats.recvs += 1
        self._completions.append(WorkCompletion(wr_id, nbytes, "RECV"))
        return wr_id

    def poll_cq(self, max_entries: int = 16) -> list[WorkCompletion]:
        """Poll the completion queue — no syscall, no interrupt."""
        taken = self._completions[:max_entries]
        del self._completions[: len(taken)]
        self.stats.completions_polled += len(taken)
        return taken


class SoftRdmaDevice:
    """A software RDMA device inside one kernel.

    Creating it requires loading the provider's kernel module — which is
    exactly what a Docker tenant cannot do (§5.7).
    """

    #: Per-message CPU cost as a fraction of a TCP request/response.
    MESSAGE_COST_FRACTION = 0.35

    def __init__(
        self,
        modules: ModuleRegistry,
        provider: RdmaProvider,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        modules.load(provider.value)  # raises ModuleLoadError in Docker
        self.provider = provider
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        self._qps: list[QueuePair] = []

    def create_qp(self) -> QueuePair:
        qp = QueuePair(self, len(self._qps) + 1)
        self._qps.append(qp)
        return qp

    def per_message_cost_ns(self, nbytes: int) -> float:
        tcp_like = (
            self.costs.host_netstack_ns * self.MESSAGE_COST_FRACTION
            + nbytes * self.costs.copy_per_byte_ns
        )
        return tcp_like

    def charge_message(self, nbytes: int) -> None:
        self.clock.advance(self.per_message_cost_ns(nbytes))

    def speedup_vs_sockets(self, nbytes: int, syscall_cost_ns: float) -> float:
        """How much one RDMA message saves vs a socket send of the same
        size (2 syscalls + full stack traversal)."""
        socket_cost = (
            2 * syscall_cost_ns
            + self.costs.host_netstack_ns
            + nbytes * self.costs.copy_per_byte_ns
        )
        return socket_cost / self.per_message_cost_ns(nbytes)
