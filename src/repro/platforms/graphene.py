"""Graphene — a multi-process LibOS over a full host kernel (§5.5, §6.2).

    "in Graphene, processes use IPC calls to coordinate access to a shared
     POSIX library, which incurs high overheads" — the Fig 6b effect.

Single-process Graphene serves syscalls as library calls (cheap-ish through
the PAL); with multiple processes a fraction of syscalls must take an IPC
round-trip to keep the shared POSIX state consistent.  The host kernel
below is a full Linux, so the TCB is not reduced (§6.2) — and the paper's
runs compiled out the security isolation module, which we model as the
default.
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, NativeMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform

#: Fraction of syscalls touching shared POSIX state (fd tables, signal
#: dispositions, shared memory bookkeeping) that require coordination IPC
#: when more than one process runs.  Anchors X > 1.5× Graphene with four
#: NGINX workers (Fig 6b).
IPC_COORDINATION_FRACTION = 0.25


class GraphenePlatform(Platform):
    name = "Graphene"
    multicore_processing = True  # supported, but expensively (§2.3)
    supports_kernel_modules = False

    def __init__(self, costs=None, patched: bool = True,
                 processes: int = 1) -> None:
        super().__init__(costs, patched)
        if processes < 1:
            raise ValueError(f"processes must be >= 1: {processes}")
        self.processes = processes

    def syscall_cost_ns(self) -> float:
        cost = self.costs.graphene_syscall_ns
        if self.processes > 1:
            cost += IPC_COORDINATION_FRACTION * self.costs.graphene_ipc_ns
        return cost

    def kernel_work_factor(self) -> float:
        return self.costs.graphene_efficiency

    def net_device(self) -> NetDevice:
        # Graphene ran on bare-metal Linux in §5.5 — direct NIC access
        # through the host kernel.
        return NetDevice.DIRECT

    def net_request_extra_ns(self) -> float:
        return 0.0  # no port forwarding in the local-cluster setup (§5.5)

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        config = KernelConfig(
            name="graphene-libos",
            smp=True,
            kpti=self.patched,
            modules_allowed=False,
        )
        return GuestKernel(
            config, self.costs, clock,
            mmu=NativeMmu(self.costs, clock),
            net_device=NetDevice.DIRECT,
        )
