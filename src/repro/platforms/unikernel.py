"""Unikernel (Rumprun) — the single-process LibOS baseline (§5.5).

    "For Unikernel, we used Rumprun because it can run the benchmarks with
     minor patches."

Syscalls are direct function calls into the rump kernel — as cheap as
X-Containers' converted calls — but only ONE process exists per instance
(§6.2), so NGINX with multiple workers and the Dedicated&Merged PHP+MySQL
configuration are simply unsupported, and the NetBSD-derived kernel loses
to Linux on database-style work (§5.5).
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, NativeMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform


class UnsupportedWorkload(RuntimeError):
    """Raised when a workload needs more than the platform offers."""


class UnikernelPlatform(Platform):
    name = "Unikernel"
    multicore_processing = False
    max_processes = 1
    supports_kernel_modules = False

    def syscall_cost_ns(self) -> float:
        # A direct call into the rump kernel; no Meltdown surface at all.
        return self.costs.unikernel_syscall_ns

    def kernel_work_factor(self) -> float:
        return self.costs.rumprun_efficiency

    def net_device(self) -> NetDevice:
        return NetDevice.DIRECT

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        config = KernelConfig(
            name="rumprun",
            smp=False,
            nr_cpus=1,
            kpti=False,
            modules_allowed=False,
            single_concern_tuned=False,
        )
        return GuestKernel(
            config, self.costs, clock,
            mmu=NativeMmu(self.costs, clock),
            net_device=NetDevice.DIRECT,
        )

    def require_processes(self, count: int) -> None:
        if count > 1:
            raise UnsupportedWorkload(
                f"Unikernel supports a single process, not {count} "
                "(§6.2: 'only support single-process applications')"
            )
