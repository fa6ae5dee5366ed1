"""Google gVisor — user-space kernel with ptrace syscall interception.

    "gVisor performance suffers significantly from the overhead of using
     ptrace for intercepting system calls" (§5.3); "The throughput of
     gVisor is only 7 to 9% of Docker" (§5.4).

Kernel services are re-implemented in Go by the Sentry (slower than
native), packets traverse its user-space netstack, and — §2.3 — processes
can be spawned but not run concurrently.
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, NativeMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform


class GVisorPlatform(Platform):
    name = "gVisor"
    #: §2.3: "they can only run a single process at a time even when
    #: multiple CPU cores are available."
    multicore_processing = False
    supports_kernel_modules = False

    def syscall_cost_ns(self) -> float:
        # Two ptrace stops + Sentry dispatch; the ptrace hops are kernel
        # crossings themselves, so the host KPTI patch hurts them too.
        cost = self.costs.gvisor_syscall_ns
        if self.patched:
            cost += self.costs.gvisor_kpti_extra_ns
        return cost

    def kernel_work_factor(self) -> float:
        return self.costs.gvisor_efficiency

    def net_device(self) -> NetDevice:
        return NetDevice.GVISOR

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        config = KernelConfig(
            name="gvisor-sentry",
            smp=True,
            kpti=self.patched,
            modules_allowed=False,
        )
        return GuestKernel(
            config, self.costs, clock,
            mmu=NativeMmu(self.costs, clock),
            net_device=NetDevice.GVISOR,
        )
