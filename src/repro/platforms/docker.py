"""Native Docker on a shared host kernel — the normalization baseline.

Every syscall is a real kernel crossing (plus KPTI when patched); the
network path is veth + bridge with iptables DNAT; process lifecycle uses
native page tables (fast — this is where Docker beats X-Containers, §5.4).
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, NativeMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform


class DockerPlatform(Platform):
    name = "Docker"
    multicore_processing = True
    supports_kernel_modules = False  # no root on the host kernel (§5.7)

    def syscall_cost_ns(self) -> float:
        cost = self.costs.native_syscall_ns
        if self.patched:
            cost += self.costs.kpti_syscall_extra_ns
        return cost

    def kernel_work_factor(self) -> float:
        # The shared general-purpose kernel is the reference point.
        return self.costs.shared_kernel_efficiency

    def net_device(self) -> NetDevice:
        return NetDevice.BRIDGE

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        config = KernelConfig.host_default()
        config.kpti = self.patched
        return GuestKernel(
            config, self.costs, clock, mmu=NativeMmu(self.costs, clock)
        )
