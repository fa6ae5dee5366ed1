"""Xen-Containers — the LightVM-like baseline the paper built (§5.1).

    "Xen-Containers use exactly the same software stack ... as
     X-Containers.  The only difference ... is the underlying hypervisor
     (unmodified Xen vs X-Kernel) and guest kernel (unmodified Linux vs
     X-LibOS)."

So: every syscall pays the stock x86-64 PV bounce (virtual exception
through Xen, page-table switch, TLB flush — §4.1), the guest kernel is an
untuned stock Linux whose page-table updates are validated hypercalls, and
the network path is the split driver.
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, HypercallMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform
from repro.xen.hypervisor import XenHypervisor


class XenContainerPlatform(Platform):
    name = "Xen-Container"
    multicore_processing = True
    supports_kernel_modules = True  # it owns its guest kernel

    def __init__(self, costs=None, patched: bool = True) -> None:
        super().__init__(costs, patched)
        self.xen = XenHypervisor(self.costs, xpti_patched=patched)

    def syscall_cost_ns(self) -> float:
        return self.xen.pv_syscall_cost_ns()

    def kernel_work_factor(self) -> float:
        # Stock guest Linux under PV: no tuning, plus PV MMU overhead
        # leaking into kernel work.
        return self.costs.xen_guest_efficiency

    def net_device(self) -> NetDevice:
        return NetDevice.NETFRONT

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        config = KernelConfig(
            name="xen-guest-4.4",
            smp=True,
            kpti=self.patched,
            modules_allowed=True,
        )
        return GuestKernel(
            config, self.costs, clock,
            mmu=HypercallMmu(self.costs, clock),
            net_device=NetDevice.NETFRONT,
        )

    def ctx_switch_cost_ns(self, nr_running: int = 2) -> float:
        # PV guests run with the global bit disabled (§4.3): every process
        # switch is a full flush + kernel refill, and the page-table
        # install is a hypercall.
        return self.xen.context_switch_cost_ns(same_domain=True)
