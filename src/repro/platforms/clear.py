"""Intel Clear Containers — a dedicated VM per container via KVM.

In a public cloud this requires *nested* hardware virtualization: available
(at a price, [15]) on GCE, absent on EC2 (§1, §5.1).  The guest kernel is
minimal and stays unpatched (§5.1: only the host kernel is patched), which
is why Clear Containers post excellent raw syscall numbers (Fig 4) while
losing the macrobenchmarks to nested-virtualization exit costs (Fig 3).
"""

from __future__ import annotations

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel, NativeMmu
from repro.guest.netstack import NetDevice
from repro.perf.clock import SimClock
from repro.platforms.base import Platform


class ClearContainerPlatform(Platform):
    name = "Clear-Container"
    multicore_processing = True
    supports_kernel_modules = True  # inside its own guest kernel
    needs_nested_hw_virt = True

    def syscall_cost_ns(self) -> float:
        # Syscalls stay inside the (always unpatched, stripped) guest:
        # "the guest kernel is highly optimized by disabling most security
        # features within a Clear container" (§5.4).
        return self.costs.clear_guest_syscall_ns

    def kernel_work_factor(self) -> float:
        return self.costs.clear_guest_efficiency

    def net_device(self) -> NetDevice:
        return NetDevice.NESTED_VIRTIO

    def net_request_extra_ns(self) -> float:
        # DNAT on the host plus nested VM exits for virtio kicks — the
        # §5.3 "significant performance penalty for using nested hardware
        # virtualization".
        return self.costs.iptables_dnat_ns + self.costs.nested_vmexit_ns

    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        clock = clock if clock is not None else SimClock()
        return GuestKernel(
            KernelConfig.clear_guest(), self.costs, clock,
            mmu=NativeMmu(self.costs, clock),
            net_device=NetDevice.NESTED_VIRTIO,
        )
