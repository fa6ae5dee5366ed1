"""The Xen hypervisor model (stock PV, §4.1).

Models the control plane (domains, vCPUs) and — crucially for the
evaluation — the *stock* x86-64 PV syscall path that X-Containers
eliminates:

    "Each system call needs to be forwarded by the Xen hypervisor as a
     virtual exception, and incurs a page table switch and a TLB flush.
     This causes significant overheads..."

Xen-Containers (the LightVM-like baseline) run on this class; X-Containers
run on :class:`repro.core.xkernel.XKernel` instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.events import EventChannelTable
from repro.xen.grant_table import GrantTable
from repro.xen.hypercalls import HypercallTable


class DomainKind(enum.Enum):
    DOM0 = "dom0"
    DRIVER = "driver"
    DOMU = "domU"


@dataclass
class Domain:
    domid: int
    name: str
    kind: DomainKind
    vcpus: int
    memory_mb: int
    #: Xen's Meltdown mitigation state for this guest's kernel.
    guest_kpti: bool = False
    running: bool = True


class XenHypervisor:
    """Stock Xen: domain lifecycle plus the PV trap costs."""

    def __init__(
        self,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        total_memory_mb: int = 96 * 1024,
        xpti_patched: bool = True,
    ) -> None:
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        self.total_memory_mb = total_memory_mb
        #: The Xen-side Meltdown patch (§5.1: "The same patch exists for
        #: Xen and we ported it to both Xen-Container and X-Container").
        self.xpti_patched = xpti_patched
        self.hypercalls = HypercallTable(self.costs, self.clock)
        self.grants = GrantTable(self.hypercalls)
        self._domains: dict[int, Domain] = {}
        self._next_domid = 0
        self.create_domain("Domain-0", DomainKind.DOM0, vcpus=4,
                           memory_mb=4096)

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def create_domain(
        self,
        name: str,
        kind: DomainKind = DomainKind.DOMU,
        vcpus: int = 1,
        memory_mb: int = 512,
    ) -> Domain:
        if memory_mb > self.free_memory_mb:
            raise MemoryError(
                f"cannot create {name}: needs {memory_mb} MB, "
                f"{self.free_memory_mb} MB free"
            )
        domain = Domain(self._next_domid, name, kind, vcpus, memory_mb)
        self._domains[domain.domid] = domain
        self._next_domid += 1
        return domain

    def destroy_domain(self, domid: int) -> None:
        if domid == 0:
            raise ValueError("cannot destroy Domain-0")
        if self.grants.sanitizer is not None:
            # LSan moment: grants still live against the dying domain
            # can never be cleaned up now.
            self.grants.sanitizer.on_domain_destroy(domid)
        self._domains.pop(domid, None)

    @property
    def domains(self) -> list[Domain]:
        return list(self._domains.values())

    @property
    def used_memory_mb(self) -> int:
        return sum(d.memory_mb for d in self._domains.values())

    @property
    def free_memory_mb(self) -> int:
        return self.total_memory_mb - self.used_memory_mb

    def event_channels(self) -> EventChannelTable:
        """A fresh per-domain event channel table."""
        return EventChannelTable(self.costs, self.clock)

    # ------------------------------------------------------------------
    # The stock PV syscall bounce (what X-Containers removes)
    # ------------------------------------------------------------------
    def pv_syscall_cost_ns(self) -> float:
        """Cost of one guest syscall under stock x86-64 PV.

        Trap into Xen, virtual-exception forward into the guest kernel's
        separate address space: page-table switch + TLB flush on the way
        in, and again on the way out; XPTI adds its own shadow-table work.
        """
        cost = self.costs.xen_pv_syscall_ns
        if self.xpti_patched:
            cost += self.costs.xpti_syscall_extra_ns
        return cost

    def context_switch_cost_ns(self, same_domain: bool) -> float:
        """Process switch inside a PV guest.

        The global bit is disabled for PV guests (§4.3), so every process
        switch pays a full TLB flush plus kernel-range refills; page-table
        installs are validated hypercalls.
        """
        cost = (
            self.costs.ctx_switch_process_ns
            + self.costs.pt_update_hypercall_ns
            + self.costs.tlb_flush_ns
            + self.costs.tlb_kernel_refill_ns
        )
        if not same_domain:
            cost += self.costs.vcpu_switch_ns
        return cost
