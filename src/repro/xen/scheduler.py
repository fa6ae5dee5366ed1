"""Credit scheduler — Xen's vCPU scheduler.

Figure 8's scalability result hinges on *hierarchical scheduling*: with N
containers of 4 processes each, the Linux kernel under Docker schedules 4N
processes on one runqueue, while the X-Kernel schedules N vCPUs and each
X-LibOS schedules its own 4 processes.  This module provides the
hypervisor half: a weighted round-robin credit scheduler over vCPUs with a
per-switch cost that grows slowly with the number of runnable vCPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults import sites as fault_sites
from repro.perf.costs import CostModel

#: Xen's 30 ms credit-scheduler time slice.
CREDIT_QUANTUM_NS = 30e6


@dataclass
class VCpu:
    """One virtual CPU belonging to a domain."""

    vcpu_id: int
    domid: int
    weight: int = 256
    credits: float = 0.0
    runnable: bool = True
    scheduled_ns: float = 0.0


class CreditScheduler:
    """Weighted proportional-share scheduling of vCPUs onto physical CPUs."""

    def __init__(
        self,
        physical_cpus: int,
        costs: CostModel | None = None,
        faults=None,
    ) -> None:
        if physical_cpus < 1:
            raise ValueError(f"need at least one pCPU: {physical_cpus}")
        self.physical_cpus = physical_cpus
        self.costs = costs or CostModel()
        #: Optional :class:`repro.faults.plan.FaultEngine`.
        self.faults = faults
        self._vcpus: list[VCpu] = []
        #: domid -> its vCPUs; keeps park/wake O(vCPUs of one domain)
        #: so a 1000-domain fleet doesn't scan the world per wake event.
        self._by_domid: dict[int, list[VCpu]] = {}
        self.switches = 0
        self.stall_events = 0
        self.storm_events = 0
        #: Domains parked in / woken from the idle loop by the
        #: discrete-event engine (:mod:`repro.core.engine`).
        self.parks = 0
        self.wakes = 0
        #: Scheduler faults auto-heal at the next interval; this carries
        #: the recovery count across the call boundary.
        self._pending_recoveries = 0

    def add_vcpu(self, domid: int, weight: int = 256) -> VCpu:
        vcpu = VCpu(len(self._vcpus), domid, weight)
        self._vcpus.append(vcpu)
        self._by_domid.setdefault(domid, []).append(vcpu)
        return vcpu

    def remove_domain(self, domid: int) -> None:
        self._vcpus = [v for v in self._vcpus if v.domid != domid]
        self._by_domid.pop(domid, None)

    @property
    def runnable(self) -> list[VCpu]:
        return [v for v in self._vcpus if v.runnable]

    @property
    def parked(self) -> list[VCpu]:
        return [v for v in self._vcpus if not v.runnable]

    # ------------------------------------------------------------------
    # Park / wake (the discrete-event engine's blocked-vCPU protocol)
    # ------------------------------------------------------------------
    def park_domain(self, domid: int) -> None:
        """All of a domain's vCPUs blocked (idle loop / event wait):
        take them off the run queue until a wake event arrives."""
        changed = False
        for vcpu in self._by_domid.get(domid, ()):
            if vcpu.runnable:
                vcpu.runnable = False
                changed = True
        if changed:
            self.parks += 1

    def wake_domain(self, domid: int) -> None:
        """A wake event landed: the domain's vCPUs re-enter the queue."""
        changed = False
        for vcpu in self._by_domid.get(domid, ()):
            if not vcpu.runnable:
                vcpu.runnable = True
                changed = True
        if changed:
            self.wakes += 1

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def switch_cost_ns(self) -> float:
        """Cost of one vCPU switch.

        A vCPU switch is a full context + address-space switch with a
        complete TLB flush; cache pressure grows gently (logarithmically)
        with the number of runnable vCPUs.
        """
        n = max(1, len(self.runnable))
        pressure = 1.0 + 0.05 * math.log2(n)
        return self.costs.vcpu_switch_ns * pressure

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def schedule_interval(self, interval_ns: float) -> dict[int, float]:
        """Distribute ``interval_ns`` of pCPU time over runnable vCPUs.

        Returns useful (non-overhead) nanoseconds per domain.  Switch
        overhead is deducted once per quantum per pCPU whenever more
        vCPUs are runnable than pCPUs.
        """
        runnable = self.runnable
        if not runnable:
            return {}
        overhead_factor = 1.0
        if self.faults is not None:
            if self._pending_recoveries:
                # Last interval's stall/storm healed by rescheduling.
                for _ in range(self._pending_recoveries):
                    self.faults.record_recovered(fault_sites.VCPU)
                self._pending_recoveries = 0
            fault = self.faults.fire(
                fault_sites.VCPU, runnable=len(runnable)
            )
            if fault is not None:
                if fault.kind == "stall" and len(runnable) > 1:
                    # One vCPU misses this interval (stuck in a long
                    # hypercall / blocked on a dead event channel).
                    victim = runnable[fault.occurrence % len(runnable)]
                    runnable = [v for v in runnable if v is not victim]
                    self.stall_events += 1
                    self._pending_recoveries += 1
                elif fault.kind == "storm":
                    overhead_factor = max(1.0, fault.param or 8.0)
                    self.storm_events += 1
                    self._pending_recoveries += 1
        total_capacity = interval_ns * self.physical_cpus
        oversubscribed = (
            len(runnable) > self.physical_cpus or overhead_factor > 1.0
        )
        if oversubscribed:
            quanta = total_capacity / CREDIT_QUANTUM_NS * overhead_factor
            overhead = quanta * self.switch_cost_ns()
            self.switches += int(quanta)
            total_capacity = max(0.0, total_capacity - overhead)
        total_weight = sum(v.weight for v in runnable)
        shares: dict[int, float] = {}
        for vcpu in runnable:
            share = total_capacity * vcpu.weight / total_weight
            # A vCPU cannot use more than one pCPU's worth of time.
            share = min(share, interval_ns)
            vcpu.scheduled_ns += share
            shares[vcpu.domid] = shares.get(vcpu.domid, 0.0) + share
        return shares
