"""The Xen hypercall table.

The paper's isolation argument rests on the X-Kernel exposing "a small
number of well-documented system calls" (hypercalls) compared to Linux's
~350 syscalls.  This module enumerates the PV hypercalls the substrate
models, with relative costs, and keeps per-domain counters so experiments
can show the attack-surface difference quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

#: Relative weight of each hypercall against the base hypercall cost.
#: (mmu operations validate page-table entries; iret/event ops are cheap.)
HYPERCALL_WEIGHTS: dict[str, float] = {
    "set_trap_table": 1.0,
    "mmu_update": 1.5,
    "set_gdt": 1.2,
    "stack_switch": 0.6,
    "fpu_taskswitch": 0.4,
    "update_descriptor": 1.0,
    "memory_op": 1.3,
    "multicall": 0.8,
    "update_va_mapping": 1.4,
    "xen_version": 0.3,
    "console_io": 0.8,
    "grant_table_op": 1.2,
    "sched_op": 0.7,
    "event_channel_op": 0.7,
    "physdev_op": 1.0,
    "iret": 0.9,
    "set_segment_base": 0.5,
    "mmuext_op": 1.5,
    "domctl": 2.0,
}

#: Linux exposes ~350 syscalls; Xen ~40 hypercalls — the TCB/attack-surface
#: comparison of §3.4.
LINUX_SYSCALL_SURFACE = 350
XEN_HYPERCALL_SURFACE = len(HYPERCALL_WEIGHTS)


class UnknownHypercall(Exception):
    pass


@dataclass
class HypercallTable:
    """Dispatches and accounts hypercalls for one hypervisor instance."""

    costs: CostModel = field(default_factory=CostModel)
    clock: SimClock = field(default_factory=SimClock)
    counts: dict[str, int] = field(default_factory=dict)

    def call(self, name: str, batch: int = 1) -> float:
        """Execute ``batch`` invocations of hypercall ``name``.

        Returns the simulated cost in nanoseconds (also charged to the
        clock).
        """
        weight = HYPERCALL_WEIGHTS.get(name)
        if weight is None:
            raise UnknownHypercall(name)
        if batch < 1:
            raise ValueError(f"batch must be >= 1: {batch}")
        self.counts[name] = self.counts.get(name, 0) + batch
        cost = self.costs.hypercall_ns * weight * batch
        self.clock.advance(cost)
        return cost

    @property
    def total_calls(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def attack_surface_ratio() -> float:
        """How much smaller the exokernel interface is than Linux's."""
        return LINUX_SYSCALL_SURFACE / XEN_HYPERCALL_SURFACE
