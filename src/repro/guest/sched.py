"""Process scheduler model (CFS-style runqueue).

Two cost effects matter for the paper's figures:

* per-switch cost grows with runqueue size (rbtree depth + cache/TLB
  pressure) — this is what makes Docker's *flat* scheduling of 4N
  processes degrade faster than hierarchical scheduling in Fig 8;
* switching between processes that share kernel global mappings (X-LibOS,
  §4.3) skips the kernel-range TLB refill that PV guests pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.guest.process import Process, ProcessState
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

#: CFS target scheduling latency: the per-task quantum before it is
#: spread over an oversubscribed runqueue.
CFS_QUANTUM_NS = 6e6


@dataclass
class SwitchBreakdown:
    """The five terms of one switch's cost; :meth:`RunQueue.switch_cost_ns`
    is their sum, in this order."""

    base_ns: float
    queue_ns: float
    tlb_ns: float
    mmu_ns: float
    cache_ns: float = 0.0


class RunQueue:
    """One kernel's runqueue over all its runnable processes."""

    def __init__(
        self,
        costs: CostModel | None = None,
        kpti: bool = False,
        global_kernel_mappings: bool = False,
        mmu_hypercall_ns: float = 0.0,
    ) -> None:
        self.costs = costs or CostModel()
        self.kpti = kpti
        #: §4.3: true for the X-LibOS (kernel entries survive the switch).
        self.global_kernel_mappings = global_kernel_mappings
        #: >0 when page-table installs go through the hypervisor
        #: (X-Containers and PV guests).
        self.mmu_hypercall_ns = mmu_hypercall_ns
        self._procs: list[Process] = []
        self.switches = 0

    def add(self, proc: Process) -> None:
        self._procs.append(proc)

    def remove(self, proc: Process) -> None:
        self._procs.remove(proc)

    @property
    def nr_running(self) -> int:
        zombie = ProcessState.ZOMBIE
        return sum(1 for p in self._procs if p.state is not zombie)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def switch_cost(self, nr_running: int | None = None) -> SwitchBreakdown:
        """Cost of one context switch with the current queue depth."""
        n = nr_running if nr_running is not None else max(1, self.nr_running)
        base = self.costs.ctx_switch_process_ns
        if self.kpti:
            base += self.costs.ctx_switch_kpti_extra_ns
        # rbtree pick grows with queue depth.
        queue = base * 0.12 * math.log2(max(2, n))
        tlb = self.costs.tlb_flush_ns
        if not self.global_kernel_mappings:
            tlb += self.costs.tlb_kernel_refill_ns
        mmu = self.mmu_hypercall_ns
        # Working-set eviction: every runnable task's footprint competes
        # for the same caches (the Fig 8 flat-scheduling penalty).
        cache = self.costs.cache_pollution_per_task_ns * n
        return SwitchBreakdown(base, queue, tlb, mmu, cache)

    def switch_cost_ns(self, nr_running: int | None = None) -> float:
        """The sum of :meth:`switch_cost`'s terms, in the same order,
        without building the breakdown (every context switch asks)."""
        n = nr_running if nr_running is not None else max(1, self.nr_running)
        costs = self.costs
        base = costs.ctx_switch_process_ns
        if self.kpti:
            base += costs.ctx_switch_kpti_extra_ns
        tlb = costs.tlb_flush_ns
        if not self.global_kernel_mappings:
            tlb += costs.tlb_kernel_refill_ns
        return (
            base
            + base * 0.12 * math.log2(max(2, n))
            + tlb
            + self.mmu_hypercall_ns
            + costs.cache_pollution_per_task_ns * n
        )

    def context_switch(self, clock: SimClock) -> float:
        """Perform (account) one switch; returns its cost."""
        cost = self.switch_cost_ns()
        self.switches += 1
        clock.advance(cost)
        return cost

    # ------------------------------------------------------------------
    # Throughput sharing (used by the scalability experiment)
    # ------------------------------------------------------------------
    def effective_capacity(
        self,
        interval_ns: float,
        cpus: int,
        nr_running: int | None = None,
    ) -> float:
        """CPU nanoseconds actually available to processes over
        ``interval_ns`` on ``cpus`` cores, after switch overhead.

        CFS spreads its scheduling latency over all runnable tasks, so the
        per-task quantum shrinks as the runqueue grows (down to a
        min-granularity floor) while each switch simultaneously gets more
        expensive (cache pollution).  Overhead therefore grows
        superlinearly with oversubscription — the Fig 8 effect.
        """
        n = nr_running if nr_running is not None else self.nr_running
        total = interval_ns * cpus
        if n <= cpus or n == 0:
            return total
        effective_quantum = max(CFS_QUANTUM_NS * cpus / n, 0.1e6)
        switches = total / effective_quantum
        overhead = switches * self.switch_cost_ns(n)
        return max(0.0, total - overhead)
