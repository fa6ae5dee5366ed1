"""Hybrid discrete-event execution core — fleets of X-Containers.

Running one X-Container means interpreting real x86-64 machine code, and
that is exactly what the fleet engine does — for *runnable* domains.  A
quiescent domain, however, sits in the guest idle loop behind a ``hlt``,
and stepping it instruction-by-instruction buys nothing: Fig-8-style
scalability sweeps pay O(domains × ticks) wall-clock for guests that do
no work.  This module is the refactor ROADMAP item 2 asks for:

* **hybrid mode** (default): each ``post_work`` to a parked domain's
  mailbox ring queues a wake kick in a central event queue, and the
  domain is *fast-forwarded* on the simulated clock to the delivery
  tick; global virtual time jumps straight from one wake tick to the
  next;
* **stepped mode** (``hybrid=False``): the oracle.  Global time walks
  the tick grid one tick at a time and every domain — parked or not —
  is visited on every tick, exactly like the pre-engine loop.

Both modes deliver the same wake events, at the same virtual times, in
the same order (domains in spawn order within a tick, events in post
order within a domain), and run the woken guest through the same
interpreter (icache + tracecache) with the same instruction budget — so
simulated results and every exported metric are byte-identical; only
wall-clock differs.  ``tests/core/test_exec_engine.py`` pins the identity
with a Hypothesis property; ``docs/hybrid_engine.md`` documents the
invariants.

The wake-event protocol models a one-producer mailbox ring per domain:
``post_work`` publishes work units (the ring payload) and enqueues a
*kick*; the kick — not the payload — is what the ``SCHED_WAKE`` fault
site can drop or delay, so a dropped kick leaves the units stranded
until the bounded watchdog redelivery re-kicks the domain (the classic
lost-wakeup race, observable by the PR 7 protocol checker).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.arch.assembler import Assembler
from repro.arch.binary import Binary
from repro.arch.registers import Reg
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.faults import sites as fault_sites
from repro.perf.clock import SimClock
from repro.xen.scheduler import CreditScheduler

#: Stack-relative guest mailbox protocol ([rsp+disp8] is the only memory
#: addressing mode the worker needs): the engine writes the pending work
#: count at ``rsp+MAILBOX_DISP`` before waking the guest; the guest
#: publishes its lifetime completed-unit total at ``rsp+COMPLETED_DISP``
#: and re-parks in ``hlt`` when the mailbox reads zero.
MAILBOX_DISP = 0x40
COMPLETED_DISP = 0x48

#: Inner busy-loop iterations the worker burns per work unit.
DEFAULT_SPIN = 24

#: Watchdog redelivery distance (ticks) after a dropped wake kick.
REDELIVER_TICKS = 8

#: Redelivery attempts before a dropped wake is recorded fatal.
MAX_REDELIVERIES = 16

#: Mailbox-ring capacity mirrored into the protocol checker.
WAKE_RING_SIZE = 4096

#: Instruction budget of one wake burst (a runaway guest fails loudly).
BURST_BUDGET = 1_000_000


def build_worker(spin: int = DEFAULT_SPIN) -> Binary:
    """The guest idle-loop worker every fleet domain runs.

    Parks in ``hlt``; on wake it drains the mailbox (``units`` iterations
    of a ``spin``-cycle busy loop each), publishes its completed total,
    and parks again.  A spurious wake (empty mailbox) falls straight back
    into ``hlt``.
    """
    asm = Assembler()
    asm.entry()
    # Only legacy registers (rax..rdi) — the encoder has no REX.B path
    # for r8-r15, so rsi holds the lifetime completed-unit counter.
    asm.xor(Reg.RSI, Reg.RSI)
    asm.store_rsp64(MAILBOX_DISP, Reg.RSI)
    asm.store_rsp64(COMPLETED_DISP, Reg.RSI)
    asm.label("idle")
    asm.hlt()
    asm.load_rsp64(Reg.RBX, MAILBOX_DISP)     # rbx = pending work units
    asm.cmp(Reg.RBX, 0)
    asm.je("idle")                            # spurious wake -> re-park
    asm.label("work")
    asm.mov_imm32(Reg.RCX, spin)
    asm.label("spin")
    asm.dec(Reg.RCX)
    asm.jne("spin")
    asm.inc(Reg.RSI)
    asm.dec(Reg.RBX)
    asm.jne("work")
    asm.store_rsp64(MAILBOX_DISP, Reg.RBX)    # mailbox consumed (zero)
    asm.store_rsp64(COMPLETED_DISP, Reg.RSI)
    asm.jmp("idle")
    return asm.build("fleet-worker")


@dataclass
class EngineStats:
    """Engine counters.

    Everything here except :attr:`polls` is *engine-invariant*: hybrid
    and stepped runs produce identical values (the byte-identity
    contract), so all of it is safe to export through telemetry.
    ``polls`` counts host-side domain visits — the wall-clock cost the
    hybrid mode exists to eliminate — and is deliberately NOT exported.
    """

    #: Wake kicks that landed on a domain (dead targets excluded).
    wake_events: int = 0
    #: ``post_work`` calls (mailbox-ring publishes).
    posts: int = 0
    #: Work units published across all posts.
    units_posted: int = 0
    #: Kicks lost to an injected ``SCHED_WAKE`` drop.
    drops: int = 0
    #: Kicks deferred by an injected ``SCHED_WAKE`` delay.
    delays: int = 0
    #: Watchdog re-kicks scheduled after drops.
    redeliveries: int = 0
    #: Kicks that found an empty mailbox (coalesced by an earlier wake).
    spurious_wakes: int = 0
    #: Kicks addressed to an already-retired domain.
    dead_wakes: int = 0
    #: Dropped kicks abandoned after :data:`MAX_REDELIVERIES`.
    abandoned: int = 0
    #: Simulated idle nanoseconds skipped (domain-clock jump from park
    #: to wake) instead of being stepped through the interpreter.
    fastforward_ns: float = 0.0
    #: Guest instructions retired across all wake bursts.
    instructions: int = 0
    #: Wake bursts executed (one per landed, non-spurious kick).
    bursts: int = 0
    #: Host-side domain visits (stepped mode scans every domain every
    #: tick; hybrid only touches woken domains).  Not exported.
    polls: int = 0


class ExecDomain:
    """One fleet domain: a real :class:`XContainer` running the worker."""

    def __init__(self, domid: int, name: str, container: XContainer) -> None:
        self.domid = domid
        self.name = name
        self.container = container
        self.cpu = container.cpu
        self.clock = container.clock
        self.parked = False
        self.dead = False
        #: Work units published to the mailbox ring but not yet consumed.
        self.pending_units = 0
        #: Posts backing those units (protocol-checker slot accounting).
        self.pending_posts = 0
        self.mailbox_addr = 0
        self.result_addr = 0
        self.ring_name = ""

    @property
    def completed(self) -> int:
        """Lifetime work units the guest has published as done."""
        return self.container.memory.read_u64(self.result_addr)


class ExecutionEngine:
    """The hybrid discrete-event fleet executor.

    One engine owns N domains, a central wake-event queue, and the
    global virtual clock (tick-quantized, ``tick_ns`` grid).  The
    :data:`hybrid` toggle selects fast-forwarding vs the stepped oracle;
    nothing else differs between the two modes.
    """

    def __init__(
        self,
        hybrid: bool = True,
        tick_ns: float = 1e6,
        scheduler: CreditScheduler | None = None,
        clock: SimClock | None = None,
        faults=None,
        sanitizer=None,
        spin: int = DEFAULT_SPIN,
    ) -> None:
        if tick_ns <= 0 or tick_ns != int(tick_ns):
            raise ValueError(f"tick_ns must be a positive integer: {tick_ns}")
        self.hybrid = hybrid
        self.tick_ns = float(tick_ns)
        self.scheduler = scheduler or CreditScheduler(physical_cpus=16)
        #: Global virtual time (always a tick multiple; exact in float).
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.faults.plan.FaultEngine` (SCHED_WAKE).
        self.faults = faults
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`.
        self.sanitizer = sanitizer
        self.stats = EngineStats()
        self._now = 0.0
        self._worker = build_worker(spin)
        self._domains: dict[int, ExecDomain] = {}
        self._order: list[int] = []
        #: (due_ns, seq, domid, attempts, delayed) — wake kicks only;
        #: the payload (work units) lives in the domain's mailbox ring.
        self._heap: list[tuple[float, int, int, int, bool]] = []
        self._seq = 0
        self.n_parked = 0

    # ------------------------------------------------------------------
    # Fleet construction
    # ------------------------------------------------------------------
    @property
    def n_domains(self) -> int:
        return len(self._order)

    def spawn(self, name: str | None = None, weight: int = 256) -> ExecDomain:
        """Create a domain, boot it into the parked idle loop."""
        domid = len(self._order)
        name = name if name is not None else f"dom{domid}"
        container = XContainer(CountingServices(), name=name)
        container.load(self._worker)
        dom = ExecDomain(domid, name, container)
        # Boot burst: entry -> first hlt (a handful of instructions).
        result = container.run_loaded(self._worker.entry, max_instructions=64)
        self.stats.instructions += result.instructions
        dom.mailbox_addr = container.cpu.regs.rsp + MAILBOX_DISP
        dom.result_addr = container.cpu.regs.rsp + COMPLETED_DISP
        # A late-joining domain starts life at the current virtual time;
        # only post-spawn idle gaps count as fast-forwarded.
        dom.clock.advance_to(self._now)
        self.scheduler.add_vcpu(domid, weight)
        self._park(dom)
        if self.sanitizer is not None:
            dom.ring_name = self.sanitizer.ring_register(
                f"wake:{name}", WAKE_RING_SIZE, 8
            )
        self._domains[domid] = dom
        self._order.append(domid)
        return dom

    def domain(self, domid: int) -> ExecDomain:
        return self._domains[domid]

    def retire(self, domid: int) -> None:
        """Destroy a domain; queued kicks to it become dead wakes."""
        dom = self._domains[domid]
        if dom.dead:
            return
        if dom.parked:
            dom.parked = False
            self.n_parked -= 1
        dom.dead = True
        dom.pending_units = 0
        dom.pending_posts = 0
        self.scheduler.remove_domain(domid)
        if self.sanitizer is not None:
            self.sanitizer.ring_quiesce(dom.ring_name)

    # ------------------------------------------------------------------
    # Wake-event protocol
    # ------------------------------------------------------------------
    def _next_tick(self, at_ns: float) -> float:
        """First tick boundary strictly after ``max(at_ns, now)``."""
        at = max(at_ns, self._now)
        return (at // self.tick_ns + 1.0) * self.tick_ns

    def _enqueue(
        self, domid: int, due: float, attempts: int = 0, delayed: bool = False
    ) -> None:
        heapq.heappush(self._heap, (due, self._seq, domid, attempts, delayed))
        self._seq += 1

    def post_work(self, domid: int, units: int, at_ns: float) -> None:
        """Publish ``units`` to a domain's mailbox ring and kick it.

        The units land in the ring immediately (they survive a dropped
        kick); delivery of the *kick* is what wakes the guest, at the
        first tick boundary after ``at_ns``.
        """
        if units <= 0:
            raise ValueError(f"units must be positive: {units}")
        dom = self._domains[domid]
        if dom.dead:
            self.stats.dead_wakes += 1
            return
        dom.pending_units += units
        dom.pending_posts += 1
        self.stats.posts += 1
        self.stats.units_posted += units
        if self.sanitizer is not None:
            self.sanitizer.ring_publish(dom.ring_name, "engine")
        self._enqueue(domid, self._next_tick(at_ns))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, t_end_ns: float) -> None:
        """Advance global virtual time to ``t_end_ns`` (a tick multiple),
        delivering every wake event due on the way."""
        if t_end_ns < self._now:
            raise ValueError(
                f"cannot run backwards: {t_end_ns} < {self._now}"
            )
        ticks = (t_end_ns - self._now) / self.tick_ns
        if ticks != int(ticks):
            raise ValueError(
                f"t_end must sit on the {self.tick_ns:g} ns tick grid: "
                f"{t_end_ns}"
            )
        if self.hybrid:
            self._run_hybrid(t_end_ns)
        else:
            self._run_stepped(t_end_ns)

    def run_to_quiescence(self) -> None:
        """Drain the event queue (redeliveries included) completely."""
        while self._heap:
            horizon = self._heap[0][0]
            for entry in self._heap:
                if entry[0] > horizon:
                    horizon = entry[0]
            self.run_until(horizon)

    def _run_stepped(self, t_end: float) -> None:
        """The oracle loop: every domain is visited on every tick."""
        t = self._now
        while t < t_end:
            t += self.tick_ns
            self._now = t
            self.clock.advance_to(t)
            batch = self._pop_due(t)
            for domid in self._order:
                # The oracle's per-tick visit: every domain, parked or
                # not, is looked at — the O(domains × ticks) wall cost
                # the hybrid mode exists to skip.
                dom = self._domains[domid]
                self.stats.polls += 1
                events = batch.get(domid)
                if events is not None:
                    for event in events:
                        self._deliver(dom, t, event)

    def _run_hybrid(self, t_end: float) -> None:
        """Fast-forward: jump straight between wake ticks."""
        while self._heap and self._heap[0][0] <= t_end:
            t = self._heap[0][0]
            if t > self._now:
                self._now = t
                self.clock.advance_to(t)
            batch = self._pop_due(t)
            for domid in self._order:
                if domid in batch:
                    dom = self._domains[domid]
                    self.stats.polls += 1
                    for event in batch[domid]:
                        self._deliver(dom, t, event)
        if t_end > self._now:
            self._now = t_end
            self.clock.advance_to(t_end)

    def _pop_due(
        self, t: float
    ) -> dict[int, list[tuple[float, int, int, int, bool]]]:
        """Pop every event due at or before ``t``, grouped per domain in
        pop (= post) order."""
        batch: dict[int, list[tuple[float, int, int, int, bool]]] = {}
        while self._heap and self._heap[0][0] <= t:
            event = heapq.heappop(self._heap)
            batch.setdefault(event[2], []).append(event)
        return batch

    def _deliver(
        self, dom: ExecDomain, t: float, event: tuple[float, int, int, int, bool]
    ) -> None:
        """One wake-kick delivery attempt — the SCHED_WAKE fault site."""
        _, _, domid, attempts, delayed = event
        if dom.dead:
            self.stats.dead_wakes += 1
            return
        if self.faults is not None:
            fault = self.faults.fire(fault_sites.SCHED_WAKE, domid=domid)
            if fault is not None:
                if fault.kind == "drop":
                    self.stats.drops += 1
                    if self.sanitizer is not None:
                        self.sanitizer.ring_kick_lost(dom.ring_name)
                    if attempts + 1 >= MAX_REDELIVERIES:
                        self.stats.abandoned += 1
                        self.faults.record_fatal(fault_sites.SCHED_WAKE)
                        return
                    # Bounded watchdog: re-kick a few ticks out.
                    self.faults.record_retry(fault_sites.SCHED_WAKE)
                    self.stats.redeliveries += 1
                    self._enqueue(
                        domid,
                        self._next_tick(t + REDELIVER_TICKS * self.tick_ns - 1),
                        attempts + 1,
                        delayed,
                    )
                    return
                if fault.kind == "delay":
                    self.stats.delays += 1
                    self._enqueue(
                        domid,
                        self._next_tick(t + max(0.0, fault.param)),
                        attempts,
                        True,
                    )
                    return
        if (attempts or delayed) and self.faults is not None:
            # A previously dropped or delayed kick finally landed.
            self.faults.record_recovered(fault_sites.SCHED_WAKE)
        self.stats.wake_events += 1
        units = dom.pending_units
        posts = dom.pending_posts
        dom.pending_units = 0
        dom.pending_posts = 0
        if self.sanitizer is not None:
            self.sanitizer.ring_kick(dom.ring_name, "engine")
        if units == 0:
            self.stats.spurious_wakes += 1
        dom.container.memory.write_u64(dom.mailbox_addr, units)
        self._wake(dom, t)
        retired = dom.cpu.run(BURST_BUDGET)
        self.stats.instructions += retired
        self.stats.bursts += 1
        if self.sanitizer is not None and posts:
            self.sanitizer.ring_reap(dom.ring_name, dom.name, posts)
        self._park(dom)

    def _wake(self, dom: ExecDomain, t: float) -> None:
        """Unpark: fast-forward the domain clock over the idle gap and
        resume the vCPU past its ``hlt``."""
        gap = t - dom.clock.now_ns
        if gap > 0:
            self.stats.fastforward_ns += gap
            dom.clock.advance_to(t)
        dom.container.xkernel.resume_from_halt(dom.cpu)
        if dom.parked:
            dom.parked = False
            self.n_parked -= 1
        self.scheduler.wake_domain(dom.domid)

    def _park(self, dom: ExecDomain) -> None:
        """The guest hit ``hlt``: all vCPUs blocked, domain parks."""
        if not dom.cpu.halted:
            raise RuntimeError(
                f"domain {dom.name} did not re-enter the idle loop"
            )
        if not dom.parked:
            dom.parked = True
            self.n_parked += 1
        dom.container.xkernel.note_parked(dom.cpu)
        self.scheduler.park_domain(dom.domid)

    # ------------------------------------------------------------------
    # Results & telemetry
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        return self._now

    def total_completed(self) -> int:
        total = 0
        for domid in self._order:
            dom = self._domains[domid]
            if not dom.dead:
                total += dom.completed
        return total

    def pending_total(self) -> int:
        total = 0
        for domid in self._order:
            total += self._domains[domid].pending_units
        return total

    def queued_wakes(self, domid: int | None = None) -> int:
        """Wake kicks currently queued (optionally for one domain).

        The wake-queue consistency invariant: a live domain with
        published-but-unconsumed mailbox units must have at least one
        kick (original, delayed, or watchdog redelivery) still queued,
        or its work is stranded — the lost-wakeup bug class the
        SCHED_WAKE site exists to exercise.
        """
        if domid is None:
            return len(self._heap)
        return sum(1 for event in self._heap if event[2] == domid)

    def snapshot(self) -> dict:
        """Deterministic, engine-invariant state summary.

        Byte-equal between hybrid and stepped runs of the same schedule
        — the identity oracle the Hypothesis property compares.
        """
        stats = self.stats
        return {
            "now_ns": self._now,
            "domains": [
                {
                    "domid": dom.domid,
                    "name": dom.name,
                    "dead": dom.dead,
                    "parked": dom.parked,
                    "completed": 0 if dom.dead else dom.completed,
                    "pending_units": dom.pending_units,
                    "instructions": dom.cpu.instructions_retired,
                    "clock_ns": dom.clock.now_ns,
                }
                for dom in (self._domains[d] for d in self._order)
            ],
            "stats": {
                "wake_events": stats.wake_events,
                "posts": stats.posts,
                "units_posted": stats.units_posted,
                "drops": stats.drops,
                "delays": stats.delays,
                "redeliveries": stats.redeliveries,
                "spurious_wakes": stats.spurious_wakes,
                "dead_wakes": stats.dead_wakes,
                "abandoned": stats.abandoned,
                "fastforward_ns": stats.fastforward_ns,
                "instructions": stats.instructions,
                "bursts": stats.bursts,
            },
        }
