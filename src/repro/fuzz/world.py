"""The whole-stack world the stateful fuzzer drives.

One :class:`FuzzWorld` owns every substrate the chaos catalog exercises
— hypervisor + toolstack domain lifecycle, live migration, Remus
replication, ABOM patching of a running guest, split net/blk drivers
over real grant and event tables, and a *pair* of discrete-event fleet
engines (hybrid and stepped) driven in lockstep as their own identity
oracle.  Steps (:mod:`repro.fuzz.steps`) are applied one at a time and
the full invariant set (:data:`INVARIANTS`) is checked after every one;
a violation raises :class:`FuzzFailure` carrying the exact step prefix
that produced it.

Determinism contract: a world is a pure function of ``(seed, steps)``.
Nothing here reads wall clocks or unseeded randomness, payload bytes are
derived from step args, and fault specs armed at runtime fork their RNG
streams from the engine seed by arrival order — so a serialized step
sequence replays byte-identically (trace included), which is what makes
shrunk failures promotable to catalog scenarios.

Fault budgets: every *failing* fault kind (backend kills, lost notifies,
grant-map failures, spawn timeouts, wake drops...) has a hard budget
below the relevant retry/watchdog cap, so injected chaos is always
survivable — an invariant violation means a real bug, never an exhausted
retry loop.  Non-failing kinds (stalls, delays, dirty bursts) may use
seeded probability triggers; failing kinds are occurrence-triggered so
their injection count is exact.

``defect`` hooks deliberately break the world (``blk-lost-write`` drops
a committed sector write; ``fleet-skew`` desynchronizes the dual
engines) — the only way to demonstrate, test, and regression-pin the
shrink/replay pipeline on a stack whose correct behavior is to survive
everything the fuzzer throws at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.faults import sites
from repro.faults.chaos import InvariantViolation
from repro.faults.plan import (
    Every,
    FaultEngine,
    FaultPlan,
    FaultSpec,
    Probability,
    Trigger,
)
from repro.faults.retry import RetryPolicy
from repro.fuzz.steps import Step
from repro.obs.registry import Registry
from repro.perf.clock import SimClock
from repro.sanitize.suite import SanitizerSuite

#: Defect hooks ``repro fuzz --defect`` can switch on.
DEFECTS = ("blk-lost-write", "fleet-skew")

#: Fleet engine tick (both engines share it; posts land on this grid).
FLEET_TICK_NS = 1e6

#: Virtual disk size backing the blk driver.
BLK_CAPACITY_SECTORS = 8192

SECTOR_SIZE = 512


class FuzzFailure(InvariantViolation):
    """An invariant broke; carries the step prefix that reproduces it."""

    def __init__(self, message: str, steps: tuple[Step, ...]) -> None:
        super().__init__(message)
        self.steps = steps


@dataclass(frozen=True)
class MenuEntry:
    """One armable fault: site + kind with its survivability bounds."""

    site: str
    kind: str
    param: float = 0.0
    #: Max injections ever armed across the run (None = unbounded; only
    #: allowed for kinds that cannot fail an operation).
    budget: int | None = None
    #: Whether a seeded probability trigger is allowed (non-failing
    #: kinds only — budgets cannot bound a probability spec).
    prob_ok: bool = False


#: The armable fault menu.  Budgets sit strictly below the retry caps:
#: the worst-case net path (3 kills + 2 grant failures + 3 lost
#: notifies = 8 failures) stays under the drivers' 16-attempt retry;
#: spawn timeouts (2) stay under the toolstack's 4 attempts; wake drops
#: (8) stay under the engine watchdog's 16 redeliveries.
FAULT_MENU: dict[str, MenuEntry] = {
    "net-kill": MenuEntry(sites.NET_BACKEND, "kill", budget=3),
    "net-stall": MenuEntry(sites.NET_RING, "stall", param=2.0, prob_ok=True),
    "blk-kill": MenuEntry(sites.BLK_BACKEND, "kill", budget=3),
    "blk-stall": MenuEntry(
        sites.BLK_BACKEND, "stall", param=2.0, prob_ok=True
    ),
    "notify-drop": MenuEntry(sites.EVENT_NOTIFY, "drop", budget=3),
    "notify-delay": MenuEntry(
        sites.EVENT_NOTIFY, "delay", param=4000.0, prob_ok=True
    ),
    "grant-map-fail": MenuEntry(sites.GRANT_MAP, "fail", budget=2),
    "spawn-timeout": MenuEntry(sites.TOOLSTACK_SPAWN, "timeout", budget=2),
    "remus-ack-fail": MenuEntry(sites.REMUS_ACK, "fail", budget=3),
    "migrate-abort": MenuEntry(sites.MIGRATION_ROUND, "abort", budget=4),
    "migrate-dirty": MenuEntry(
        sites.MIGRATION_ROUND, "dirty", param=0.0, prob_ok=True
    ),
    "abom-contend": MenuEntry(sites.ABOM_CMPXCHG, "contend", budget=2),
    "wake-drop": MenuEntry(sites.SCHED_WAKE, "drop", budget=8),
    "wake-delay": MenuEntry(
        sites.SCHED_WAKE, "delay", param=3e6, prob_ok=True
    ),
}

#: Menu entries that arm the fleet engines instead of the main engine.
_FLEET_SITES = (sites.SCHED_WAKE,)

#: The invariant catalog (checked after every step; docs/stateful_fuzzing.md).
INVARIANTS = (
    "blk-committed-bytes: every committed sector reads back byte-identical",
    "net-ring-balance: requests == responses and bytes moved match the "
    "shadow ledger",
    "migration-source-safety: every live domain stays runnable (an "
    "aborted migration never strands its source)",
    "remus-output-commit: no packet escapes before its epoch is "
    "acknowledged",
    "telemetry-conservation: obs registry values equal the substrate "
    "counters they are bound to",
    "grant-balance: hypervisor active grants == grant-sanitizer live "
    "refs, with zero sanitizer findings",
    "wake-queue-consistency: pending mailbox units always have a queued "
    "kick; park accounting stays in bounds",
    "dual-engine-identity: hybrid and stepped fleet snapshots are "
    "byte-identical",
    "abom-patch-complete: every patch run ends fully patched with no "
    "unrecognized sites",
)


class FuzzWorld:
    """The executable target: applies :class:`Step` values, checks
    invariants, and renders a deterministic trace."""

    def __init__(
        self,
        seed: int | str = 0,
        faults: FaultEngine | None = None,
        clock: SimClock | None = None,
        sanitizers: Any = None,
        defect: str | None = None,
    ) -> None:
        from repro.xen.blkdev import BlockStore, SplitBlockDriver
        from repro.xen.drivers import SplitNetDriver
        from repro.xen.events import EventChannelTable
        from repro.xen.hypervisor import DomainKind, XenHypervisor
        from repro.xen.remus import RemusReplicator
        from repro.xen.toolstack import Toolstack

        if defect is not None and defect not in DEFECTS:
            known = ", ".join(DEFECTS)
            raise ValueError(f"unknown defect {defect!r} (known: {known})")
        self.seed = seed
        self.defect = defect
        self.clock = clock if clock is not None else SimClock()
        #: Main fault engine (every site except SCHED_WAKE).  When the
        #: world runs inside a chaos scenario this is the scenario
        #: context's engine, so injections land in the chaos report.
        self.faults = (
            faults
            if faults is not None
            else FaultPlan((), f"{seed}:faults").compile(self.clock)
        )
        self.sanitizers = (
            sanitizers if sanitizers is not None else SanitizerSuite()
        )
        # -- hypervisor + lifecycle ------------------------------------
        self.xen = XenHypervisor(clock=self.clock)
        self.xen.grants.faults = self.faults
        self.xen.grants.sanitizer = self.sanitizers
        self.toolstack = Toolstack(self.xen, faults=self.faults)
        #: Fuzz-spawned guests (eligible for destroy/migrate).  The net
        #: guest/backend pair below is deliberately NOT in this list —
        #: they hold the ring grant for the whole run.
        self.domains: list[Any] = []
        # -- split drivers ---------------------------------------------
        self.events = EventChannelTable(
            self.xen.costs, self.clock,
            faults=self.faults, sanitizer=self.sanitizers,
        )
        self._net_guest = self.xen.create_domain("fuzz-net-guest")
        self._net_backend = self.xen.create_domain(
            "fuzz-netback", DomainKind.DRIVER
        )
        io_retry = RetryPolicy(max_attempts=16)
        self.net = SplitNetDriver(
            self._net_guest, self._net_backend, self.xen.grants,
            self.events, self.xen.costs, self.clock,
            faults=self.faults, retry=io_retry, sanitizer=self.sanitizers,
        )
        self.store = BlockStore(BLK_CAPACITY_SECTORS)
        self.blk = SplitBlockDriver(
            self.store, self.xen.costs, self.clock,
            faults=self.faults, retry=io_retry, sanitizer=self.sanitizers,
        )
        # -- Remus ------------------------------------------------------
        self.remus = RemusReplicator(epoch_ms=25.0, faults=self.faults)
        self._epoch_i = 0
        # -- dual fleet engines ----------------------------------------
        # Identically-seeded fault engines: SCHED_WAKE specs are armed
        # on both in the same order, so their per-spec RNG streams (and
        # therefore every drop/delay decision) are identical — the
        # precondition for the hybrid/stepped identity oracle.
        self.fleet_faults = tuple(
            FaultPlan((), f"{seed}:fleet").compile()
            for _ in range(2)
        )
        self.fleets = self._build_fleets()
        self.fleet_hybrid, self.fleet_stepped = self.fleets
        # -- telemetry --------------------------------------------------
        from repro.obs import wire

        self.registry = Registry()
        wire.wire_ring_driver(self.registry, "net", self.net)
        wire.wire_ring_driver(self.registry, "blk", self.blk)
        wire.wire_faults(self.registry, self.faults)
        # Only the hybrid fleet is bound (the metrics carry no engine
        # label; binding both would double-register the sched_* names).
        wire.wire_exec_engine(self.registry, self.fleet_hybrid)
        # -- bookkeeping ------------------------------------------------
        self._blk_shadow: dict[int, bytes] = {}
        self._net_requests = 0
        self._net_bytes = 0
        self._budget = {
            name: entry.budget
            for name, entry in FAULT_MENU.items()
            if entry.budget is not None
        }
        self.counts = {
            "spawns": 0, "destroys": 0, "migrations_converged": 0,
            "migrations_aborted": 0, "remus_epochs": 0,
            "remus_failovers": 0, "abom_patches": 0,
        }
        self.steps: list[Step] = []
        self.trace: list[str] = []
        self.failed = False
        self.finalized = False

    def _build_fleets(self) -> tuple[Any, ...]:
        from repro.core.engine import ExecutionEngine

        return tuple(
            ExecutionEngine(
                hybrid=hybrid,
                tick_ns=FLEET_TICK_NS,
                clock=engine_faults.clock,
                faults=engine_faults,
                sanitizer=self.sanitizers,
            )
            for hybrid, engine_faults in zip(
                (True, False), self.fleet_faults
            )
        )

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def apply(self, one: Step) -> str:
        """Execute one step, append it to the trace, check invariants.

        Returns the deterministic trace note.  Raises
        :class:`FuzzFailure` (with the full step prefix) on any
        invariant violation.
        """
        if self.failed:
            raise RuntimeError("world already failed; build a fresh one")
        handler = getattr(self, f"_op_{one.op}")
        note: str = handler(dict(one.args))
        self.steps.append(one)
        self.trace.append(
            f"{len(self.steps):03d} {one.describe()} -> {note}"
        )
        self.check_invariants()
        return note

    def _fail(self, message: str) -> None:
        self.failed = True
        self.trace.append(f"*** INVARIANT VIOLATED: {message}")
        raise FuzzFailure(message, tuple(self.steps))

    # -- domain lifecycle ----------------------------------------------
    def _op_spawn(self, args: dict[str, Any]) -> str:
        name = f"fuzz-{self.counts['spawns']}"
        creation = self.toolstack.create(
            name,
            memory_mb=int(args["memory_mb"]),
            full_vm_boot=not bool(args["lightvm"]),
        )
        self.domains.append(creation.domain)
        self.counts["spawns"] += 1
        return f"domid={creation.domain.domid} live={len(self.domains)}"

    def _op_destroy(self, args: dict[str, Any]) -> str:
        if not self.domains:
            return "no-op (no fuzz domains)"
        dom = self.domains.pop(int(args["index"]) % len(self.domains))
        self.toolstack.destroy(dom.domid)
        self.counts["destroys"] += 1
        return f"domid={dom.domid} live={len(self.domains)}"

    def _op_migrate(self, args: dict[str, Any]) -> str:
        from repro.xen.migration import LiveMigration, MigrationSession

        if not self.domains:
            return "no-op (no fuzz domains)"
        dom = self.domains[int(args["index"]) % len(self.domains)]
        migration = LiveMigration(
            memory_mb=dom.memory_mb,
            dirty_rate_pages_s=float(int(args["dirty_rate"])),
            downtime_budget_ms=float(int(args["downtime_ms"])),
            faults=self.faults,
            abort_on_non_convergence=True,
        )
        report = MigrationSession(dom, migration).run()
        if report.aborted:
            self.counts["migrations_aborted"] += 1
            return f"domid={dom.domid} aborted rounds={report.rounds}"
        # Converged: the destination owns the domain now; reclaim the
        # quiesced source copy.
        self.domains.remove(dom)
        self.xen.destroy_domain(dom.domid)
        self.counts["migrations_converged"] += 1
        return f"domid={dom.domid} converged rounds={report.rounds}"

    # -- Remus ----------------------------------------------------------
    def _op_remus_epoch(self, args: dict[str, Any]) -> str:
        from repro.xen.remus import Epoch

        self.remus.run_epoch(
            Epoch(
                self._epoch_i,
                int(args["dirty_pages"]),
                int(args["packets"]),
            )
        )
        self._epoch_i += 1
        self.counts["remus_epochs"] += 1
        return (
            f"epoch={self._epoch_i - 1} "
            f"buffered={self.remus.buffered_packets} "
            f"backup={self.remus.backup_epoch}"
        )

    def _op_remus_failover(self, args: dict[str, Any]) -> str:
        from repro.xen.remus import RemusReplicator

        if self.remus.backup_epoch < 0:
            return "no-op (backup has no checkpoint)"
        discarded = self.remus.buffered_packets
        resume = self.remus.fail_primary()
        if not self.remus.output_commit_invariant():
            self._fail(
                "remus-output-commit: failover accounting does not balance"
            )
        # The backup is the new primary: epoch indices stay monotonic.
        self.remus = RemusReplicator(epoch_ms=25.0, faults=self.faults)
        self.counts["remus_failovers"] += 1
        return f"resumed-from={resume} discarded={discarded}"

    # -- ABOM ------------------------------------------------------------
    def _op_abom_patch(self, args: dict[str, Any]) -> str:
        from repro.arch import Assembler, Reg
        from repro.core import CountingServices, XContainer

        xc = XContainer(
            CountingServices(results={}), clock=self.clock,
            faults=self.faults, sanitizers=self.sanitizers,
        )
        # One 7-byte site and one 9-byte site, executed ``rounds`` times
        # each; with the abom-contend budget (2) below ``rounds`` (>= 4
        # from the rule strategy), both sites must end up patched.
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, max(4, int(args["rounds"])))
        asm.label("loop")
        asm.syscall_site(39, style="mov_eax")
        asm.syscall_site(15, style="mov_rax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        stats = xc.abom_stats
        if stats.total_patches != 2 or stats.unrecognized_sites != 0:
            self._fail(
                "abom-patch-complete: "
                f"{stats.total_patches}/2 sites patched, "
                f"{stats.unrecognized_sites} unrecognized"
            )
        self.counts["abom_patches"] += 1
        return (
            f"patches={stats.total_patches} "
            f"contentions={stats.cmpxchg_contentions}"
        )

    # -- split-driver I/O ------------------------------------------------
    def _op_net_burst(self, args: dict[str, Any]) -> str:
        count = max(1, int(args["count"]))
        size = int(args["size"])
        sizes = tuple(size + i for i in range(count))
        if bool(args["batched"]):
            self.net.transmit_batch(sizes)
        else:
            for nbytes in sizes:
                self.net.transmit(nbytes)
        self._net_requests += count
        self._net_bytes += sum(sizes)
        return f"requests={self._net_requests} bytes={self._net_bytes}"

    def _op_blk_burst(self, args: dict[str, Any]) -> str:
        count = max(1, int(args["count"]))
        start = int(args["start"]) % BLK_CAPACITY_SECTORS
        pattern = int(args["pattern"]) % 256
        writes: list[tuple[int, bytes]] = []
        for i in range(count):
            sector = (start + i) % BLK_CAPACITY_SECTORS
            data = bytes([(pattern + sector) % 256]) * SECTOR_SIZE
            writes.append((sector, data))
        skip_from = len(writes)
        if self.defect == "blk-lost-write":
            # The seeded bug: the last committed write never reaches the
            # store, but the shadow ledger (below) still records it.
            skip_from = len(writes) - 1
        if bool(args["batched"]):
            if skip_from:
                self.blk.write_many(writes[:skip_from])
        else:
            for sector, data in writes[:skip_from]:
                self.blk.write(sector, data)
        for sector, data in writes:
            self._blk_shadow[sector] = data
        # Read the range back through the driver (exercises the read
        # path under the same faults; correctness is the invariant's
        # direct store read, not this).
        ops = [(sector, 1) for sector, _ in writes]
        if bool(args["batched"]):
            self.blk.read_many(ops)
        else:
            for sector, _ in ops:
                self.blk.read(sector)
        return (
            f"sectors={count}@{start} "
            f"committed={len(self._blk_shadow)}"
        )

    # -- fault plan churn ------------------------------------------------
    def _fleet_engines_for(self, site: str) -> tuple[FaultEngine, ...]:
        return self.fleet_faults if site in _FLEET_SITES else (self.faults,)

    def _op_inject_fault(self, args: dict[str, Any]) -> str:
        name = str(args["name"])
        entry = FAULT_MENU.get(name)
        if entry is None:
            known = ", ".join(sorted(FAULT_MENU))
            raise ValueError(f"unknown fault {name!r} (known: {known})")
        n = max(1, int(args["n"]))
        limit = max(1, int(args["limit"]))
        mode = str(args["mode"])
        trigger: Trigger
        if mode == "prob" and entry.prob_ok and entry.budget is None:
            trigger = Probability(min(n, 500) / 1000.0)
            note = f"p={min(n, 500)}/1000"
        else:
            # Failing kinds are always occurrence-triggered: their
            # injection count must be exactly bounded by the budget.
            trigger = Every(n)
            note = f"every={n}"
        if entry.budget is not None:
            left = self._budget[name]
            limit = min(limit, left)
            if limit == 0:
                return f"no-op ({name} budget exhausted)"
            self._budget[name] = left - limit
        spec = FaultSpec(
            entry.site, entry.kind, trigger, param=entry.param, limit=limit
        )
        for engine in self._fleet_engines_for(entry.site):
            engine.arm(spec)
        return f"{entry.site} {entry.kind} {note} limit={limit}"

    def _op_clear_faults(self, args: dict[str, Any]) -> str:
        name = str(args["name"])
        if name == "all":
            removed = self.faults.disarm()
            for engine in self.fleet_faults:
                removed += engine.disarm()
            return f"disarmed={removed}"
        entry = FAULT_MENU.get(name)
        if entry is None:
            known = ", ".join(sorted(FAULT_MENU))
            raise ValueError(f"unknown fault {name!r} (known: {known})")
        # Disarm is per-site (menu entries sharing a site go together).
        removed = 0
        for engine in self._fleet_engines_for(entry.site):
            removed += engine.disarm(entry.site)
        return f"{entry.site} disarmed={removed}"

    # -- fleet engines ---------------------------------------------------
    def _op_fleet_spawn(self, args: dict[str, Any]) -> str:
        count = max(1, int(args["count"]))
        for _ in range(count):
            for fleet in self.fleets:
                fleet.spawn()
        return f"domains={self.fleet_hybrid.n_domains}"

    def _op_fleet_post(self, args: dict[str, Any]) -> str:
        n_domains = self.fleet_hybrid.n_domains
        if n_domains == 0:
            return "no-op (no fleet domains)"
        domid = int(args["index"]) % n_domains
        units = max(1, int(args["units"]))
        targets = self.fleets
        if self.defect == "fleet-skew":
            # The seeded bug: the stepped oracle never sees this post.
            targets = (self.fleet_hybrid,)
        for fleet in targets:
            fleet.post_work(domid, units, at_ns=fleet.now_ns)
        return f"domid={domid} units={units}"

    def _op_fleet_tick(self, args: dict[str, Any]) -> str:
        ticks = max(1, int(args["ticks"]))
        for fleet in self.fleets:
            fleet.run_until(fleet.now_ns + ticks * FLEET_TICK_NS)
        return (
            f"now_ticks={int(self.fleet_hybrid.now_ns / FLEET_TICK_NS)} "
            f"completed={self.fleet_hybrid.total_completed()}"
        )

    def _op_fleet_drain(self, args: dict[str, Any]) -> str:
        for fleet in self.fleets:
            fleet.run_to_quiescence()
        return (
            f"completed={self.fleet_hybrid.total_completed()} "
            f"pending={self.fleet_hybrid.pending_total()}"
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The full invariant sweep (:data:`INVARIANTS`); called after
        every step and once more at :meth:`finalize`."""
        self._check_blk_committed()
        self._check_net_balance()
        self._check_migration_safety()
        if not self.remus.output_commit_invariant():
            self._fail("remus-output-commit: accounting does not balance")
        self._check_telemetry()
        self._check_grants()
        self._check_wake_queues()
        self._check_engine_identity()

    def _check_blk_committed(self) -> None:
        for sector in sorted(self._blk_shadow):
            expected = self._blk_shadow[sector]
            actual = self.store.read_sector(sector)
            if actual != expected:
                self._fail(
                    f"blk-committed-bytes: sector {sector} reads "
                    f"{actual[:4].hex()}... expected {expected[:4].hex()}..."
                )

    def _check_net_balance(self) -> None:
        stats = self.net.stats
        if stats.requests != stats.responses:
            self._fail(
                "net-ring-balance: "
                f"{stats.requests} requests vs {stats.responses} responses"
            )
        if stats.requests != self._net_requests:
            self._fail(
                "net-ring-balance: driver saw "
                f"{stats.requests} requests, shadow ledger {self._net_requests}"
            )
        if stats.bytes_moved != self._net_bytes:
            self._fail(
                "net-ring-balance: driver moved "
                f"{stats.bytes_moved} B, shadow ledger {self._net_bytes} B"
            )

    def _check_migration_safety(self) -> None:
        for dom in self.domains:
            if not dom.running:
                self._fail(
                    f"migration-source-safety: domain {dom.domid} "
                    f"({dom.name}) is not runnable"
                )

    def _check_telemetry(self) -> None:
        pairs = (
            ("xen_ring_requests_total", {"driver": "net"},
             self.net.stats.requests),
            ("xen_ring_bytes_moved_total", {"driver": "net"},
             self.net.stats.bytes_moved),
            ("xen_ring_writes_total", {"driver": "blk"},
             self.blk.stats.writes),
            ("faults_injected_total", {}, self.faults.totals().injected),
            ("sched_wake_posts_total", {}, self.fleet_hybrid.stats.posts),
        )
        for metric, labels, expected in pairs:
            got = self.registry.value(metric, **labels)
            if got != expected:
                self._fail(
                    f"telemetry-conservation: {metric}{labels or ''} "
                    f"reads {got}, substrate counter is {expected}"
                )

    def _check_grants(self) -> None:
        shadow = getattr(self.sanitizers, "grants", None)
        if shadow is None:
            return
        live = len(shadow.live_refs())
        active = self.xen.grants.active_grants
        if live != active:
            self._fail(
                f"grant-balance: hypervisor holds {active} active "
                f"grants, sanitizer mirrors {live}"
            )
        findings = [
            str(f) for f in self.sanitizers.findings
        ]
        if findings:
            self._fail(
                f"grant-balance: sanitizer findings mid-run: {findings[0]}"
            )

    def _check_wake_queues(self) -> None:
        for label, fleet in (("hybrid", self.fleet_hybrid),
                             ("stepped", self.fleet_stepped)):
            if fleet.n_parked > fleet.n_domains:
                self._fail(
                    f"wake-queue-consistency: {label} parks "
                    f"{fleet.n_parked} of {fleet.n_domains} domains"
                )
            for domid in range(fleet.n_domains):
                dom = fleet.domain(domid)
                if dom.dead or dom.pending_units == 0:
                    continue
                if fleet.queued_wakes(domid) == 0:
                    self._fail(
                        "wake-queue-consistency: "
                        f"{label} dom{domid} has {dom.pending_units} "
                        "pending units and no queued kick (stranded work)"
                    )

    def _check_engine_identity(self) -> None:
        if self.fleet_hybrid.snapshot() != self.fleet_stepped.snapshot():
            self._fail(
                "dual-engine-identity: hybrid and stepped snapshots "
                "diverged"
            )

    # ------------------------------------------------------------------
    # Finalize + rendering
    # ------------------------------------------------------------------
    def finalize(self) -> dict[str, int]:
        """Drain the fleets, run the sanitizers' end-of-run sweep, check
        everything once more.  Returns the int-counter summary."""
        if self.failed:
            return self.summary()
        if self.finalized:
            return self.summary()
        self.finalized = True
        for fleet in self.fleets:
            fleet.run_to_quiescence()
        self.check_invariants()
        self.sanitizers.finish()
        findings = [str(f) for f in self.sanitizers.findings]
        if findings:
            self._fail(f"sanitizers dirty at finalize: {findings[0]}")
        total = self.fleet_hybrid.stats
        if total.units_posted != self.fleet_hybrid.total_completed():
            self._fail(
                "wake-queue-consistency: fleet drained with "
                f"{total.units_posted} units posted but "
                f"{self.fleet_hybrid.total_completed()} completed"
            )
        return self.summary()

    def summary(self) -> dict[str, int]:
        totals = self.faults.totals()
        fleet_injected = self.fleet_faults[0].totals().injected
        return dict(
            sorted(
                {
                    **self.counts,
                    "steps": len(self.steps),
                    "live_domains": len(self.domains),
                    "net_requests": self.net.stats.requests,
                    "net_bytes": self.net.stats.bytes_moved,
                    "blk_writes": self.blk.stats.writes,
                    "blk_reads": self.blk.stats.reads,
                    "committed_sectors": len(self._blk_shadow),
                    "fleet_domains": self.fleet_hybrid.n_domains,
                    "fleet_units_completed":
                        self.fleet_hybrid.total_completed(),
                    "fleet_injected": fleet_injected,
                    "faults_injected": totals.injected,
                    "faults_recovered": totals.recovered,
                    "faults_fatal": totals.fatal,
                }.items()
            )
        )

    def render_trace(self, outcome: str = "clean") -> str:
        """Deterministic full-run rendering (the byte-identity artifact)."""
        lines = [
            f"fuzz world seed={self.seed} steps={len(self.steps)}",
        ]
        lines += self.trace
        lines.append(f"outcome: {outcome}")
        for key, value in self.summary().items():
            lines.append(f"  {key} = {value}")
        return "\n".join(lines) + "\n"
