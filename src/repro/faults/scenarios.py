"""The shipped chaos scenario catalog.

Each scenario tells one failure story against the real substrates and
asserts the recovery invariants the platform promises (§3.3's "mature
technologies in Xen's ecosystem" are only worth reproducing if they
actually survive failures).  Under its default plan every scenario must
end ``recovered``, and the union of the default plans injects at least
one fault into every substrate in
:data:`repro.faults.sites.CORE_SUBSTRATES` — both facts are enforced by
``tests/faults/test_chaos.py`` and the ``repro chaos`` CI job.

Determinism: plans use occurrence-based triggers wherever an exact count
is asserted, and seeded :class:`~repro.faults.plan.Probability` triggers
where realism matters more (packet loss, vCPU stalls); either way the
whole run replays byte-identically from ``repro chaos --seed S``.
"""

from __future__ import annotations

from typing import Any

from repro.faults import sites
from repro.faults.chaos import Scenario, ScenarioContext
from repro.faults.plan import Every, FaultPlan, FaultSpec, Nth, Probability
from repro.faults.retry import RetryPolicy


# ---------------------------------------------------------------------------
# 1. Backend death under memcached load, then Remus failover
# ---------------------------------------------------------------------------


def _plan_backend_death(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.NET_BACKEND, "kill", Every(120), limit=3),
            FaultSpec(sites.NET_RING, "stall", Every(100), param=3.0),
            FaultSpec(sites.GRANT_MAP, "fail", Nth(2), limit=1),
            FaultSpec(sites.EVENT_NOTIFY, "drop", Probability(0.01)),
            FaultSpec(sites.REMUS_ACK, "fail", Nth(8)),
        ),
        seed,
    )


def _run_backend_death(ctx: ScenarioContext) -> dict:
    from repro.workloads.profiles import MEMCACHED
    from repro.xen.drivers import SplitNetDriver
    from repro.xen.events import EventChannelTable
    from repro.xen.hypervisor import DomainKind, XenHypervisor
    from repro.xen.remus import Epoch, RemusReplicator

    xen = XenHypervisor(clock=ctx.clock)
    guest = xen.create_domain("memcached-xc")
    backend = xen.create_domain("netback", DomainKind.DRIVER)
    xen.grants.faults = ctx.engine
    xen.grants.sanitizer = ctx.sanitizers
    events = EventChannelTable(
        xen.costs, ctx.clock, faults=ctx.engine, sanitizer=ctx.sanitizers
    )
    driver = SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, ctx.clock,
        faults=ctx.engine, sanitizer=ctx.sanitizers,
    )
    remus = RemusReplicator(epoch_ms=25.0, faults=ctx.engine)
    nbytes = MEMCACHED.bytes_in + MEMCACHED.bytes_out
    epochs, per_epoch = 8, 50
    latency_ms = 0.0
    for index in range(epochs):
        for _ in range(per_epoch):
            driver.transmit(nbytes)
        dirty = 200 + (index * 37) % 100
        latency_ms += remus.run_epoch(Epoch(index, dirty, per_epoch))
        ctx.check(
            remus.output_commit_invariant(),
            "output-commit invariant holds after every epoch",
        )
    ctx.check(
        driver.stats.requests == epochs * per_epoch,
        "every memcached request completed despite backend deaths",
    )
    ctx.check(
        driver.stats.backend_deaths == 3 and driver.stats.backend_restarts == 3,
        "netfront reconnected after each injected backend death",
    )
    ctx.check(
        remus.stats.acks_lost == 1 and remus.buffered_packets == per_epoch,
        "the unacknowledged epoch's output stayed buffered",
    )
    # Primary dies with the last epoch never acknowledged: failover must
    # discard exactly the uncommitted output — clients never saw it.
    resume_epoch = remus.fail_primary()
    ctx.check(
        resume_epoch == epochs - 2,
        "backup resumes from the last acknowledged epoch",
    )
    ctx.check(
        remus.stats.packets_released == (epochs - 1) * per_epoch
        and remus.stats.packets_discarded == per_epoch,
        "zero committed-output loss: released exactly the acked epochs",
    )
    ctx.check(
        remus.output_commit_invariant(),
        "output-commit invariant holds across failover",
    )
    return {
        "requests": driver.stats.requests,
        "backend_deaths": driver.stats.backend_deaths,
        "ring_stalls": driver.stats.ring_full_stalls,
        "notify_drops": events.notifications_dropped,
        "acks_lost": remus.stats.acks_lost,
        "packets_released": remus.stats.packets_released,
        "packets_discarded": remus.stats.packets_discarded,
        "resume_epoch": resume_epoch,
        "output_latency_ms": int(latency_ms),
    }


# ---------------------------------------------------------------------------
# 2. Live migration under repeated dirty-page bursts (and injected abort)
# ---------------------------------------------------------------------------


def _plan_migration_storm(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(
                sites.MIGRATION_ROUND, "dirty", Every(2),
                param=1000.0, limit=4,
            ),
            FaultSpec(sites.MIGRATION_ROUND, "abort", Nth(5)),
        ),
        seed,
    )


def _run_migration_storm(ctx: ScenarioContext) -> dict:
    from repro.xen.hypervisor import XenHypervisor
    from repro.xen.migration import LiveMigration, MigrationSession

    xen = XenHypervisor(clock=ctx.clock)

    def migrate(name: str, dirty_rate: float) -> tuple[Any, Any]:
        domain = xen.create_domain(name, memory_mb=128)
        session = MigrationSession(
            domain,
            LiveMigration(
                memory_mb=128,
                dirty_rate_pages_s=dirty_rate,
                downtime_budget_ms=5.0,
                faults=ctx.engine,
                abort_on_non_convergence=True,
            ),
        )
        return domain, session.run()

    # Moderate writer + injected dirty bursts: still converges.
    source1, report1 = migrate("steady-writer", 20_000)
    ctx.check(
        report1.converged and not report1.aborted,
        "migration converges despite injected dirty bursts",
    )
    ctx.check(
        not source1.running,
        "converged migration hands the domain to the destination",
    )
    # Pathological writer: never converges — must abort cleanly.
    source2, report2 = migrate("write-storm", 1_000_000)
    ctx.check(
        report2.aborted and not report2.converged
        and report2.downtime_ms == 0.0,
        "non-convergence aborts cleanly with zero downtime",
    )
    ctx.check(
        source2.running,
        "aborted migration leaves the source domain runnable",
    )
    # Injected mid-copy abort: same guarantee.
    source3, report3 = migrate("aborted-mid-copy", 20_000)
    ctx.check(
        report3.aborted and source3.running,
        "injected abort leaves the source domain runnable",
    )
    return {
        "rounds_converged": report1.rounds,
        "pages_sent_converged": report1.pages_sent,
        "downtime_us": int(report1.downtime_ms * 1e3),
        "rounds_storm": report2.rounds,
        "rounds_aborted": report3.rounds,
    }


# ---------------------------------------------------------------------------
# 3. NGINX under 5 % packet loss
# ---------------------------------------------------------------------------


def _plan_nginx_loss(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.NET_PACKET, "drop", Probability(0.05)),
            FaultSpec(sites.NET_PACKET, "duplicate", Probability(0.01)),
            FaultSpec(sites.NET_PACKET, "reorder", Probability(0.01)),
        ),
        seed,
    )


def _run_nginx_loss(ctx: ScenarioContext) -> dict:
    from repro.guest.netstack import NetDevice, NetStack
    from repro.workloads.profiles import NGINX

    requests = 2000
    lossy = NetStack(
        device=NetDevice.NETFRONT,
        faults=ctx.engine,
        retry=RetryPolicy(max_attempts=8),
    )
    clean = NetStack(device=NetDevice.NETFRONT)
    lossy_ns = clean_ns = 0.0
    for _ in range(requests):
        lossy_ns += lossy.request_response_cost_ns(
            NGINX.bytes_in, NGINX.bytes_out
        )
        clean_ns += clean.request_response_cost_ns(
            NGINX.bytes_in, NGINX.bytes_out
        )
    ctx.check(
        lossy.stats.requests == requests,
        "every request was eventually served (no hang, no reset)",
    )
    ctx.check(
        lossy.stats.retransmits > 0,
        "the loss plan actually cost retransmissions",
    )
    ctx.check(
        lossy_ns > clean_ns,
        "throughput degrades under loss",
    )
    ctx.check(
        lossy_ns < clean_ns * 3.0,
        "degradation is bounded (retransmits, not collapse)",
    )
    return {
        "requests": requests,
        "retransmits": lossy.stats.retransmits,
        "duplicates": lossy.stats.duplicates,
        "reorders": lossy.stats.reorders,
        "slowdown_permille": int(lossy_ns * 1000 / clean_ns),
    }


# ---------------------------------------------------------------------------
# 4. Grant flaps during netfront reconnect, plus GNTTABOP_copy failures
# ---------------------------------------------------------------------------


def _plan_grant_flaps(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.NET_BACKEND, "kill", Every(25), limit=4),
            FaultSpec(sites.GRANT_MAP, "fail", Nth(2)),
            FaultSpec(sites.GRANT_MAP, "fail", Nth(4)),
            FaultSpec(sites.GRANT_COPY, "fail", Every(7)),
        ),
        seed,
    )


def _run_grant_flaps(ctx: ScenarioContext) -> dict:
    from repro.xen.drivers import SplitNetDriver
    from repro.xen.events import EventChannelTable
    from repro.xen.grant_table import GrantCopyError
    from repro.xen.hypervisor import DomainKind, XenHypervisor

    xen = XenHypervisor(clock=ctx.clock)
    guest = xen.create_domain("guest")
    backend = xen.create_domain("netback", DomainKind.DRIVER)
    xen.grants.faults = ctx.engine
    xen.grants.sanitizer = ctx.sanitizers
    events = EventChannelTable(
        xen.costs, ctx.clock, sanitizer=ctx.sanitizers
    )
    driver = SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, ctx.clock,
        faults=ctx.engine, sanitizer=ctx.sanitizers,
    )
    for _ in range(120):
        driver.transmit(1500)
    ctx.check(
        driver.stats.requests == 120,
        "all requests completed across four backend deaths",
    )
    ctx.check(
        driver.stats.backend_deaths == 4
        and driver.stats.backend_restarts == 4,
        "each death ended in exactly one successful reconnect",
    )
    ctx.check(
        xen.grants.map_failures == 2,
        "both injected re-map failures were absorbed by the retry loop",
    )
    # Hypervisor-mediated copies (GNTTABOP_copy) under transient failure.
    ref = xen.grants.grant_access(guest.domid, 0xE000)
    xen.grants.map_grant(ref, backend.domid)
    policy = RetryPolicy()
    copied = 0
    for _ in range(30):
        copied += policy.run(
            lambda: xen.grants.copy_grant(ref, backend.domid, 2048),
            retriable=(GrantCopyError,),
            clock=ctx.clock,
            faults=ctx.engine,
            site=sites.GRANT_COPY,
        )
    ctx.check(
        xen.grants.copies == 30 and copied == 30 * 2048,
        "every grant copy eventually succeeded",
    )
    ctx.check(
        xen.grants.copy_failures > 0,
        "the copy path actually saw injected failures",
    )
    return {
        "requests": driver.stats.requests,
        "backend_restarts": driver.stats.backend_restarts,
        "map_failures": xen.grants.map_failures,
        "copy_failures": xen.grants.copy_failures,
        "copies": xen.grants.copies,
    }


# ---------------------------------------------------------------------------
# 5. Toolstack spawn timeouts during a container burst
# ---------------------------------------------------------------------------


def _plan_spawn_timeouts(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (FaultSpec(sites.TOOLSTACK_SPAWN, "timeout", Every(4), limit=3),),
        seed,
    )


def _run_spawn_timeouts(ctx: ScenarioContext) -> dict:
    from repro.xen.hypervisor import XenHypervisor
    from repro.xen.toolstack import Toolstack

    xen = XenHypervisor(clock=ctx.clock)
    xen.grants.sanitizer = ctx.sanitizers
    toolstack = Toolstack(xen, faults=ctx.engine)
    per_domain_mb = 512
    for index in range(12):
        toolstack.create(
            f"xc{index}", memory_mb=per_domain_mb, full_vm_boot=False
        )
    ctx.check(
        len(toolstack.creations) == 12 and len(xen.domains) == 13,
        "every requested domain exists exactly once (dom0 + 12)",
    )
    ctx.check(
        toolstack.spawn_timeouts == 3,
        "the injected spawn timeouts actually struck",
    )
    ctx.check(
        xen.used_memory_mb == 4096 + 12 * per_domain_mb,
        "no memory accounting leaked from torn-down half-creations",
    )
    return {
        "domains": len(xen.domains),
        "spawn_timeouts": toolstack.spawn_timeouts,
        "used_memory_mb": xen.used_memory_mb,
    }


# ---------------------------------------------------------------------------
# 6. vCPU stalls and a preemption storm on the credit scheduler
# ---------------------------------------------------------------------------


def _plan_scheduler_storm(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(
                sites.VCPU, "storm", Every(40), param=6.0, limit=4
            ),
            FaultSpec(sites.VCPU, "stall", Probability(0.1)),
        ),
        seed,
    )


def _run_scheduler_storm(ctx: ScenarioContext) -> dict:
    from repro.xen.scheduler import CreditScheduler

    scheduler = CreditScheduler(physical_cpus=2, faults=ctx.engine)
    for domid in (1, 2, 3):
        scheduler.add_vcpu(domid)
        scheduler.add_vcpu(domid)
    totals: dict[int, float] = {1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(200):
        for domid, share in scheduler.schedule_interval(10e6).items():
            totals[domid] += share
    ctx.check(
        scheduler.storm_events == 4,
        "the preemption storms actually struck",
    )
    ctx.check(
        all(ns > 0.0 for ns in totals.values()),
        "no domain starved",
    )
    ctx.check(
        min(totals.values()) >= 0.8 * max(totals.values()),
        "equal-weight domains stayed within 20 % of each other",
    )
    return {
        "stall_events": scheduler.stall_events,
        "storm_events": scheduler.storm_events,
        "switches": scheduler.switches,
        "min_share_permille": int(
            min(totals.values()) * 1000 / max(totals.values())
        ),
    }


# ---------------------------------------------------------------------------
# 7. ABOM cmpxchg contention (§4.4's race-retry arguments)
# ---------------------------------------------------------------------------


def _plan_abom_contention(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(1)),
            FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(3)),
        ),
        seed,
    )


def _run_abom_contention(ctx: ScenarioContext) -> dict:
    from repro.arch import Assembler, Reg
    from repro.core import CountingServices, XContainer
    from repro.obs import TraceRecorder

    xc = XContainer(
        CountingServices(results={}), clock=ctx.clock, faults=ctx.engine,
        sanitizers=ctx.sanitizers,
    )
    tracer = TraceRecorder(ctx.clock, capacity=256)
    xc.attach_tracer(tracer)
    # One 7-byte site and one 9-byte site, executed four times each.
    # Contention on occurrence 1 makes the 7-byte patch lose its CAS
    # (retried on the next trap); contention on occurrence 3 makes the
    # 9-byte patch lose phase 2, leaving the still-correct phase-1 state.
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 4)
    asm.label("loop")
    asm.syscall_site(39, style="mov_eax")
    asm.syscall_site(15, style="mov_rax")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    xc.run(asm.build())
    stats = xc.abom_stats
    ctx.check(
        stats.cmpxchg_contentions == 2,
        "both injected CAS losses actually struck",
    )
    ctx.check(
        stats.total_patches == 2 and len(stats.patched_sites) == 2,
        "both sites ended up patched despite losing their first CAS",
    )
    ctx.check(
        stats.unrecognized_sites == 0,
        "a lost CAS is never misclassified as an unrecognized site",
    )
    ctx.check(
        xc.libos_stats.lightweight_syscalls >= 5,
        "later invocations dispatch lightweight through the patches",
    )
    fault_events = tracer.events("fault")
    ctx.check(
        any(e.name == "injected" for e in fault_events)
        and any(e.name == "recovered" for e in fault_events),
        "fault lifecycle events flowed into the attached tracer",
    )
    return {
        "contentions": stats.cmpxchg_contentions,
        "patches": stats.total_patches,
        "patch_failures": stats.patch_failures,
        "forwarded": xc.libos_stats.forwarded_syscalls,
        "lightweight": xc.libos_stats.lightweight_syscalls,
        "trace_fault_events": len(fault_events),
    }


# ---------------------------------------------------------------------------
# 8. Event storm over blkfront: lost kicks, delays, blkback deaths
# ---------------------------------------------------------------------------


def _plan_event_storm(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.EVENT_NOTIFY, "drop", Every(40)),
            FaultSpec(
                sites.EVENT_NOTIFY, "delay", Every(17), param=5000.0
            ),
            FaultSpec(sites.BLK_BACKEND, "kill", Every(13), limit=5),
            FaultSpec(sites.BLK_BACKEND, "stall", Nth(7), param=4.0),
        ),
        seed,
    )


def _run_event_storm(ctx: ScenarioContext) -> dict:
    from repro.xen.blkdev import SECTOR_SIZE, BlockStore, SplitBlockDriver
    from repro.xen.drivers import SplitNetDriver
    from repro.xen.events import EventChannelTable
    from repro.xen.hypervisor import DomainKind, XenHypervisor

    xen = XenHypervisor(clock=ctx.clock)
    guest = xen.create_domain("guest")
    backend = xen.create_domain("driver", DomainKind.DRIVER)
    xen.grants.sanitizer = ctx.sanitizers
    events = EventChannelTable(
        xen.costs, ctx.clock, faults=ctx.engine, sanitizer=ctx.sanitizers
    )
    net = SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, ctx.clock,
        faults=ctx.engine, sanitizer=ctx.sanitizers,
    )
    blk = SplitBlockDriver(
        BlockStore(4096), xen.costs, ctx.clock, faults=ctx.engine,
        sanitizer=ctx.sanitizers,
    )
    for _ in range(100):
        net.transmit(1500)
    sectors = 150
    for sector in range(sectors):
        blk.write(sector, bytes([sector % 256]) * SECTOR_SIZE)
    torn = sum(
        1
        for sector in range(sectors)
        if blk.read(sector) != bytes([sector % 256]) * SECTOR_SIZE
    )
    ctx.check(
        torn == 0,
        "no write was torn by a mid-ring backend death",
    )
    ctx.check(
        net.stats.requests == 100
        and blk.stats.writes == sectors
        and blk.stats.reads == sectors,
        "every request completed despite the event storm",
    )
    ctx.check(
        events.notifications_dropped == 2
        and events.notifications_delayed == 6,
        "the kick drops and delays struck on schedule",
    )
    ctx.check(
        blk.stats.backend_deaths == 5
        and blk.stats.backend_restarts == 5,
        "blkfront reconnected after each blkback death",
    )
    return {
        "net_requests": net.stats.requests,
        "blk_writes": blk.stats.writes,
        "blk_reads": blk.stats.reads,
        "notify_drops": events.notifications_dropped,
        "notify_delays": events.notifications_delayed,
        "blk_deaths": blk.stats.backend_deaths,
        "ring_stalls": blk.stats.ring_stalls,
    }


# ---------------------------------------------------------------------------
# 9. Lost wake-kicks against a parked fleet (hybrid execution engine)
# ---------------------------------------------------------------------------


def _plan_wake_drop(seed: int | str) -> FaultPlan:
    return FaultPlan(
        (
            FaultSpec(sites.SCHED_WAKE, "drop", Every(5), limit=4),
            FaultSpec(sites.SCHED_WAKE, "delay", Nth(12), param=3e6),
        ),
        seed,
    )


def _run_wake_drop(ctx: ScenarioContext) -> dict:
    from repro.core.engine import ExecutionEngine

    engine = ExecutionEngine(
        hybrid=True,
        clock=ctx.clock,
        faults=ctx.engine,
        sanitizer=ctx.sanitizers,
    )
    fleet = 6
    for _ in range(fleet):
        engine.spawn()
    posted = 0
    for domid in range(fleet):
        for wave in range(4):
            units = 1 + (domid + wave) % 3
            engine.post_work(
                domid, units, at_ns=(2 + 5 * wave + domid) * 1e6
            )
            posted += units
    engine.run_until(40 * 1e6)
    engine.run_to_quiescence()
    ctx.check(
        engine.stats.drops == 4 and engine.stats.delays == 1,
        "the wake-kick drops and delays struck on schedule",
    )
    ctx.check(
        engine.stats.redeliveries == engine.stats.drops
        and engine.stats.abandoned == 0,
        "every dropped kick was re-kicked by the bounded watchdog",
    )
    ctx.check(
        engine.total_completed() == posted,
        "every published work unit completed despite lost wakeups",
    )
    ctx.check(
        engine.pending_total() == 0 and engine.n_parked == fleet,
        "no units stranded; the whole fleet re-parked at quiescence",
    )
    return {
        "domains": fleet,
        "units_posted": posted,
        "units_completed": engine.total_completed(),
        "kick_drops": engine.stats.drops,
        "kick_delays": engine.stats.delays,
        "redeliveries": engine.stats.redeliveries,
        "spurious_wakes": engine.stats.spurious_wakes,
        "fastforward_ns": engine.stats.fastforward_ns,
        "guest_instructions": engine.stats.instructions,
    }


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _build_catalog() -> tuple[Scenario, ...]:
    """The shipped scenarios, in catalog (report) order."""
    from repro.fuzz.steps import step

    return (
        Scenario(
            name="backend-death-memcached",
            description=(
                "netback dies three times under memcached load while Remus "
                "replicates; failover with an unacked epoch loses zero "
                "committed output"
            ),
            substrates=("xen.drivers", "xen.grant_table", "xen.remus"),
            default_plan=_plan_backend_death,
            body=_run_backend_death,
        ),
        Scenario(
            name="migration-dirty-storm",
            description=(
                "pre-copy migration under injected dirty bursts converges; "
                "non-convergence and injected aborts leave the source "
                "runnable"
            ),
            substrates=("xen.migration",),
            default_plan=_plan_migration_storm,
            body=_run_migration_storm,
        ),
        Scenario(
            name="nginx-packet-loss",
            description=(
                "NGINX at 5% packet loss: throughput degrades boundedly, "
                "every request is served, nothing hangs"
            ),
            substrates=("guest.netstack",),
            default_plan=_plan_nginx_loss,
            body=_run_nginx_loss,
        ),
        Scenario(
            name="grant-flaps-reconnect",
            description=(
                "grant re-map failures during netfront reconnect and "
                "GNTTABOP_copy flakes, all absorbed by bounded retry"
            ),
            substrates=("xen.drivers", "xen.grant_table"),
            default_plan=_plan_grant_flaps,
            body=_run_grant_flaps,
        ),
        Scenario(
            name="toolstack-spawn-timeouts",
            description=(
                "xl create times out repeatedly during a 12-container "
                "burst; every domain comes up, nothing leaks"
            ),
            substrates=("xen.toolstack",),
            default_plan=_plan_spawn_timeouts,
            body=_run_spawn_timeouts,
        ),
        Scenario(
            name="scheduler-preemption-storm",
            description=(
                "vCPU stalls and preemption storms on the credit "
                "scheduler: no starvation, fairness within 20%"
            ),
            substrates=("xen.scheduler",),
            default_plan=_plan_scheduler_storm,
            body=_run_scheduler_storm,
        ),
        Scenario(
            name="abom-cmpxchg-contention",
            description=(
                "ABOM loses CAS races on both the 7-byte and the 9-byte "
                "phase-2 store; every site still ends up patched"
            ),
            substrates=("core.abom",),
            default_plan=_plan_abom_contention,
            body=_run_abom_contention,
        ),
        Scenario(
            name="wake-drop-fleet",
            description=(
                "wake kicks to parked fleet domains dropped and delayed "
                "under the hybrid engine; the watchdog re-kick recovers "
                "every lost wakeup, no unit strands"
            ),
            substrates=("core.engine",),
            default_plan=_plan_wake_drop,
            body=_run_wake_drop,
        ),
        Scenario(
            name="event-storm-blkdev",
            description=(
                "dropped and delayed event kicks plus five blkback deaths "
                "under a write/read storm; no torn writes"
            ),
            substrates=("xen.events", "xen.blkdev"),
            default_plan=_plan_event_storm,
            body=_run_event_storm,
        ),
        # Promoted from a shrunk repro.fuzz counterexample candidate: the
        # step sequence is the scenario (Scenario.from_steps), so it runs
        # through the same FuzzWorld + invariant set the fuzzer uses.
        Scenario.from_steps(
            name="fuzz-notify-drop-burst",
            description=(
                "promoted fuzzer step sequence: two dropped event kicks "
                "inside an unbatched transmit burst, then a clean batched "
                "burst after disarm; the full fuzz invariant set holds"
            ),
            steps=(
                step("spawn", memory_mb=128, lightvm=True),
                step(
                    "inject_fault",
                    name="notify-drop",
                    mode="every",
                    n=2,
                    limit=2,
                ),
                # Unbatched on purpose: each transmit sends its own event
                # kick, so Every(2) actually lands (a batched burst sends
                # ONE kick for the whole train and would starve the spec).
                step("net_burst", count=6, size=1500, batched=False),
                step("clear_faults", name="notify-drop"),
                step("net_burst", count=4, size=700, batched=True),
            ),
            substrates=("xen.events",),
            world_seed=0,
        ),
    )


#: The catalog by name, in :func:`_build_catalog` (report) order.
CATALOG: dict[str, Scenario] = {
    scenario.name: scenario for scenario in _build_catalog()
}
