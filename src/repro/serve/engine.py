"""The serving-fleet engine: the per-interval control loop.

Ties every piece together on one simulated clock:

1. admit backends whose cold spawn finished;
2. fire the chaos overlay's :class:`~repro.faults.plan.FaultEngine`
   (backend deaths via ``ipvs.kill_server`` on a seeded victim, packet
   loss pushed down to the shards while the window is open);
3. run every arrival shard for the interval (serially or across worker
   processes — same bytes either way);
4. merge shard results in shard order, re-schedule churned and orphaned
   connections through the live IPVS director, and publish the
   interval's signals into the ``repro.obs`` registry;
5. let the autoscaler act on those signals;
6. track SLO recovery after the chaos window closes.

Everything the run produces is collected into a :class:`ServeResult`;
rendering (and the byte-identity contract) lives in
:mod:`repro.serve.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import sites
from repro.faults.plan import FaultEngine, FaultPlan
from repro.guest.ipvs import IpvsMode, IpvsStats
from repro.lb.cluster import LoadBalancedCluster
from repro.obs import wire
from repro.obs.registry import Histogram, Registry
from repro.perf.clock import SimClock
from repro.perf.rand import DeterministicRng
from repro.platforms.x_container import XContainerPlatform
from repro.serve.autoscaler import AutoscaleDecision, Autoscaler
from repro.serve.fleet import BackendFleet
from repro.serve.scenario import ServeScenario
from repro.serve.sharding import make_runner
from repro.serve.traffic import (
    SERVE_LATENCY_BUCKETS_NS,
    ShardConfig,
    ShardSnapshot,
    ShardState,
    initial_shard_state,
    mix_tables,
)


@dataclass
class IntervalRow:
    """One control interval, as it appears in the report table."""

    index: int
    t0_ms: float
    arrivals: int
    errors: int
    retransmits: int
    p50_ms: float
    p99_ms: float
    utilization: float
    alive: int
    provisioned: int
    queue_depth: float


@dataclass
class ServeEvent:
    t_ms: float
    text: str


@dataclass
class ServeResult:
    """Everything one run produced (pre-rendering)."""

    scenario: ServeScenario
    seed: int | str
    offered_rps: float
    intervals: list[IntervalRow]
    events: list[ServeEvent]
    decisions: list[AutoscaleDecision]
    requests: int
    completed: int
    errors: int
    retransmits: int
    churned: int
    reconnects: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    simulated_rps: float
    ipvs_stats: IpvsStats
    conservation_ok: bool
    backends_final: int
    #: None without a chaos overlay.
    chaos_window_end_ms: float | None
    recovered_at_ms: float | None
    recovery_ms: float | None
    slo_ok: bool
    fault_counters: dict[str, dict[str, int]]
    #: Engine-invariant rollup of the real stepped backend domains
    #: (:class:`repro.serve.domains.ServeDomainFleet`).
    fleet_exec: dict | None = None
    telemetry: Registry | None = field(
        repr=False, compare=False, default=None
    )


class ServeEngine:
    """One scenario + one seed -> one deterministic :class:`ServeResult`."""

    def __init__(
        self,
        scenario: ServeScenario,
        seed: int | str = 0,
        workers: int | None = None,
        engine: str = "hybrid",
    ) -> None:
        if engine not in ("stepped", "hybrid"):
            raise ValueError(
                f"engine must be 'stepped' or 'hybrid': {engine!r}"
            )
        self.scenario = scenario
        self.seed = seed
        self.workers = workers
        #: Execution engine for the real backend domains; ``hybrid``
        #: fast-forwards parked domains, ``stepped`` is the oracle.
        #: Results are byte-identical either way (CI compares them).
        self.engine = engine

    def run(self) -> ServeResult:
        sc = self.scenario
        clock = SimClock()
        registry = Registry(scenario=sc.name)

        cluster = LoadBalancedCluster(
            n_backends=sc.backends, backend_profile=sc.backend_profile
        )
        platform = XContainerPlatform(cluster.costs)
        direct = sc.mode is IpvsMode.DIRECT_ROUTING
        backend_service_ns = cluster.backend_service_ns(platform, direct)
        director_service_ns = cluster.director_service_ns(platform, sc.mode)
        # Offered load is a target utilization of the INITIAL fleet;
        # the mix's mean work factor converts capacity to a rate.
        offered_rps = (
            sc.offered_load
            * sc.backends
            * 1e9
            / (backend_service_ns * sc.mean_work)
        )

        fleet = BackendFleet(cluster, platform, sc.mode, sc.scheduler)
        wire.wire_ipvs(registry, fleet.ipvs)

        # Every live backend is a real stepped domain on its own engine
        # clock; the exec fleet lives in the parent process so worker
        # sharding never touches it.
        from repro.serve.domains import ServeDomainFleet

        exec_fleet = ServeDomainFleet(
            backend_service_ns,
            sc.interval_ms * 1e6,
            hybrid=self.engine == "hybrid",
        )
        for backend_id in fleet.alive_ids():
            exec_fleet.ensure(backend_id)

        mix_cum, mix_work = mix_tables(
            tuple((c.weight, c.work) for c in sc.mix)
        )
        cfg = ShardConfig(
            seed=f"{self.seed}:{sc.name}",
            shards=sc.shards,
            rate_rps=offered_rps / sc.shards,
            tail_alpha=sc.tail_alpha,
            churn_p=1.0 / sc.keepalive_requests,
            mix_cum_weights=mix_cum,
            mix_work=mix_work,
            backend_service_ns=backend_service_ns,
            director_service_ns=director_service_ns,
            conn_setup_ns=sc.conn_setup_us * 1e3,
            retry_penalty_ns=(
                sc.chaos.retry_penalty_ms * 1e6 if sc.chaos else 0.0
            ),
        )
        runner = make_runner(cfg, sc.shards, self.workers)

        # The director schedules every keep-alive connection up front,
        # slot-major per shard — the wlc state is live from t=0.
        states: list[ShardState] = [
            initial_shard_state(
                [fleet.open_conn() for _ in range(sc.conns_per_shard)]
            )
            for _ in range(sc.shards)
        ]

        chaos_engine: FaultEngine | None = None
        chaos_rng = DeterministicRng(f"{self.seed}:{sc.name}:victims")
        if sc.chaos is not None:
            plan: FaultPlan = sc.chaos.build_plan(
                f"{self.seed}:{sc.name}:chaos"
            )
            chaos_engine = plan.compile(clock=clock)

        total_latency = registry.histogram(
            "serve_request_latency_ns",
            help="End-to-end request latency (director + backend)",
            buckets=SERVE_LATENCY_BUCKETS_NS,
        )
        requests_total = registry.counter("serve_requests_total")
        errors_total = registry.counter("serve_errors_total")
        retransmits_total = registry.counter("serve_retransmits_total")
        churn_total = registry.counter("serve_conn_churn_total")
        reconnect_total = registry.counter("serve_reconnects_total")
        up_total = registry.counter("serve_autoscale_up_total")
        down_total = registry.counter("serve_autoscale_down_total")
        p99_gauge = registry.gauge("serve_interval_p99_ms")
        util_gauge = registry.gauge("serve_fleet_utilization")
        alive_gauge = registry.gauge("serve_backends_alive")
        prov_gauge = registry.gauge("serve_backends_provisioned")
        queue_gauge = registry.gauge("serve_queue_depth")

        autoscaler = Autoscaler(sc.autoscaler, registry)
        interval_ns = sc.interval_ms * 1e6
        rows: list[IntervalRow] = []
        events: list[ServeEvent] = []
        window_end_ms = sc.chaos.end_ms if sc.chaos else None
        recovered_at_ms: float | None = None
        kills_fired = 0
        reconnects = churned_total_n = 0

        try:
            for index in range(sc.n_intervals):
                t0 = index * interval_ns
                t1 = t0 + interval_ns
                clock.advance_to(t0)

                ready = fleet.activate_ready(t0)
                for backend_id in ready:
                    exec_fleet.ensure(backend_id)
                    events.append(ServeEvent(
                        t0 / 1e6, f"backend {backend_id} warmed up"
                    ))

                loss_p = 0.0
                if chaos_engine is not None:
                    kill = chaos_engine.fire(sites.NET_BACKEND)
                    if kill is not None and fleet.n_alive() > 1:
                        victim = chaos_rng.choice(fleet.alive_ids())
                        failed = fleet.kill(victim)
                        exec_fleet.retire(victim)
                        kills_fired += 1
                        events.append(ServeEvent(
                            t0 / 1e6,
                            f"chaos: backend {victim} died "
                            f"({failed} connections lost)",
                        ))
                    drop = chaos_engine.fire(sites.NET_PACKET)
                    if drop is not None:
                        loss_p = drop.param

                shares = self._capacity_shares(states)
                outcomes = runner.run([
                    (
                        s,
                        states[s],
                        ShardSnapshot(
                            interval_idx=index,
                            t0_ns=t0,
                            t1_ns=t1,
                            dead=fleet.dead_ids,
                            loss_p=loss_p,
                            share_by_backend=shares[s],
                        ),
                    )
                    for s in range(sc.shards)
                ])

                # Merge in shard order: counters, histograms, then the
                # director-mediated connection churn slot by slot.
                interval_hist = Histogram(
                    "interval", (), buckets=cfg.buckets
                )
                arrivals = errors = retransmits = 0
                busy_ns = 0.0
                queue_ns = 0.0
                busy_by_backend: dict[int, float] = {}
                for shard_idx, (result, new_state) in enumerate(outcomes):
                    states[shard_idx] = new_state
                    arrivals += result.arrivals
                    errors += result.errors
                    retransmits += result.retransmits
                    for b in sorted(result.busy_ns_by_backend):
                        ns = result.busy_ns_by_backend[b]
                        busy_ns += ns
                        busy_by_backend[b] = busy_by_backend.get(b, 0.0) + ns
                    queue_ns += result.queue_ns_end
                    interval_hist.merge_counts(
                        result.lat_bucket_counts,
                        result.lat_sum,
                        result.lat_count,
                    )
                    total_latency.merge_counts(
                        result.lat_bucket_counts,
                        result.lat_sum,
                        result.lat_count,
                    )
                    churned = set(result.churned_slots)
                    conns = new_state.conns
                    for slot in range(len(conns)):
                        if conns[slot] in fleet.dead_ids:
                            # The old connection died with its backend;
                            # the director schedules a fresh one.
                            conns[slot] = fleet.open_conn()
                            new_state.fresh[slot] = True
                            reconnects += 1
                        elif slot in churned:
                            fleet.close_conn(conns[slot])
                            conns[slot] = fleet.open_conn()
                            new_state.fresh[slot] = True
                            churned_total_n += 1

                if chaos_engine is not None and retransmits:
                    for _ in range(retransmits):
                        chaos_engine.record_retry(sites.NET_PACKET)

                # Feed the interval's busy time to the real backend
                # domains and step/fast-forward them to the interval end.
                for backend_id in sorted(busy_by_backend):
                    exec_fleet.post_busy(
                        backend_id, busy_by_backend[backend_id], t0
                    )
                exec_fleet.run_until(t1)

                n_alive = fleet.n_alive()
                utilization = (
                    busy_ns / (n_alive * interval_ns) if n_alive else 0.0
                )
                p50_ms = interval_hist.quantile(0.50) / 1e6
                p99_ms = interval_hist.quantile(0.99) / 1e6
                queue_depth = queue_ns / backend_service_ns

                requests_total.inc(arrivals)
                errors_total.inc(errors)
                retransmits_total.inc(retransmits)
                p99_gauge.set(p99_ms)
                util_gauge.set(utilization)
                alive_gauge.set(n_alive)
                prov_gauge.set(fleet.n_provisioned())
                queue_gauge.set(queue_depth)

                decision = autoscaler.decide(t1 / 1e6)
                if decision is not None:
                    if decision.direction == "up":
                        up_total.inc(decision.amount)
                        for _ in range(decision.amount):
                            fleet.spawn(
                                t1 + sc.autoscaler.spawn_delay_ms * 1e6
                            )
                    else:
                        down_total.inc(decision.amount)
                        fleet.drain_idlest(decision.amount)
                    events.append(ServeEvent(
                        decision.t_ms,
                        f"autoscale {decision.direction} "
                        f"x{decision.amount} -> "
                        f"{decision.backends_after} ({decision.reason})",
                    ))

                rows.append(IntervalRow(
                    index=index,
                    t0_ms=t0 / 1e6,
                    arrivals=arrivals,
                    errors=errors,
                    retransmits=retransmits,
                    p50_ms=p50_ms,
                    p99_ms=p99_ms,
                    utilization=utilization,
                    alive=n_alive,
                    provisioned=fleet.n_provisioned(),
                    queue_depth=queue_depth,
                ))

                if (
                    window_end_ms is not None
                    and recovered_at_ms is None
                    and t1 / 1e6 >= window_end_ms
                    and p99_ms <= sc.slo.p99_ms
                ):
                    recovered_at_ms = t1 / 1e6
                    events.append(ServeEvent(
                        recovered_at_ms,
                        f"SLO recovered (p99 {p99_ms:.3f}ms <= "
                        f"{sc.slo.p99_ms:g}ms)",
                    ))

                clock.advance_to(t1)
        finally:
            runner.close()

        recovery_ms: float | None = None
        if window_end_ms is not None:
            if recovered_at_ms is not None:
                recovery_ms = recovered_at_ms - window_end_ms
                slo_ok = recovery_ms <= sc.slo.recovery_window_ms
            else:
                slo_ok = False
            if chaos_engine is not None:
                for _ in range(kills_fired):
                    if slo_ok:
                        chaos_engine.record_recovered(sites.NET_BACKEND)
                    else:
                        chaos_engine.record_fatal(sites.NET_BACKEND)
        else:
            slo_ok = total_latency.quantile(0.99) / 1e6 <= sc.slo.p99_ms

        fault_counters: dict[str, dict[str, int]] = {}
        if chaos_engine is not None:
            for site, counters in sorted(chaos_engine.counters.items()):
                fault_counters[site] = {
                    "occurrences": counters.occurrences,
                    "injected": counters.injected,
                    "retried": counters.retried,
                    "recovered": counters.recovered,
                    "fatal": counters.fatal,
                }

        completed = sum(row.arrivals - row.errors for row in rows)
        requests = sum(row.arrivals for row in rows)
        duration_s = sc.duration_ms / 1e3
        return ServeResult(
            scenario=sc,
            seed=self.seed,
            offered_rps=offered_rps,
            intervals=rows,
            events=events,
            decisions=list(autoscaler.decisions),
            requests=requests,
            completed=completed,
            errors=sum(row.errors for row in rows),
            retransmits=sum(row.retransmits for row in rows),
            churned=churned_total_n,
            reconnects=reconnects,
            p50_ms=total_latency.quantile(0.50) / 1e6,
            p99_ms=total_latency.quantile(0.99) / 1e6,
            p999_ms=total_latency.quantile(0.999) / 1e6,
            mean_ms=total_latency.mean / 1e6,
            simulated_rps=completed / duration_s,
            ipvs_stats=fleet.ipvs.stats,
            conservation_ok=fleet.ipvs.conservation_ok(),
            backends_final=fleet.n_alive(),
            chaos_window_end_ms=window_end_ms,
            recovered_at_ms=recovered_at_ms,
            recovery_ms=recovery_ms,
            slo_ok=slo_ok,
            fault_counters=fault_counters,
            fleet_exec=exec_fleet.summary(),
            telemetry=registry,
        )

    @staticmethod
    def _capacity_shares(
        states: list[ShardState],
    ) -> list[tuple[tuple[int, float], ...]]:
        """Per-shard backend capacity divisors from the conn table.

        A shard holding ``k`` of a backend's ``n`` connections sends it
        ``k/n`` of its traffic, so its local queueing view must divide
        the backend's capacity by ``n/k`` (see ``traffic.py``).
        """
        totals: dict[int, int] = {}
        per_shard: list[dict[int, int]] = []
        for state in states:
            mine: dict[int, int] = {}
            for backend in state.conns:
                mine[backend] = mine.get(backend, 0) + 1
                totals[backend] = totals.get(backend, 0) + 1
            per_shard.append(mine)
        return [
            tuple(
                (backend, totals[backend] / count)
                for backend, count in sorted(mine.items())
            )
            for mine in per_shard
        ]
