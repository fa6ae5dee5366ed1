"""The serving engine: determinism, chaos recovery, autoscaling."""

import pytest

from repro.guest.ipvs import IpvsMode
from repro.serve import SCENARIOS, get_scenario, run_serve
from repro.serve.scenario import (
    AutoscalerPolicy,
    ChaosOverlay,
    ServeScenario,
    SloPolicy,
)

#: An autoscaler that never acts: the up trigger is unreachable and the
#: utilization gate blocks every downscale.
FROZEN_AUTOSCALER = AutoscalerPolicy(
    min_backends=1,
    max_backends=64,
    up_p99_ms=1e6,
    down_p99_ms=1.0,
    down_utilization=0.0,
)


def small_scenario(mode, **overrides):
    defaults = dict(
        name="unit",
        description="unit-test fleet",
        mode=mode,
        backends=4,
        duration_ms=500.0,
        interval_ms=100.0,
        offered_load=0.5,
        shards=2,
        conns_per_shard=16,
        autoscaler=FROZEN_AUTOSCALER,
        slo=SloPolicy(p99_ms=50.0, recovery_window_ms=300.0),
        chaos=ChaosOverlay(
            start_ms=100.0, duration_ms=100.0, backend_kills=1
        ),
    )
    defaults.update(overrides)
    return ServeScenario(**defaults)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        first = run_serve("ci-small", seed=0).render()
        second = run_serve("ci-small", seed=0).render()
        assert first == second

    def test_serial_and_process_runs_are_byte_identical(self):
        serial = run_serve("ci-small", seed=42, workers=1).render()
        parallel = run_serve("ci-small", seed=42, workers=2).render()
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = run_serve("ci-small", seed=0).render()
        b = run_serve("ci-small", seed=1).render()
        assert a != b

    @pytest.mark.parametrize("seed", [0, 42])
    def test_hybrid_and_stepped_engines_are_byte_identical(self, seed):
        hybrid = run_serve("ci-small", seed=seed, engine="hybrid")
        stepped = run_serve("ci-small", seed=seed, engine="stepped")
        assert hybrid.render() == stepped.render()
        assert hybrid.as_dict() == stepped.as_dict()
        # The backend domains really executed guest code.
        fleet = hybrid.result.fleet_exec
        assert fleet["guest_instructions"] > 0
        assert fleet["units_completed"] > 0
        assert fleet["domains_spawned"] >= 4

    def test_catalog_is_wellformed(self):
        assert sorted(SCENARIOS) == ["ci-small", "fleet-100", "fleet-nat"]
        with pytest.raises(KeyError, match="unknown serve scenario"):
            get_scenario("nope")


class TestChaosRecovery:
    @pytest.mark.parametrize(
        "mode", [IpvsMode.NAT, IpvsMode.DIRECT_ROUTING]
    )
    def test_backend_death_errors_then_recovers(self, mode):
        result = run_serve(small_scenario(mode), seed=0).result
        assert result.ipvs_stats.backend_deaths == 1
        kill_rows = [r for r in result.intervals if r.errors > 0]
        # Errors are confined to the interval(s) where the death fired:
        # the director re-schedules orphaned connections at the next
        # boundary, so no later interval sees a dead backend.
        assert kill_rows
        assert all(r.t0_ms < 200.0 for r in kill_rows)
        assert result.reconnects > 0
        assert result.slo_ok
        assert result.conservation_ok
        assert result.recovery_ms is not None
        assert result.recovery_ms <= 300.0

    def test_survivors_absorb_the_dead_backends_load(self):
        result = run_serve(
            small_scenario(IpvsMode.DIRECT_ROUTING), seed=7
        ).result
        assert result.backends_final == 3
        last = result.intervals[-1]
        assert last.errors == 0
        assert last.p99_ms <= 50.0

    def test_fault_counters_reported(self):
        result = run_serve(small_scenario(IpvsMode.NAT), seed=0).result
        backend = result.fault_counters["xen.drivers.backend"]
        assert backend["injected"] == 1
        assert backend["recovered"] == 1
        assert backend["fatal"] == 0

    def test_packet_loss_retransmits_and_recovers(self):
        scenario = small_scenario(
            IpvsMode.NAT,
            chaos=ChaosOverlay(
                start_ms=100.0, duration_ms=200.0, packet_loss_p=0.2
            ),
        )
        result = run_serve(scenario, seed=0).result
        assert result.retransmits > 0
        assert result.errors == 0
        assert result.slo_ok
        loss_rows = [r for r in result.intervals if r.retransmits > 0]
        assert all(100.0 <= r.t0_ms < 300.0 for r in loss_rows)


class TestAutoscaler:
    def test_overload_scales_up(self):
        scenario = small_scenario(
            IpvsMode.DIRECT_ROUTING,
            offered_load=1.4,
            duration_ms=800.0,
            chaos=None,
            autoscaler=AutoscalerPolicy(
                min_backends=2,
                max_backends=12,
                up_p99_ms=20.0,
                down_p99_ms=2.0,
                down_utilization=0.3,
                up_step=2,
                cooldown_up_ms=100.0,
                spawn_delay_ms=100.0,
            ),
        )
        result = run_serve(scenario, seed=0).result
        ups = [d for d in result.decisions if d.direction == "up"]
        assert ups
        assert result.intervals[-1].provisioned > scenario.backends
        assert all(d.backends_after <= 12 for d in result.decisions)

    def test_overprovisioned_fleet_drains_down_without_errors(self):
        scenario = small_scenario(
            IpvsMode.DIRECT_ROUTING,
            backends=8,
            offered_load=0.05,
            duration_ms=800.0,
            chaos=None,
            autoscaler=AutoscalerPolicy(
                min_backends=2,
                max_backends=12,
                up_p99_ms=100.0,
                down_p99_ms=50.0,
                down_utilization=0.9,
                down_step=2,
                cooldown_down_ms=100.0,
            ),
        )
        result = run_serve(scenario, seed=0).result
        downs = [d for d in result.decisions if d.direction == "down"]
        assert downs
        assert result.backends_final < 8
        assert result.backends_final >= 2
        # Draining never resets a connection.
        assert result.errors == 0
        assert result.ipvs_stats.conns_failed == 0
        assert result.conservation_ok

    def test_no_chaos_slo_judged_on_overall_p99(self):
        result = run_serve(
            small_scenario(IpvsMode.NAT, chaos=None), seed=0
        ).result
        assert result.chaos_window_end_ms is None
        assert result.recovery_ms is None
        assert result.slo_ok


class TestAccounting:
    def test_request_totals_are_consistent(self):
        result = run_serve(small_scenario(IpvsMode.NAT), seed=0).result
        assert result.requests == sum(
            r.arrivals for r in result.intervals
        )
        assert result.completed == result.requests - result.errors
        assert result.simulated_rps > 0

    def test_report_dict_carries_the_contract_fields(self):
        report = run_serve(small_scenario(IpvsMode.NAT), seed=0)
        payload = report.as_dict()
        assert payload["scenario"] == "unit"
        assert payload["mode"] == "nat"
        assert payload["slo"]["ok"] is True
        assert payload["ipvs"]["conservation_ok"] is True
        assert len(payload["intervals"]) == 5
        assert payload["latency_ms"]["p50"] <= payload["latency_ms"]["p99"]

    def test_telemetry_histogram_matches_completions(self):
        report = run_serve(small_scenario(IpvsMode.NAT), seed=0)
        registry = report.result.telemetry
        hist = registry.histogram("serve_request_latency_ns")
        assert hist.count == report.result.completed
