"""FaultPlan DSL: triggers, compilation, determinism, validation."""

import pytest

from repro.faults import sites
from repro.faults.plan import (
    Every,
    FaultPlan,
    FaultSpec,
    Nth,
    Probability,
    TimeWindow,
)
from repro.perf.clock import SimClock


def plan(*specs, seed=0):
    return FaultPlan(tuple(specs), seed)


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        engine = plan(FaultSpec(sites.EVENT_NOTIFY, "drop", Nth(3))).compile()
        fired = [engine.fire(sites.EVENT_NOTIFY) for _ in range(6)]
        assert [f is not None for f in fired] == [
            False, False, True, False, False, False
        ]
        assert fired[2].occurrence == 3

    def test_every_fires_periodically(self):
        engine = plan(FaultSpec(sites.EVENT_NOTIFY, "drop", Every(2))).compile()
        fired = [engine.fire(sites.EVENT_NOTIFY) for _ in range(6)]
        assert [f is not None for f in fired] == [
            False, True, False, True, False, True
        ]

    def test_limit_caps_injections(self):
        engine = plan(
            FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1), limit=2)
        ).compile()
        fired = [engine.fire(sites.EVENT_NOTIFY) for _ in range(5)]
        assert sum(f is not None for f in fired) == 2

    def test_time_window_uses_sim_clock(self):
        clock = SimClock()
        engine = plan(
            FaultSpec(sites.EVENT_NOTIFY, "drop", TimeWindow(100.0, 200.0))
        ).compile(clock)
        assert engine.fire(sites.EVENT_NOTIFY) is None
        clock.advance(150.0)
        assert engine.fire(sites.EVENT_NOTIFY) is not None
        clock.advance(100.0)
        assert engine.fire(sites.EVENT_NOTIFY) is None

    def test_probability_is_seed_deterministic(self):
        def sequence(seed):
            engine = plan(
                FaultSpec(sites.EVENT_NOTIFY, "drop", Probability(0.3)),
                seed=seed,
            ).compile()
            return [
                engine.fire(sites.EVENT_NOTIFY) is not None
                for _ in range(200)
            ]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)
        rate = sum(sequence(7)) / 200
        assert 0.15 < rate < 0.45

    def test_first_matching_spec_wins(self):
        engine = plan(
            FaultSpec(sites.EVENT_NOTIFY, "delay", Nth(2), param=5.0),
            FaultSpec(sites.EVENT_NOTIFY, "drop", Every(2)),
        ).compile()
        engine.fire(sites.EVENT_NOTIFY)
        fault = engine.fire(sites.EVENT_NOTIFY)
        assert fault.kind == "delay" and fault.param == 5.0


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("xen.nonsense.thing", "drop", Nth(1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="does not support kind"):
            FaultSpec(sites.EVENT_NOTIFY, "explode", Nth(1))

    def test_bad_trigger_parameters_rejected(self):
        with pytest.raises(ValueError):
            Nth(0)
        with pytest.raises(ValueError):
            Every(0)
        with pytest.raises(ValueError):
            Probability(0.0)
        with pytest.raises(ValueError):
            Probability(1.5)
        with pytest.raises(ValueError):
            TimeWindow(5.0, 5.0)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="limit"):
            FaultSpec(sites.EVENT_NOTIFY, "drop", Nth(1), limit=0)


class TestEngine:
    def test_counters_track_lifecycle(self):
        engine = plan(
            FaultSpec(sites.GRANT_MAP, "fail", Nth(1))
        ).compile()
        engine.fire(sites.GRANT_MAP)
        engine.record_retry(sites.GRANT_MAP)
        engine.record_recovered(sites.GRANT_MAP)
        counters = engine.counters[sites.GRANT_MAP]
        assert (
            counters.occurrences,
            counters.injected,
            counters.retried,
            counters.recovered,
            counters.fatal,
        ) == (1, 1, 1, 1, 0)

    def test_totals_merge_sites(self):
        engine = plan(
            FaultSpec(sites.GRANT_MAP, "fail", Every(1)),
            FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1)),
        ).compile()
        engine.fire(sites.GRANT_MAP)
        engine.fire(sites.EVENT_NOTIFY)
        engine.record_fatal(sites.EVENT_NOTIFY)
        totals = engine.totals()
        assert totals.injected == 2 and totals.fatal == 1

    def test_injected_substrate_mapping(self):
        engine = plan(
            FaultSpec(sites.ABOM_CMPXCHG, "contend", Every(1)),
        ).compile()
        engine.fire(sites.ABOM_CMPXCHG)
        assert engine.injected_sites() == (sites.ABOM_CMPXCHG,)
        assert engine.injected_substrates() == {"core.abom"}

    def test_fire_on_unplanned_site_is_none_but_counted(self):
        engine = plan(
            FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1))
        ).compile()
        assert engine.fire(sites.GRANT_MAP) is None
        assert engine.counters[sites.GRANT_MAP].occurrences == 1

    def test_fault_events_reach_tracer(self):
        clock = SimClock()
        from repro.obs import TraceRecorder

        tracer = TraceRecorder(clock)
        engine = plan(
            FaultSpec(sites.EVENT_NOTIFY, "drop", Nth(1))
        ).compile(clock, tracer=tracer)
        engine.fire(sites.EVENT_NOTIFY, port=4)
        engine.record_retry(sites.EVENT_NOTIFY)
        engine.record_recovered(sites.EVENT_NOTIFY)
        engine.record_fatal(sites.EVENT_NOTIFY)
        names = [e.name for e in tracer.events("fault")]
        assert names == ["injected", "retried", "recovered", "fatal"]
        assert tracer.events("fault")[0].detail["site"] == sites.EVENT_NOTIFY
