"""The chaos harness and the shipped scenario catalog.

Acceptance criteria pinned here: every shipped scenario ends
``recovered`` under its default plan on fixed seeds, the catalog's
injections cover every core substrate, and ``repro chaos --seed S`` is
byte-identical for the same seed + plan.
"""

import pytest

from repro.faults import get_scenario, list_scenarios, scenario_names, sites
from repro.faults.chaos import (
    ChaosHarness,
    InvariantViolation,
    Scenario,
    ScenarioContext,
)
from repro.faults.plan import Every, FaultPlan, FaultSpec
from repro.faults.report import run_scenarios

FIXED_SEEDS = (0, 42, 20260806)


class TestHarness:
    def _trivial(self, body):
        return Scenario(
            name="t",
            description="",
            substrates=(),
            default_plan=lambda seed: FaultPlan((), seed),
            body=body,
        )

    def test_recovered_outcome_and_details(self):
        result = ChaosHarness(1).run(self._trivial(lambda ctx: {"a": 1}))
        assert result.outcome == "recovered" and result.ok
        assert result.details == (("a", 1),)

    def test_invariant_violation_outcome(self):
        def body(ctx):
            ctx.check(False, "must hold")

        result = ChaosHarness(1).run(self._trivial(body))
        assert result.outcome == "invariant-violated"
        assert result.failure == "must hold"
        assert result.invariants == ("FAIL must hold",)

    def test_unhandled_exception_is_fatal_not_raised(self):
        def body(ctx):
            raise RuntimeError("boom")

        result = ChaosHarness(1).run(self._trivial(body))
        assert result.outcome == "fatal"
        assert "boom" in result.failure

    def test_fatal_counters_override_clean_body(self):
        def body(ctx):
            ctx.engine.record_fatal(sites.EVENT_NOTIFY)
            return {}

        result = ChaosHarness(1).run(self._trivial(body))
        assert result.outcome == "fatal"

    def test_scenario_seed_derivation_is_per_scenario(self):
        harness = ChaosHarness(9)
        a = harness.scenario_seed(self._trivial(lambda ctx: {}))
        assert a == "9:t"

    def test_explicit_plan_overrides_default(self):
        seen = {}

        def body(ctx):
            seen["fault"] = ctx.engine.fire(sites.EVENT_NOTIFY)
            return {}

        override = FaultPlan(
            (FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1)),), 0
        )
        ChaosHarness(1).run(self._trivial(body), plan=override)
        assert seen["fault"] is not None


class TestCatalog:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_every_scenario_recovers_on_fixed_seeds(self, seed):
        report = run_scenarios(seed)
        failures = [
            f"{r.name}: {r.outcome} ({r.failure})"
            for r in report.results
            if not r.ok
        ]
        assert not failures, failures

    def test_core_substrate_coverage(self):
        report = run_scenarios(42)
        covered = set(report.substrates_injected())
        missing = set(sites.CORE_SUBSTRATES) - covered
        assert not missing, f"core substrates never injected: {missing}"
        assert report.core_coverage_ok()

    def test_every_scenario_actually_injects(self):
        report = run_scenarios(42)
        for result in report.results:
            assert result.injected > 0, f"{result.name} injected nothing"

    def test_declared_substrates_are_injected(self):
        report = run_scenarios(42)
        by_name = {r.name: r for r in report.results}
        for scenario in list_scenarios():
            result = by_name[scenario.name]
            missing = set(scenario.substrates) - set(
                result.injected_substrates
            )
            assert not missing, f"{scenario.name}: {missing}"

    def test_report_is_byte_identical_for_same_seed(self):
        assert run_scenarios(7).render() == run_scenarios(7).render()

    def test_different_seed_changes_probabilistic_scenarios(self):
        a = run_scenarios(1).render()
        b = run_scenarios(2).render()
        assert a != b  # seeded loss/stall rates differ

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_single_scenario_selection(self):
        report = run_scenarios(3, names=["nginx-packet-loss"])
        assert [r.name for r in report.results] == ["nginx-packet-loss"]
        assert report.all_recovered


class TestRender:
    def test_render_contains_verdict_and_coverage(self):
        text = run_scenarios(42).render()
        assert "ALL RECOVERED" in text
        assert "core substrate coverage: complete" in text
        for name in scenario_names():
            assert name in text

    def test_render_flags_failures(self):
        failing = Scenario(
            name="doomed",
            description="",
            substrates=(),
            default_plan=lambda seed: FaultPlan((), seed),
            body=lambda ctx: ctx.check(False, "nope"),
        )
        result = ChaosHarness(1).run(failing)
        from repro.faults.report import ChaosReport

        text = ChaosReport(seed=1, results=(result,)).render()
        assert "FAILURES: doomed" in text
        assert "INCOMPLETE" in text
