"""SanitizerSuite wired into the real substrates.

Covers the tentpole acceptance bar: the seeded-race fixtures fire
deterministic findings, the chaos catalog and fig workloads run
sanitizer-clean (injected faults the retry paths recover from must not
trip the checkers), and ABOM's concurrent patching stays race-free
under the happens-before detector.
"""

import json

from repro.sanitize import (
    SanitizerSuite,
    run_fixtures,
    run_sanitize,
    sanitize_chaos,
    sanitize_workloads,
)
from repro.sanitize.fixtures import FIXTURES


class TestFixtures:
    def test_every_fixture_fires_a_finding(self):
        for unit in run_fixtures():
            assert unit.findings, f"{unit.name} was silenced"
            assert unit.outcome == "finding"

    def test_kickless_producer_is_lost_wakeup(self):
        unit = FIXTURES["kickless-producer"]()
        assert [f.kind for f in unit.findings] == ["ring-lost-wakeup"]

    def test_double_unmap_is_flagged_through_the_real_table(self):
        unit = FIXTURES["double-unmap"]()
        assert [f.kind for f in unit.findings] == ["grant-double-unmap"]

    def test_unsynchronized_text_patch_is_a_data_race(self):
        unit = FIXTURES["unsynchronized-text-patch"]()
        assert [f.kind for f in unit.findings] == ["data-race"]
        assert "rogue-patcher" in unit.findings[0].message

    def test_fixture_findings_are_byte_identical_across_reruns(self):
        def render(units):
            return json.dumps(
                [u.as_dict() for u in units], sort_keys=True
            )

        assert render(run_fixtures()) == render(run_fixtures())


class TestChaosUnderSanitizers:
    def test_full_catalog_is_sanitizer_clean(self):
        for unit in sanitize_chaos(seed=0):
            assert unit.findings == (), (
                f"{unit.name}: {[f.render() for f in unit.findings]}"
            )

    def test_catalog_outcomes_match_unsanitized_run(self):
        # Attaching the suite must not change recovery outcomes.
        from repro.faults.report import run_scenarios

        plain = {
            r.name: r.outcome for r in run_scenarios(0).results
        }
        sanitized = {
            u.name.removeprefix("chaos:"): u.outcome
            for u in sanitize_chaos(seed=0)
        }
        assert sanitized == plain

    def test_chaos_units_audited_real_traffic(self):
        stats = {
            u.name: dict(u.stats) for u in sanitize_chaos(seed=0)
        }
        backend = stats["chaos:backend-death-memcached"]
        assert backend["ring_publishes"] > 0
        assert backend["race_accesses_checked"] > 0
        flaps = stats["chaos:grant-flaps-reconnect"]
        assert flaps["grant_maps"] > 0


class TestWorkloadsUnderSanitizers:
    def test_fig_workloads_are_sanitizer_clean(self):
        for unit in sanitize_workloads(seed=0):
            assert unit.findings == (), (
                f"{unit.name}: {[f.render() for f in unit.findings]}"
            )

    def test_scaleout_unit_exercises_concurrent_abom(self):
        units = {u.name: u for u in sanitize_workloads(seed=0)}
        scaleout = units["workload:scaleout"]
        stats = dict(scaleout.stats)
        # Two vCPUs decoded shared text while ABOM patched it: the
        # page-generation channel ordered every access.
        assert stats["race_accesses_checked"] > 0
        assert stats["race_findings"] == 0

    def test_workload_units_close_all_grants(self):
        units = {u.name: u for u in sanitize_workloads(seed=0)}
        for name in ("workload:nginx", "workload:memcached",
                     "workload:redis"):
            stats = dict(units[name].stats)
            assert stats["grant_findings"] == 0
            assert stats["grant_grants"] == stats["grant_ends"]


class TestRunSanitize:
    def test_all_target_is_clean_and_deterministic(self):
        first = run_sanitize(0, "all")
        second = run_sanitize(0, "all")
        assert first.clean
        assert first.render() == second.render()
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_fixtures_target_reports_findings(self):
        report = run_sanitize(0, "fixtures")
        assert not report.clean
        assert report.total_findings == len(FIXTURES)

    def test_unknown_target_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            run_sanitize(0, "nonsense")


class TestSuiteWiring:
    def test_attach_adds_exactly_the_suite_observers(self):
        from repro.core import CountingServices, XContainer

        baseline = XContainer(CountingServices(results={}))
        plain_writes = len(baseline.memory._write_observers)

        suite = SanitizerSuite()
        xc = XContainer(CountingServices(results={}), sanitizers=suite)
        assert len(xc.memory._write_observers) == plain_writes + 1
        assert len(xc.memory._lock_observers) == 1

    def test_ring_names_uniquified_with_disjoint_shadow_pages(self):
        suite = SanitizerSuite()
        first = suite.ring_register("net:g1b2", 256, 16)
        second = suite.ring_register("net:g1b2", 256, 16)
        assert first == "net:g1b2"
        assert second == "net:g1b2#2"
        pages = {r.page for r in suite.rings.rings()}
        assert len(pages) == 2

    def test_stats_names_are_stable(self):
        suite = SanitizerSuite()
        assert [name for name, _ in suite.stats()] == [
            "race_accesses_checked", "race_sync_edges", "race_findings",
            "grant_grants", "grant_maps", "grant_unmaps", "grant_copies",
            "grant_ends", "grant_findings",
            "ring_publishes", "ring_consumes", "event_sends",
            "event_drops", "event_deliveries", "ring_findings",
        ]
