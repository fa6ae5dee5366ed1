"""The fuzz world (repro.fuzz.world): execution + invariant catalog.

Exercises every op handler directly (no Hypothesis), the per-step
invariant sweep, the seeded defect hooks the fuzzer must be able to
find, and trace determinism — the property ``repro chaos --replay``
byte-identity rests on.
"""

import pytest

from repro.fuzz.steps import step
from repro.fuzz.world import DEFECTS, FAULT_MENU, INVARIANTS, FuzzFailure, FuzzWorld


def _world(**kwargs):
    return FuzzWorld(seed=3, **kwargs)


def armed_specs(engine):
    """The engine's armed specs, in (site, arm) order."""
    return [
        injector.spec
        for site in sorted(engine._injectors)
        for injector in engine._injectors[site]
    ]


class TestOps:
    def test_spawn_and_destroy(self):
        world = _world()
        world.apply(step("spawn", memory_mb=128, lightvm=True))
        world.apply(step("spawn", memory_mb=64, lightvm=False))
        assert len(world.domains) == 2
        world.apply(step("destroy", index=0))
        assert len(world.domains) == 1
        assert world.counts["spawns"] == 2 and world.counts["destroys"] == 1

    def test_destroy_with_no_domains_is_a_noop(self):
        world = _world()
        world.apply(step("destroy", index=5))
        assert "no-op" in world.trace[-1]

    def test_migrate_converged_removes_source(self):
        world = _world()
        world.apply(step("spawn", memory_mb=128, lightvm=True))
        world.apply(
            step("migrate", index=0, dirty_rate=0, downtime_ms=300)
        )
        assert world.counts["migrations_converged"] == 1
        assert len(world.domains) == 0

    def test_migrate_nonconvergent_aborts_and_source_stays(self):
        world = _world()
        world.apply(step("spawn", memory_mb=256, lightvm=True))
        world.apply(
            step("migrate", index=0, dirty_rate=400_000, downtime_ms=1)
        )
        assert world.counts["migrations_aborted"] == 1
        # Migration-safety invariant: the source is still runnable.
        assert len(world.domains) == 1

    def test_remus_epoch_then_failover(self):
        world = _world()
        world.apply(step("remus_epoch", dirty_pages=100, packets=10))
        world.apply(step("remus_failover"))
        assert world.counts["remus_failovers"] == 1

    def test_remus_failover_without_epoch_is_a_noop(self):
        world = _world()
        world.apply(step("remus_failover"))
        assert "no-op" in world.trace[-1]

    def test_abom_patch_patches_both_sites(self):
        world = _world()
        world.apply(step("abom_patch", rounds=4))
        assert world.summary()["abom_patches"] == 1

    def test_net_burst_batched_and_unbatched(self):
        world = _world()
        world.apply(step("net_burst", count=4, size=100, batched=True))
        world.apply(step("net_burst", count=3, size=50, batched=False))
        assert world.summary()["net_requests"] == 7

    def test_blk_burst_commits_and_reads_back(self):
        world = _world()
        world.apply(
            step("blk_burst", start=10, count=4, batched=True, pattern=7)
        )
        assert world.summary()["committed_sectors"] == 4

    def test_inject_and_clear_faults(self):
        world = _world()
        world.apply(
            step("inject_fault", name="net-kill", mode="every", n=2, limit=2)
        )
        assert armed_specs(world.faults)
        world.apply(step("clear_faults", name="all"))
        assert not armed_specs(world.faults)

    def test_unknown_fault_menu_name_rejected(self):
        with pytest.raises(ValueError, match="unknown step op|unknown"):
            _world().apply(
                step("inject_fault", name="nope", mode="every", n=1, limit=1)
            )

    def test_fault_budget_caps_armed_limits(self):
        world = _world()
        budget = FAULT_MENU["net-kill"].budget
        for _ in range(4):  # more arms than budget
            world.apply(
                step(
                    "inject_fault",
                    name="net-kill",
                    mode="every",
                    n=1,
                    limit=4,
                )
            )
        armed = sum(
            spec.limit or 0 for spec in armed_specs(world.faults)
        )
        assert armed <= budget

    def test_fleet_ops_run_on_both_engines(self):
        world = _world()
        world.apply(step("fleet_spawn", count=2))
        world.apply(step("fleet_post", index=0, units=3))
        world.apply(step("fleet_tick", ticks=20))
        world.apply(step("fleet_drain"))
        hybrid, stepped = world.fleets
        assert hybrid.n_domains == stepped.n_domains == 2
        assert hybrid.total_completed() == stepped.total_completed() == 3

    def test_survives_faults_during_io(self):
        world = _world()
        world.apply(
            step("inject_fault", name="blk-kill", mode="every", n=1, limit=2)
        )
        world.apply(
            step("blk_burst", start=0, count=4, batched=False, pattern=1)
        )
        assert world.summary()["faults_injected"] > 0
        assert world.summary()["faults_fatal"] == 0


class TestInvariantsAndDefects:
    def test_invariant_catalog_meets_acceptance_floor(self):
        assert len(INVARIANTS) >= 5
        assert len(DEFECTS) == 2

    def test_blk_lost_write_defect_caught_with_steps_attached(self):
        world = _world(defect="blk-lost-write")
        with pytest.raises(FuzzFailure) as caught:
            world.apply(
                step("blk_burst", start=1, count=1, batched=False, pattern=0)
            )
        assert "blk-committed-bytes" in str(caught.value)
        assert caught.value.steps  # the repro rides on the exception
        assert world.failed

    def test_fleet_skew_defect_caught_by_engine_identity(self):
        world = _world(defect="fleet-skew")
        world.apply(step("fleet_spawn", count=1))
        with pytest.raises(FuzzFailure) as caught:
            world.apply(step("fleet_post", index=0, units=1))
        assert "engine-identity" in str(caught.value)

    def test_unknown_defect_rejected(self):
        with pytest.raises(ValueError, match="unknown defect"):
            FuzzWorld(seed=0, defect="nonesuch")


class TestFinalizeAndTrace:
    def test_finalize_is_idempotent_and_returns_int_summary(self):
        world = _world()
        world.apply(step("fleet_spawn", count=1))
        world.apply(step("fleet_post", index=0, units=2))
        first = world.finalize()
        second = world.finalize()
        assert first == second
        assert all(isinstance(v, int) for v in first.values())
        assert first["fleet_units_completed"] == 2

    def test_trace_is_deterministic_for_same_seed_and_steps(self):
        ops = (
            step("spawn", memory_mb=128, lightvm=True),
            step("net_burst", count=2, size=64, batched=False),
            step("blk_burst", start=0, count=2, batched=True, pattern=9),
            step("fleet_spawn", count=1),
            step("fleet_post", index=0, units=1),
            step("fleet_drain"),
        )

        def run():
            world = FuzzWorld(seed=17)
            for one in ops:
                world.apply(one)
            world.finalize()
            return world.render_trace("clean")

        assert run() == run()

    def test_different_world_seed_changes_nothing_fatal(self):
        world = FuzzWorld(seed="string-seed")
        world.apply(step("spawn", memory_mb=64, lightvm=True))
        world.finalize()
        assert not world.failed
