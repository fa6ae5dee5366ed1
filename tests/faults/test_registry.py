"""The scenario registry.

The registry is the canonical scenario surface: registration order is
the catalog order, and unknown-name errors list the catalog sorted.
"""

import pytest

from repro.faults import registry
from repro.faults.chaos import Scenario
from repro.faults.plan import FaultPlan

#: The 9 hand-written scenarios + the promoted fuzz sequence.
EXPECTED_CATALOG = [
    "backend-death-memcached",
    "migration-dirty-storm",
    "nginx-packet-loss",
    "grant-flaps-reconnect",
    "toolstack-spawn-timeouts",
    "scheduler-preemption-storm",
    "abom-cmpxchg-contention",
    "wake-drop-fleet",
    "event-storm-blkdev",
    "fuzz-notify-drop-burst",
]


def _scenario(name):
    return Scenario(
        name=name,
        description="test scenario",
        substrates=(),
        default_plan=lambda seed: FaultPlan((), seed),
        body=lambda ctx: {},
    )


class TestRegistry:
    def test_shipped_catalog_registers_in_order(self):
        assert registry.scenario_names() == EXPECTED_CATALOG

    def test_list_scenarios_matches_names(self):
        assert [
            s.name for s in registry.list_scenarios()
        ] == registry.scenario_names()

    def test_get_scenario_returns_the_registered_object(self):
        scenario = registry.get_scenario("nginx-packet-loss")
        assert scenario.name == "nginx-packet-loss"

    def test_unknown_name_error_lists_catalog_sorted(self):
        with pytest.raises(KeyError) as caught:
            registry.get_scenario("nonesuch")
        message = str(caught.value)
        assert "unknown scenario 'nonesuch'" in message
        listed = message.split("known: ")[1].rstrip("\")'").split(", ")
        assert listed == sorted(registry.scenario_names())

    def test_register_and_unregister(self):
        try:
            registry.register(_scenario("temp-entry"))
            assert "temp-entry" in registry.scenario_names()
        finally:
            registry.unregister("temp-entry")
        assert "temp-entry" not in registry.scenario_names()

    def test_duplicate_registration_rejected(self):
        try:
            registry.register(_scenario("temp-dup"))
            with pytest.raises(ValueError, match="already registered"):
                registry.register(_scenario("temp-dup"))
        finally:
            registry.unregister("temp-dup")

    def test_package_exports_the_registry_surface(self):
        import repro.faults as faults

        assert faults.scenario_names() == registry.scenario_names()
        assert faults.get_scenario is registry.get_scenario
        assert faults.register is registry.register
