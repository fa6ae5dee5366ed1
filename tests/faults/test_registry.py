"""The scenario catalog and its lookups.

Build order is the catalog (report) order, names are unique, and
unknown-name errors list the catalog sorted.
"""

import pytest

from repro.faults import registry
from repro.faults.scenarios import CATALOG, _build_catalog

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


class TestRegistry:
    def test_shipped_catalog_registers_in_order(self):
        assert registry.scenario_names() == EXPECTED_CATALOG

    def test_names_are_unique(self):
        # A duplicate name would collapse into one mapping entry.
        assert [s.name for s in _build_catalog()] == list(CATALOG)

    def test_get_scenario_returns_the_registered_object(self):
        scenario = registry.get_scenario("nginx-packet-loss")
        assert scenario is CATALOG["nginx-packet-loss"]

    def test_unknown_name_error_lists_catalog_sorted(self):
        with pytest.raises(KeyError) as caught:
            registry.get_scenario("nonesuch")
        message = str(caught.value)
        assert "unknown scenario 'nonesuch'" in message
        listed = message.split("known: ")[1].rstrip("\")'").split(", ")
        assert listed == sorted(registry.scenario_names())

    def test_package_exports_the_registry_surface(self):
        import repro.faults as faults

        assert faults.scenario_names is registry.scenario_names
        assert faults.get_scenario is registry.get_scenario
