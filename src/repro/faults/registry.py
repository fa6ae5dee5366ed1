"""Lookups into the shipped chaos scenario catalog.

The catalog is :data:`repro.faults.scenarios.CATALOG`, a name →
:class:`Scenario` mapping in :func:`~repro.faults.scenarios._build_catalog`
order.  A new scenario, hand-written or a :meth:`Scenario.from_steps`
promotion of a shrunk fuzz failure, is one more entry in the tuple
``_build_catalog`` returns.

Ordering contract: the catalog keeps build order (the chaos report's row
order is part of the byte-identical-replay bar), while the unknown-name
error and ``repro chaos --list`` sort names so messages are
deterministic.

Both lookups import the catalog inside the call, so ``repro.faults``
stays cheap for substrates that only need site names and retry
policies, and the catalog loads on the first lookup.
"""

from __future__ import annotations

from repro.faults.chaos import Scenario


def get_scenario(name: str) -> Scenario:
    """Look up one scenario; unknown names list the catalog *sorted*."""
    from repro.faults.scenarios import CATALOG

    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(
            f"unknown scenario {name!r} (known: {known})"
        ) from None


def scenario_names() -> list[str]:
    """Catalog names in build (= report) order."""
    from repro.faults.scenarios import CATALOG

    return list(CATALOG)
