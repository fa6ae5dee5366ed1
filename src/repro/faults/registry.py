"""The decorator-based scenario registry (the canonical Scenario API).

PR 3 shipped the chaos catalog as a hand-maintained ``SCENARIOS`` dict in
:mod:`repro.faults.scenarios`; every new scenario meant editing a
module-level literal, and nothing stopped a body from registering under
one name and rendering under another.  This module replaces that with a
decorator registry:

* :func:`scenario` — declare a scenario by decorating its body::

      @scenario(
          name="backend-death-memcached",
          description="netback dies under load ...",
          substrates=("xen.drivers",),
          plan=_plan_backend_death,
      )
      def _run_backend_death(ctx: ScenarioContext) -> dict:
          ...

* :func:`register` — register an already-built :class:`Scenario`
  (what :meth:`Scenario.from_steps` promotions use);
* :func:`get_scenario` / :func:`list_scenarios` /
  :func:`scenario_names` — the lookup surface.

Ordering contract: the catalog keeps **registration order** (the chaos
report's row order is part of the byte-identical-replay bar), while the
unknown-name error and ``repro chaos --list`` sort names so messages are
deterministic regardless of registration order.

The old module-level surface — ``scenarios.SCENARIOS`` /
``scenarios.get`` / ``scenarios.names`` — has been removed; the
migration table in ``docs/stateful_fuzzing.md`` maps each name to its
replacement here.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.faults.chaos import Scenario, ScenarioContext
from repro.faults.plan import FaultPlan

#: Registration-ordered catalog (insertion order is the report order).
_REGISTRY: dict[str, Scenario] = {}


def _ensure_catalog() -> None:
    """Materialize the shipped catalog on first lookup.

    The shipped scenarios register themselves at
    :mod:`repro.faults.scenarios` import time; importing it lazily here
    keeps ``repro.faults`` cheap for substrates that only need site
    names and retry policies.
    """
    import repro.faults.scenarios  # noqa: F401  (import-for-effect)


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register a built :class:`Scenario`; returns it for chaining.

    Promoted shrunk fuzz failures (:meth:`Scenario.from_steps`) enter the
    catalog through here and become first-class entries — they run under
    ``repro chaos``, the sanitize harness, and the CI recovery gate like
    any hand-written scenario.
    """
    if scenario.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove a scenario (test isolation helper)."""
    _REGISTRY.pop(name, None)


def scenario(
    *,
    name: str,
    description: str,
    substrates: Iterable[str] = (),
    plan: Callable[[int | str], FaultPlan],
    replace: bool = False,
) -> Callable[[Callable[[ScenarioContext], dict]], Scenario]:
    """Decorator: declare the decorated body as a catalog scenario.

    The decorated function is replaced by the registered
    :class:`Scenario` (the body stays reachable as ``scenario.body``).
    """

    def decorate(body: Callable[[ScenarioContext], dict]) -> Scenario:
        return register(
            Scenario(
                name=name,
                description=description,
                substrates=tuple(substrates),
                default_plan=plan,
                body=body,
            ),
            replace=replace,
        )

    return decorate


def get_scenario(name: str) -> Scenario:
    """Look up one scenario; unknown names list the catalog *sorted*."""
    _ensure_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r} (known: {known})"
        ) from None


def scenario_names() -> list[str]:
    """Catalog names in registration (= report) order."""
    _ensure_catalog()
    return list(_REGISTRY)


def list_scenarios() -> list[Scenario]:
    """The catalog in registration (= report) order."""
    _ensure_catalog()
    return list(_REGISTRY.values())
