"""Deterministic fault injection and resilience (``repro.faults``).

§3.3 claims X-Containers inherit VM-grade resilience (Remus fault
tolerance, checkpoint/restore live migration); this package is how the
repository *tests* that claim instead of asserting it.  It provides:

* :mod:`~repro.faults.plan` — the seed-driven ``FaultPlan`` DSL and the
  compiled :class:`~repro.faults.plan.FaultEngine`;
* :mod:`~repro.faults.sites` — the catalog of injection points threaded
  through the substrates behind no-op defaults;
* :mod:`~repro.faults.retry` — bounded retry/backoff policies the
  frontends adopt so injected faults are survivable;
* :mod:`~repro.faults.chaos` / :mod:`~repro.faults.scenarios` — named
  failure scenarios with recovery invariants;
* :mod:`~repro.faults.registry` — the decorator-based scenario registry
  (:func:`~repro.faults.registry.scenario`,
  :func:`~repro.faults.registry.register`,
  :func:`~repro.faults.registry.get_scenario`) that replaced the old
  module-level ``SCENARIOS`` dict;
* :mod:`~repro.faults.report` — the ``repro chaos`` run report.

Only the light pieces are imported eagerly (substrates import site names
and retry policies from here); the chaos harness is imported on demand.
"""

from repro.faults.plan import (
    Every,
    Fault,
    FaultEngine,
    FaultPlan,
    FaultSpec,
    Nth,
    Probability,
    SiteCounters,
    TimeWindow,
)
from repro.faults.registry import (
    get_scenario,
    list_scenarios,
    register,
    scenario,
    scenario_names,
)
from repro.faults.retry import RetryExhausted, RetryPolicy

__all__ = [
    "Every",
    "Fault",
    "FaultEngine",
    "FaultPlan",
    "FaultSpec",
    "Nth",
    "Probability",
    "RetryExhausted",
    "RetryPolicy",
    "SiteCounters",
    "TimeWindow",
    "get_scenario",
    "list_scenarios",
    "register",
    "scenario",
    "scenario_names",
]
