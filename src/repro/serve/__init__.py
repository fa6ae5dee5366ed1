"""``repro.serve`` — the multi-tenant IPVS serving fleet.

Turns the Fig 9 toy cluster (one IPVS director, three backends) into a
fleet-scale serving scenario: hundreds of backend X-Container domains
behind the live :class:`repro.guest.ipvs.IPVS` director, a seeded
open-loop traffic generator with heavy-tailed inter-arrivals and
keep-alive connection churn, a metrics-driven autoscaler, and a
``repro.faults`` chaos overlay with an SLO-recovery verdict — all on
the simulated clock, byte-identical per seed, with the arrival shards
optionally spread across worker processes (``repro serve --workers``).

See ``docs/serving.md`` for the scenario model and the determinism /
sharding contract.
"""

from repro.serve.autoscaler import AutoscaleDecision, Autoscaler
from repro.serve.engine import IntervalRow, ServeEngine, ServeResult
from repro.serve.fleet import BackendFleet, backend_host
from repro.serve.report import ServeReport, run_serve
from repro.serve.scenario import (
    SCENARIOS,
    AutoscalerPolicy,
    ChaosOverlay,
    RequestClass,
    ServeScenario,
    SloPolicy,
    get_scenario,
)
from repro.serve.traffic import SERVE_LATENCY_BUCKETS_NS

__all__ = [
    "SCENARIOS",
    "SERVE_LATENCY_BUCKETS_NS",
    "AutoscaleDecision",
    "Autoscaler",
    "AutoscalerPolicy",
    "BackendFleet",
    "ChaosOverlay",
    "IntervalRow",
    "RequestClass",
    "ServeEngine",
    "ServeReport",
    "ServeResult",
    "ServeScenario",
    "SloPolicy",
    "backend_host",
    "get_scenario",
    "run_serve",
]
