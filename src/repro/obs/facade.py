"""The ``Telemetry`` facade: one object behind every stats surface.

Bundles a :class:`~repro.obs.registry.Registry` (metrics) with a
:class:`~repro.obs.tracing.TraceRecorder` (spans) on one simulated clock,
and exposes the three exporters.  ``XContainer.telemetry()`` returns one
of these; ``snapshot()`` is the single deterministic structure the
acceptance criteria ask for — icache, hypercall, I/O-batch, HTTP-latency
and fault counters in one query.
"""

from __future__ import annotations

from typing import Any

from repro.obs import exporters
from repro.obs.registry import Registry
from repro.obs.tracing import TraceRecorder
from repro.perf.clock import SimClock


class Telemetry:
    """Registry + trace recorder over one clock; the ``telemetry()`` API."""

    def __init__(
        self, clock: SimClock | None = None, **labels: object
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.registry = Registry(**labels)
        self.spans = TraceRecorder(self.clock)
        self.registry.spans = self.spans

    # -- scoping / spans ----------------------------------------------
    def child(self, **labels: object) -> Registry:
        """A label-scoped registry view (shares the store and spans)."""
        return self.registry.child(**labels)

    def span(self, name: str, **labels: object) -> Any:
        return self.registry.span(name, **labels)

    # -- instruments (delegation for the common cases) ----------------
    def counter(self, name: str, help: str = "", **labels: object) -> Any:
        return self.registry.counter(name, help=help, **labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Any:
        return self.registry.gauge(name, help=help, **labels)

    def histogram(self, name: str, help: str = "", **labels: object) -> Any:
        return self.registry.histogram(name, help=help, **labels)

    def value(self, name: str, **labels: object) -> float:
        return self.registry.value(name, **labels)

    # -- the one query ------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics plus span aggregates, deterministically ordered."""
        snap = self.registry.snapshot()
        spans = self.spans.spans()
        by_name: dict[str, dict[str, float]] = {}
        for span in spans:
            agg = by_name.setdefault(
                span.name, {"count": 0, "total_ns": 0.0}
            )
            agg["count"] += 1
            agg["total_ns"] += span.duration_ns
        snap["spans"] = {
            "finished": len(spans),
            "dropped": self.spans.dropped,
            "by_name": dict(sorted(by_name.items())),
        }
        return snap

    # -- exporters -----------------------------------------------------
    def prometheus_text(self) -> str:
        return exporters.prometheus_text(self.registry)

    def chrome_trace_json(self, pretty: bool = False) -> str:
        return exporters.chrome_trace_json(self.spans, pretty=pretty)

    def render_table(self) -> str:
        return exporters.render_table(self.registry)
