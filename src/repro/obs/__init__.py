"""``repro.obs`` — unified telemetry: metrics registry, spans, exporters.

One API behind every counter in the reproduction (§3.1's "profiling and
debugging tools keep working", applied to ourselves):

* :class:`Registry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — label-aware instruments with per-domain scoping
  via child registries; ``XContainer.telemetry()`` returns a
  ``Registry`` whose ``spans`` holds the container's trace recorder;
* :class:`TraceRecorder` / ``registry.span(...)`` — the one trace
  recorder: spans and instant events on the simulated clock (the
  X-Kernel, ABOM, X-LibOS, trace cache and fault engine emit into it via
  ``XContainer.attach_tracer``);
* :func:`prometheus_text`, :func:`chrome_trace_json`,
  :func:`render_table` — deterministic exporters (``repro metrics``,
  ``repro trace``).

See ``docs/telemetry.md`` for the naming convention and the migration
table from the removed per-subsystem accessors.
"""

from repro.obs.exporters import (
    chrome_trace_json,
    prometheus_text,
    render_table,
)
from repro.obs.registry import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
)
from repro.obs.tracing import Span, TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
    "TraceEvent",
    "TraceRecorder",
    "chrome_trace_json",
    "prometheus_text",
    "render_table",
]
