"""Exporters: Prometheus exposition text, Chrome trace JSON, text table.

All three are deterministic — samples are sorted by ``(name, labels)``,
numbers render through one stable formatter, and JSON is emitted with
sorted keys and fixed separators — so a fixed-seed run produces
byte-identical output (the golden-file tests pin this).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.registry import (
    Histogram,
    Registry,
    format_value,
    render_sample_key,
)
from repro.obs.tracing import TraceRecorder

# ---------------------------------------------------------------------------
# Prometheus exposition format
# ---------------------------------------------------------------------------


def _prom_labels(labels: Iterable[tuple[str, str]], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in items
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n"
    )


def prometheus_text(registry: Registry) -> str:
    """Render every sample in the Prometheus text exposition format.

    Histograms expand to ``_bucket{le=...}`` series (cumulative), plus
    ``_sum`` and ``_count``; ``# HELP`` / ``# TYPE`` headers are emitted
    once per metric name, at its first (sorted) occurrence.
    """
    lines: list[str] = []
    seen_headers: set[str] = set()
    for sample in registry.collect():
        if sample.name not in seen_headers:
            seen_headers.add(sample.name)
            if sample.help:
                lines.append(f"# HELP {sample.name} {sample.help}")
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if isinstance(sample.value, Histogram):
            hist = sample.value
            for edge, cumulative in zip(hist.buckets, hist.cumulative()):
                lines.append(
                    f"{sample.name}_bucket"
                    f"{_prom_labels(sample.labels, (('le', format_value(edge)),))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{sample.name}_bucket"
                f"{_prom_labels(sample.labels, (('le', '+Inf'),))}"
                f" {hist.count}"
            )
            lines.append(
                f"{sample.name}_sum{_prom_labels(sample.labels)} "
                f"{format_value(hist.sum)}"
            )
            lines.append(
                f"{sample.name}_count{_prom_labels(sample.labels)} "
                f"{hist.count}"
            )
        else:
            lines.append(
                f"{sample.name}{_prom_labels(sample.labels)} "
                f"{format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace event format (about://tracing, Perfetto)
# ---------------------------------------------------------------------------


def chrome_trace_json(spans: TraceRecorder, pretty: bool = False) -> str:
    """Finished spans as Chrome trace ``X`` (complete) events.

    Timestamps are microseconds (the format's unit); span/parent ids ride
    in ``args`` so Perfetto's flow queries can rebuild the hierarchy.
    """
    events = []
    for span in spans.spans():
        args: dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(dict(span.labels))
        events.append(
            {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.obs", "dropped_spans": spans.dropped},
    }
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ) + "\n"


# ---------------------------------------------------------------------------
# Deterministic text table
# ---------------------------------------------------------------------------


def render_table(registry: Registry) -> str:
    """Fixed-width table of every sample (``repro metrics`` default)."""
    rows: list[tuple[str, str, str]] = []
    for sample in registry.collect():
        key = render_sample_key(sample.name, sample.labels)
        if isinstance(sample.value, Histogram):
            hist = sample.value
            rows.append((key, "histogram", (
                f"count={hist.count} sum={format_value(hist.sum)} "
                f"mean={format_value(round(hist.mean, 3))}"
            )))
        else:
            rows.append((key, sample.kind, format_value(sample.value)))
    if not rows:
        return "(no metrics registered)\n"
    name_width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    lines = [
        f"{'metric':<{name_width}}  {'kind':<{kind_width}}  value",
        "-" * (name_width + kind_width + 9),
    ]
    for key, kind, value in rows:
        lines.append(f"{key:<{name_width}}  {kind:<{kind_width}}  {value}")
    return "\n".join(lines) + "\n"
