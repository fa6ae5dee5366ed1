"""The trace recorder: spans and instant events on the simulated clock.

One :class:`TraceRecorder` records two kinds of item against one
:class:`~repro.perf.clock.SimClock`:

* **spans** — named intervals with a deterministic id and an explicit
  parent (the innermost span open when it started), via
  :meth:`~TraceRecorder.begin`/:meth:`~TraceRecorder.end` or the
  :meth:`~TraceRecorder.span` context manager;
* **instant events** — ``emit(category, name, **detail)``, read back
  with :meth:`~TraceRecorder.events`.  The X-Kernel, ABOM, X-LibOS, each
  vCPU's trace cache and the fault engine emit these once
  ``XContainer.attach_tracer(recorder)`` points them at a recorder;
  ``detail`` keeps the emitter's raw values.

Both kinds share one bounded store: past ``capacity`` records the oldest
is evicted in O(1) and counted in :attr:`TraceRecorder.dropped`, and the
first eviction of an overflow episode warns once (:meth:`~TraceRecorder.
clear` re-arms the warning).  Recording never advances the clock, so
tracing cannot perturb simulated results.

Export: :func:`repro.obs.exporters.chrome_trace_json` and
:meth:`TraceRecorder.render` (``repro trace``) show spans only.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.perf.clock import SimClock


@dataclass(frozen=True)
class Span:
    """One finished span (ids are per-recorder, deterministic)."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: float
    end_ns: float
    labels: tuple[tuple[str, str], ...] = ()

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class TraceEvent:
    """One instant event; ``detail`` holds the emitter's raw values."""

    ts_ns: float
    category: str
    name: str
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class _ActiveSpan:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: float
    labels: tuple[tuple[str, str], ...]


class TraceRecorder:
    """Spans and instant events against one clock, in one bounded store."""

    def __init__(self, clock: SimClock, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.clock = clock
        self._records: deque[Span | TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._overflow_warned = False
        self._stack: list[_ActiveSpan] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def _store(self, record: Span | TraceEvent) -> None:
        records = self._records
        if len(records) == records.maxlen:
            self.dropped += 1
            if not self._overflow_warned:
                # Warn once per overflow episode (chaos runs can emit far
                # more than a small capacity) instead of dropping
                # silently; ``dropped`` keeps the exact count either way.
                self._overflow_warned = True
                warnings.warn(
                    f"TraceRecorder ring overflowed its capacity of "
                    f"{records.maxlen}; oldest records are being dropped "
                    f"(raise TraceRecorder(capacity=...) to keep them)",
                    RuntimeWarning,
                    stacklevel=3,
                )
        records.append(record)

    def emit(self, category: str, name: str, **detail: Any) -> None:
        """Record an instant event at the current simulated time."""
        self._store(TraceEvent(self.clock.now_ns, category, name, detail))

    def begin(self, name: str, **labels: object) -> _ActiveSpan:
        parent = self._stack[-1].span_id if self._stack else None
        span = _ActiveSpan(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start_ns=self.clock.now_ns,
            labels=tuple(
                (k, str(v)) for k, v in sorted(labels.items())
            ),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, active: _ActiveSpan) -> Span:
        if not self._stack or self._stack[-1] is not active:
            raise RuntimeError(
                f"span {active.name!r} ended out of order"
            )
        self._stack.pop()
        span = Span(
            span_id=active.span_id,
            parent_id=active.parent_id,
            name=active.name,
            start_ns=active.start_ns,
            end_ns=self.clock.now_ns,
            labels=active.labels,
        )
        self._store(span)
        return span

    def span(self, name: str, **labels: object) -> "_SpanContext":
        """Context manager: ``with recorder.span("netfront.tx"): ...``."""
        return _SpanContext(self, name, labels)

    # -- queries -------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans still in the store, oldest first."""
        return [
            r for r in self._records
            if isinstance(r, Span) and (name is None or r.name == name)
        ]

    def events(
        self, category: str | None = None, name: str | None = None
    ) -> list[TraceEvent]:
        """Instant events still in the store, oldest first."""
        return [
            r for r in self._records
            if isinstance(r, TraceEvent)
            and (category is None or r.category == category)
            and (name is None or r.name == name)
        ]

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
        self._overflow_warned = False

    def render(self, limit: int = 50) -> str:
        """Deterministic fixed-width span table (``repro trace``): the
        header, then the last ``limit`` finished spans."""
        lines = [
            f"{'id':>6} {'parent':>6} {'start us':>14} {'dur us':>12}  name",
        ]
        spans = self.spans()
        for span in spans[max(len(spans) - limit, 0):]:
            parent = str(span.parent_id) if span.parent_id else "-"
            labels = " ".join(f"{k}={v}" for k, v in span.labels)
            name = f"{span.name} {labels}".rstrip()
            lines.append(
                f"{span.span_id:>6} {parent:>6} "
                f"{span.start_ns / 1e3:>14.3f} "
                f"{span.duration_ns / 1e3:>12.3f}  {name}"
            )
        return "\n".join(lines)


@dataclass
class _SpanContext:
    recorder: TraceRecorder
    name: str
    labels: dict[str, object]
    finished: Span | None = field(default=None)
    _active: _ActiveSpan | None = field(default=None)

    def __enter__(self) -> "_SpanContext":
        self._active = self.recorder.begin(self.name, **self.labels)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finished = self.recorder.end(self._active)
