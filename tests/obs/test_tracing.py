"""Span recording: nesting, determinism, bounds, the shared store."""

import pytest

from repro.obs.tracing import TraceRecorder
from repro.perf.clock import SimClock


class TestSpans:
    def test_span_measures_simulated_time(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("work") as ctx:
            clock.advance(250.0)
        assert ctx.finished.duration_ns == 250.0
        assert recorder.spans("work") == [ctx.finished]

    def test_nested_spans_get_parent_ids(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("outer"):
            clock.advance(10)
            with recorder.span("inner"):
                clock.advance(5)
        inner, outer = recorder.spans("inner")[0], recorder.spans("outer")[0]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_ids_are_sequential_and_deterministic(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        for _ in range(3):
            with recorder.span("s"):
                pass
        assert [s.span_id for s in recorder.spans()] == [1, 2, 3]

    def test_out_of_order_end_raises(self):
        recorder = TraceRecorder(SimClock())
        a = recorder.begin("a")
        recorder.begin("b")
        with pytest.raises(RuntimeError):
            recorder.end(a)

    def test_labels_are_sorted_and_stringified(self):
        recorder = TraceRecorder(SimClock())
        with recorder.span("s", b=2, a=1) as ctx:
            pass
        assert ctx.finished.labels == (("a", "1"), ("b", "2"))

    def test_spans_never_advance_the_clock(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("s"):
            pass
        assert clock.now_ns == 0.0


class TestBounds:
    def test_capacity_drops_oldest(self):
        recorder = TraceRecorder(SimClock(), capacity=2)
        with pytest.warns(RuntimeWarning, match="ring overflowed"):
            for name in ("a", "b", "c"):
                with recorder.span(name):
                    pass
        assert [s.name for s in recorder.spans()] == ["b", "c"]
        assert recorder.dropped == 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(SimClock(), capacity=0)

class TestTracerIntegration:
    """Instant events share the span store, its capacity and its drops."""

    def test_spans_and_events_share_one_capacity(self):
        clock = SimClock()
        recorder = TraceRecorder(clock, capacity=2)
        recorder.emit("abom", "patch", site=0x400005)
        with recorder.span("s"):
            clock.advance(10)
        with pytest.warns(RuntimeWarning, match="ring overflowed"):
            recorder.emit("abom", "patch", site=0x400010)
        assert recorder.dropped == 1
        assert [s.name for s in recorder.spans()] == ["s"]
        assert [e.detail["site"] for e in recorder.events()] == [0x400010]

    def test_render_shows_spans_only(self):
        recorder = TraceRecorder(SimClock())
        recorder.emit("syscall", "lightweight", nr=39)
        with recorder.span("s"):
            pass
        assert "lightweight" not in recorder.render()
        assert recorder.render().splitlines()[-1].endswith("  s")

    def test_render_is_fixed_width(self):
        clock = SimClock()
        recorder = TraceRecorder(clock)
        with recorder.span("s", k="v"):
            clock.advance(1500)
        out = recorder.render()
        assert "s k=v" in out
        assert "1.500" in out  # duration in microseconds
