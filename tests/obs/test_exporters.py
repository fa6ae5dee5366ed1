"""Exporters: format correctness plus byte-identical golden fixtures.

The golden files under ``tests/obs/golden/`` were produced by
``run_demo(seed=1234, requests=8, syscall_iters=25)`` — the same
workload ``repro metrics`` / ``repro trace`` run.  If an intentional
change shifts the output, regenerate them with::

    PYTHONPATH=src python -c "
    from repro.obs import chrome_trace_json, prometheus_text
    from repro.obs.demo import run_demo
    tel = run_demo(seed=1234, requests=8, syscall_iters=25)
    open('tests/obs/golden/metrics.prom', 'w').write(prometheus_text(tel))
    open('tests/obs/golden/trace.json', 'w').write(
        chrome_trace_json(tel.spans))"
"""

import json
from pathlib import Path

from repro.obs import (
    Registry,
    TraceRecorder,
    chrome_trace_json,
    prometheus_text,
    render_table,
)
from repro.obs.demo import run_demo
from repro.perf.clock import SimClock

GOLDEN = Path(__file__).parent / "golden"


class TestPrometheusText:
    def test_counter_line_with_labels(self):
        registry = Registry()
        registry.counter("a_total", help="things", x="v").inc(3)
        text = prometheus_text(registry)
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{x="v"} 3' in text

    def test_histogram_expands_to_buckets_sum_count(self):
        registry = Registry()
        hist = registry.histogram("h_ns", buckets=(10.0, 100.0))
        hist.observe(5)
        hist.observe(50)
        hist.observe(5000)
        text = prometheus_text(registry)
        assert 'h_ns_bucket{le="10"} 1' in text
        assert 'h_ns_bucket{le="100"} 2' in text
        assert 'h_ns_bucket{le="+Inf"} 3' in text
        assert "h_ns_sum 5055" in text
        assert "h_ns_count 3" in text

    def test_label_values_escaped(self):
        registry = Registry()
        registry.counter("a_total", x='say "hi"\n').inc()
        assert 'x="say \\"hi\\"\\n"' in prometheus_text(registry)


class TestChromeTrace:
    def test_events_are_complete_phase_in_us(self):
        clock = SimClock()
        spans = TraceRecorder(clock)
        with spans.span("tx", port=3):
            clock.advance(2000.0)
        payload = json.loads(chrome_trace_json(spans))
        [event] = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 0.0
        assert event["dur"] == 2.0  # microseconds
        assert event["args"] == {"span_id": 1, "port": "3"}
        assert payload["otherData"]["dropped_spans"] == 0


class TestRenderTable:
    def test_empty_registry(self):
        assert "no metrics" in render_table(Registry())

    def test_rows_sorted_and_aligned(self):
        registry = Registry()
        registry.counter("b_total").inc()
        registry.gauge("a").set(2)
        lines = render_table(registry).splitlines()
        assert lines[2].startswith("a ")
        assert lines[3].startswith("b_total ")


class TestGoldenFiles:
    def test_prometheus_matches_fixture(self):
        tel = run_demo(seed=1234, requests=8, syscall_iters=25)
        expected = (GOLDEN / "metrics.prom").read_text()
        assert prometheus_text(tel) == expected

    def test_chrome_trace_matches_fixture(self):
        tel = run_demo(seed=1234, requests=8, syscall_iters=25)
        expected = (GOLDEN / "trace.json").read_text()
        assert chrome_trace_json(tel.spans) == expected

    def test_demo_is_deterministic_across_runs(self):
        first = run_demo(seed=7, requests=3, syscall_iters=5)
        second = run_demo(seed=7, requests=3, syscall_iters=5)
        assert prometheus_text(first) == prometheus_text(second)
        assert chrome_trace_json(first.spans) == chrome_trace_json(
            second.spans
        )
        assert first.snapshot() == second.snapshot()
