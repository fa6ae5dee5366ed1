"""Bench: telemetry costs <2% on the functional HTTP request path.

The registry observes the substrates through lazy bindings — hot paths
keep mutating their own stat structs and the registry reads them at
collect time, so bound instruments are free by construction.  What DOES
run per request when a :class:`repro.obs.Registry` is attached to
:class:`FunctionalWrk` is:

* two ``self.telemetry is not None`` guards,
* one ``http.request`` span (two clock reads + record), and
* one latency ``Histogram.observe``.

The span and histogram only run for callers who opted in; the gate is
on what every *un-instrumented* request now pays: the guards.  Two
claims pinned here, mirroring ``test_faults_overhead``:

* with no telemetry attached, the added guards cost <2% of one
  whole-stack HTTP request (connect, parse, RamFS read, respond) —
  this is the CI overhead gate for ``test_functional_http_request_rate``;
* the *simulated* results are byte-identical with telemetry on or off:
  same latency samples, same simulated clock, same throughput — even
  with exports taken mid-run.

The opt-in instrument cost (span + observe per request) is measured and
recorded alongside the benchmark for trending, but not gated: a span is
real work the caller asked for, priced in wall time, never in simulated
time.  Wall-time uses min-of-rounds on both sides so scheduler noise
cannot fail the build.
"""

from repro.obs import Registry, TraceRecorder, prometheus_text
from repro.perf.clock import SimClock
from repro.workloads.wrk_functional import FunctionalWrk

#: Guards charged per request in the cost model below; ``run()``
#: evaluates one before the request and one after (see
#: ``FunctionalWrk.run``).
GUARDS_PER_OP = 2

REQUESTS = 500


def _telemetry():
    """A registry with a span recorder on a fresh clock."""
    registry = Registry()
    registry.spans = TraceRecorder(SimClock())
    return registry


def test_telemetry_overhead_under_two_percent(
    benchmark, record_rate, min_time
):
    wrk = FunctionalWrk()

    def requests():
        for _ in range(REQUESTS):
            status, _body = wrk.client.get(("10.0.0.1", 80), wrk.path)
            assert status == 200
        return REQUESTS

    ops = benchmark(requests)
    request_s = min_time(requests)

    def loop_only():
        for _ in range(REQUESTS * GUARDS_PER_OP):
            pass

    # What every request pays now: the telemetry-is-attached guards.
    def guards():
        for _ in range(REQUESTS * GUARDS_PER_OP):
            if wrk.telemetry is not None:
                pass

    guard_s = max(0.0, min_time(guards) - min_time(loop_only))
    overhead = guard_s / request_s
    assert overhead < 0.02, (
        f"telemetry guards cost {overhead:.2%} of the HTTP request path"
    )

    # What opted-in callers pay: one span + one observe per request.
    # Informational only — it is work the caller asked for.
    tel = _telemetry()
    hist = tel.histogram("net_http_request_latency_ns")

    def instruments():
        for _ in range(REQUESTS):
            with tel.span("http.request", path="/index.html"):
                pass
            hist.observe(123456.0)

    instrument_s = max(
        0.0, min_time(instruments) - min_time(loop_only)
    )
    record_rate(
        benchmark,
        ops,
        telemetry_overhead=round(overhead, 5),
        opt_in_instrument_overhead=round(instrument_s / request_s, 5),
    )


def test_wired_telemetry_leaves_http_results_identical():
    def run(wired):
        tel = _telemetry() if wired else None
        wrk = FunctionalWrk(
            clock=tel.spans.clock if wired else None, telemetry=tel
        )
        first = wrk.run(40)
        if wired:
            tel.snapshot()  # exports mid-run are pure reads
            prometheus_text(tel)
        second = wrk.run(10)
        return (
            first.requests,
            first.errors,
            round(first.duration_ms, 9),
            round(first.throughput_rps, 9),
            tuple(first.latency_us.samples),
            tuple(second.latency_us.samples),
            wrk.clock.now_ns,
        )

    assert run(wired=True) == run(wired=False)


def test_wired_telemetry_records_what_it_observed():
    tel = _telemetry()
    wrk = FunctionalWrk(clock=tel.spans.clock, telemetry=tel)
    report = wrk.run(25)
    snap = tel.snapshot()
    assert report.errors == 0
    assert snap["histograms"]["net_http_request_latency_ns"]["count"] == 25
    assert snap["spans"]["by_name"]["http.request"]["count"] == 25
    assert tel.value("net_http_requests_total") == 25
