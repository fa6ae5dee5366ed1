"""Benchmark harness configuration.

Every figure benchmark regenerates one of the paper's tables/figures and
prints it, so ``pytest benchmarks/ --benchmark-only -s`` reproduces the
whole evaluation section.  Experiments are deterministic simulations; each
is run once per benchmark round.

The library benchmarks additionally record their throughput (ops/sec) and
decode-cache hit rates via the ``record_rate`` fixture; at session end the
collected numbers are merged into ``BENCH_interpreter.json`` at the repo
root (rows from other sessions are kept), next to the frozen pre-cache
seed baseline, so before/after is one file diff.
"""

import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_JSON = _REPO_ROOT / "BENCH_interpreter.json"

#: Library-benchmark results collected this session, keyed by test name.
_RESULTS: dict[str, dict] = {}

#: Numbers measured at the pre-decode-cache seed (commit 6c3bbca), same
#: machine class as CI: the "before" column for every later run.
SEED_BASELINE = {
    "test_interpreter_instruction_rate": {
        "mean_s": 0.10776,
        "ops_per_round": 6002,
        "ops_per_sec": 55_697,
    },
    "test_syscall_dispatch_rate": {
        "mean_s": 0.03556,
        "ops_per_round": 500,
        "ops_per_sec": 14_061,
    },
    "test_abom_patch_rate": {
        "mean_s": 0.001216,
        "ops_per_round": 100,
        "ops_per_sec": 82_237,
    },
    "test_functional_http_request_rate": {
        "mean_s": 3.86e-05,
        "ops_per_round": 1,
        "ops_per_sec": 25_907,
    },
    # These benchmarks postdate the seed freeze, so no "before" number
    # exists; the explicit null keeps speedup coverage aligned with the
    # results section instead of silently omitting them.
    "test_e2e_http_throughput": None,
    "test_ring_batch_ablation": None,
    "test_serve_fleet_request_rate": None,
    "test_fleet_scale_1000": None,
}


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return its
    result (the experiments are deterministic; repeated rounds only
    re-measure harness time)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner


def _mean_seconds(benchmark):
    """Best-effort mean round time; None under --benchmark-disable."""
    for probe in ("stats.stats.mean", "stats.mean"):
        obj = benchmark
        try:
            for attr in probe.split("."):
                obj = getattr(obj, attr)
            return float(obj)
        except (AttributeError, TypeError, ValueError):
            continue
    return None


@pytest.fixture
def record_rate(request):
    """Record a library benchmark's throughput for BENCH_interpreter.json.

    ``record_rate(benchmark, ops_per_round, icache=...)`` — call after the
    timed run; ops/sec is derived from the benchmark's mean round time.
    """

    def record(benchmark, ops_per_round, **extra):
        mean = _mean_seconds(benchmark)
        entry = {
            "mean_s": mean,
            "ops_per_round": ops_per_round,
            "ops_per_sec": round(ops_per_round / mean) if mean else None,
        }
        entry.update(extra)
        _RESULTS[request.node.name] = entry

    return record


def write_bench_json(path: Path, session_results: dict[str, dict]) -> None:
    """Merge one session's rows into the bench record at ``path``.

    CI records in several pytest sessions (library + serve, telemetry
    overhead, sanitizer overhead) before ``speedup_gate.py`` reads the
    file, so a session replaces only the rows it measured and keeps every
    other row; ``speedup_vs_seed`` is recomputed over the merged rows.
    """
    previous: dict = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (ValueError, OSError):
            previous = {}
    results = {**previous.get("results", {}), **session_results}
    baseline = {
        name: dict(values) if values is not None else None
        for name, values in SEED_BASELINE.items()
    }
    speedups = {}
    for name, entry in results.items():
        baseline.setdefault(name, None)
        seed = baseline[name]
        if seed and entry.get("ops_per_sec"):
            speedups[name] = round(
                entry["ops_per_sec"] / seed["ops_per_sec"], 2
            )
        else:
            # Explicit null: every result row has a speedup entry, even
            # when there is no seed to compare against.
            speedups[name] = None
    # High-water marks for the regression gate (speedup_gate.py): keep
    # the best ops/sec ever recorded for each benchmark.
    best = {
        name: value
        for name, value in previous.get("best_ops_per_sec", {}).items()
        if isinstance(value, (int, float))
    }
    for name, entry in session_results.items():
        ops = entry.get("ops_per_sec")
        if ops:
            best[name] = max(best.get(name, 0), ops)
    payload = {
        "generated_by": "benchmarks/conftest.py",
        "seed_baseline": baseline,
        "results": results,
        "speedup_vs_seed": speedups,
        "best_ops_per_sec": dict(sorted(best.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def pytest_sessionfinish(session, exitstatus):
    if _RESULTS:
        write_bench_json(_BENCH_JSON, _RESULTS)
