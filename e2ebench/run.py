"""End-to-end benchmark of the X-Containers reproduction.

    python3 e2ebench/run.py --workload figures --seed 0 --seconds 35 --trace 0
    python3 e2ebench/run.py --workload all --seconds 35   # every workload
    python3 e2ebench/run.py --self-test                   # smoke sizes

One client drives each workload in a closed loop: one run at a time, each
in a fresh process (``child.py``), so the decode cache, the trace cache
and the process-wide trace-compile memo start empty, as they do for a CLI
user.  Runs repeat until ``--seconds`` have passed (at least three).

Host times are the minimum over the runs (min-of-N); peak memory is the
median.  Interference on a shared host only ever adds time, and a host
that flips between a fast and a ~1.5x slower speed for tens of seconds
at a time moves a run's median with whichever speed held longest, while
the minimum follows the fast speed.  ``README.md`` has the measurements.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` alternates untraced and traced runs and adds
one run under ``cProfile``, and reports the per-layer metrics: layer self
times and counts, ``trace.overhead``, the ``sim.*`` record and the
``profile.*`` share map.

Every run's output is checked; a run of one commit must reproduce the
same bytes and ``sim.*`` values as every other run of it.  The last line
of standard output is the result object; the line before it holds the
run's context (host facts, sample counts, samples, ``sim.*``, digests).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import FULL, SIM_METRICS, WORKLOADS  # noqa: E402

#: Fewest untraced runs one benchmark run makes.
MIN_RUNS = 3
#: A single run that takes longer than this is killed and the benchmark fails.
RUN_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """A run crashed, timed out or printed no record."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version()}


def spawn(workload: str, seed: int, mode: str, size: str) -> dict:
    """Run ``child.py`` once, wait for it, and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
           size]
    # Bytecode caching on, as for an installed CLI, whatever the caller's
    # environment says; the warm-up run fills the cache.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{mode} run of {workload} exceeded {RUN_TIMEOUT_S}s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} run of {workload} failed (exit {proc.returncode}):\n"
            + proc.stderr[-4000:]
        )
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_start"] - launched
    record["mode"] = mode
    return record


def collect(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> list[dict]:
    """Closed loop: runs back to back until ``seconds`` have passed."""
    spawn(workload, seed, "warm", size)
    modes = ("plain", "trace") if trace else ("plain",)
    records: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        for mode in modes:
            records.append(spawn(workload, seed, mode, size))
        plain = sum(r["mode"] == "plain" for r in records)
        if time.monotonic() >= deadline and plain >= MIN_RUNS:
            break
    if trace:
        records.append(spawn(workload, seed, "profile", size))
    return records


def verify(records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failures) over all runs, including any run
    whose output bytes or ``sim.*`` values differ from the first run's."""
    reference = records[0]
    attempted = failed = 0
    failures: list[str] = []
    for index, record in enumerate(records):
        attempted += record["attempted"]
        failed += record["failed"]
        failures.extend(record["failures"])
        for op, value in record["digests"].items():
            if reference["digests"].get(op) != value:
                failed += 1
                failures.append(f"run {index}: output of {op} differs")
        if record["sim"] != reference["sim"]:
            failed += 1
            failures.append(f"run {index}: sim.* differs")
    return attempted, failed, failures


def fastest(records: list[dict], mode: str) -> dict:
    return min((r for r in records if r["mode"] == mode),
               key=lambda r: r["wall_s"])


def end_to_end(records: list[dict]) -> dict[str, float]:
    plain = [r for r in records if r["mode"] == "plain"]
    best = fastest(records, "plain")
    return {
        "wall_s": best["wall_s"],
        "setup_s": min(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["rss_kib"] for r in plain) / 1024,
        "requests_per_host_s": best["requests"] / best["wall_s"],
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    """The fastest traced run's layer metrics, which add up to its wall
    time, and its overhead over the fastest untraced run."""
    traced = fastest(records, "trace")
    out = dict(traced["layers"])
    out["trace.overhead"] = (
        traced["wall_s"] / fastest(records, "plain")["wall_s"] - 1.0
    )
    for name in SIM_METRICS:
        out[name] = records[0]["sim"].get(name, 0)
    profiled = [r for r in records if r["mode"] == "profile"]
    out.update(profiled[0]["profile"])
    return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: str = FULL) -> tuple[dict, dict]:
    """(result object, context) of one benchmark run of one workload."""
    spec = load_spec()
    records = collect(workload, seed, seconds, trace, size)
    attempted, failed, failures = verify(records)
    values = per_layer(records) if trace else end_to_end(records)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "host": host_facts(),
        "runs": {
            mode: sum(r["mode"] == mode for r in records)
            for mode in ("plain", "trace", "profile")
        },
        "samples": {
            key: [r[key] for r in records if r["mode"] == "plain"]
            for key in ("wall_s", "setup_s", "rss_kib", "requests")
        },
        "sim": records[0]["sim"],
        "digests": records[0]["digests"],
        "failures": failures[:20],
    }
    return result, context


def print_metrics(label: str, result: dict) -> None:
    """Every metric by name with its unit, for a reader (standard error)."""
    for name, metric in result["metrics"].items():
        print(f"{label}{name:<40} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at its smallest size and "
                        "check the metrics, the traces and the wrappers")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        sys.path.insert(0, str(ROOT / "src"))
        from selftest import self_test

        return self_test(benchmark, load_spec())
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, context = benchmark(
                name, args.seed, args.seconds, bool(args.trace)
            )
            print_metrics(f"{name:<12} ", result)
            print(json.dumps({"context": context}))
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:  # every workload: metric names gain a "<workload>." prefix
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
