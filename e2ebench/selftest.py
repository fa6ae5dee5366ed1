"""Benchmark self-test: every workload at its smallest size.

    python3 e2ebench/run.py --self-test

Exits non-zero unless all of these hold:

1. a ``--trace 0`` and a ``--trace 1`` run of each workload pass their
   output checks and emit exactly the metrics ``BENCHMARK.json`` names,
   each a number with the unit named there and a name matching
   ``[A-Za-z0-9_.-]+``;
2. in a traced run, the layer self times plus ``unattributed.self_s`` add
   up to the traced wall time, and no self time is negative;
3. the wrappers are removed afterwards: every patched name is the
   original function again, and an untraced run after a traced one in
   the same process gives identical ``sim.*`` values.

For ``figures`` it also checks that the traced syscall count
(``guest.kernel.syscalls``) equals the untraced ``sim.figures.guest_syscalls``.
"""

from __future__ import annotations

import math
import re
import sys

import child
import layers
from workloads import SMOKE, WORKLOADS

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(label: str, result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(
            f"{label}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(
            f"{label}: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name, metric in metrics.items():
        value = metric.get("value")
        if not NAME_RE.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        if metric.get("unit") != units.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def check_traced(workload: str) -> list[str]:
    """Additivity of the traced run, then wrapper removal (in-process)."""
    problems = []
    originals = {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _, _ in layers.targets()
    }
    traced = child.measure(workload, 0, "trace", SMOKE)
    restored = all(
        owner.__dict__[attr] is original
        for (owner, attr), original in originals.items()
    )
    if not restored:
        problems.append(f"{workload}: wrappers left installed")
    plain = child.measure(workload, 0, "plain", SMOKE)
    if traced["sim"] != plain["sim"]:
        problems.append(
            f"{workload}: sim.* traced {traced['sim']} != untraced "
            f"{plain['sim']}"
        )
    metrics = traced["layers"]
    selfs = [metrics[name] for name in layers.SELF_TIME_METRICS]
    selfs.append(metrics["unattributed.self_s"])
    wall = metrics["trace.wall_s"]
    if abs(math.fsum(selfs) - wall) > 1e-6 * wall:
        problems.append(
            f"{workload}: self times sum to {math.fsum(selfs)}, "
            f"traced wall is {wall}"
        )
    if min(selfs) < -1e-9:
        problems.append(f"{workload}: negative self time {min(selfs)}")
    if workload == "figures" and (
        metrics["guest.kernel.syscalls"]
        != plain["sim"]["sim.figures.guest_syscalls"]
    ):
        problems.append(
            "figures: traced guest.kernel.syscalls "
            f"{metrics['guest.kernel.syscalls']} != census "
            f"{plain['sim']['sim.figures.guest_syscalls']}"
        )
    return problems


def self_test(benchmark, spec: dict) -> int:
    """``benchmark`` is :func:`run.benchmark`; ``spec`` is BENCHMARK.json."""
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            result, _ = benchmark(workload, 0, 0, trace, SMOKE)
            problems += check_result(
                f"{workload} --trace {int(trace)}", result, wanted
            )
        problems += check_traced(workload)
        print(f"self-test: {workload} done", file=sys.stderr)
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("self-test passed", file=sys.stderr)
    return 1 if problems else 0
