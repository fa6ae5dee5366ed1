"""Layer share map of one run under ``cProfile``.

Self time is aggregated by ``repro.<package>``; code the trace cache
generated (``<trace 0x…>`` code objects) gets its own ``arch.trace``
bucket, the only view inside ``CPU.run`` that separates generated trace
code from interpreter dispatch.  Code outside ``repro`` (built-ins, the
standard library, generated dataclass methods) is charged to the buckets
of its callers, in proportion to the time each caller spent in it.

The shares are informational and never gated: the profiler inflates
call-heavy code, and Fig 4 runs ~3x slower under it.
"""

from __future__ import annotations

import pstats
import re

#: Buckets, in report order; the benchmark itself, top-level ``repro``
#: modules and the packages no workload uses are ``other``.
BUCKETS = (
    "arch", "arch.trace", "core", "platforms", "guest", "serve", "xen",
    "faults", "obs", "perf", "experiments", "workloads", "lb", "other",
)
_PACKAGE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


def bucket_of(filename: str) -> str:
    if filename.startswith("<trace "):
        return "arch.trace"
    match = _PACKAGE.search(filename)
    if match and match.group(1) in BUCKETS:
        return match.group(1)
    return "other"


def share_map(profile) -> dict[str, float]:
    """``profile.<bucket>.share`` for every bucket, summing to 1."""
    stats = pstats.Stats(profile).stats
    mixes: dict[tuple, dict[str, float]] = {}

    def mix(func, visiting) -> dict[str, float]:
        """The buckets ``func``'s self time is charged to, by weight."""
        if func in mixes:
            return mixes[func]
        bucket = bucket_of(func[0])
        callers = stats[func][4] if func in stats else {}
        if bucket != "other" or not callers or func in visiting:
            return {bucket: 1.0}
        visiting.add(func)
        spent = sum(edge[2] for edge in callers.values())
        weights: dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        for caller, edge in callers.items():
            share = edge[2] / spent if spent else 1.0 / len(callers)
            for name, weight in mix(caller, visiting).items():
                weights[name] += share * weight
        visiting.discard(func)
        mixes[func] = weights
        return weights

    totals = dict.fromkeys(BUCKETS, 0.0)
    for func, (_, _, self_s, _, _) in stats.items():
        for name, weight in mix(func, set()).items():
            totals[name] += self_s * weight
    whole = sum(totals.values())
    return {
        f"profile.{bucket}.share": (totals[bucket] / whole if whole else 0.0)
        for bucket in BUCKETS
    }
