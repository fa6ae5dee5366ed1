"""One run of one workload in a fresh process.

    python3 e2ebench/child.py WORKLOAD SEED MODE SIZE

MODE is ``plain`` (tracing off), ``trace`` (layer wrappers installed
before any ``repro`` object is built), ``profile`` (the timed phase under
``cProfile``) or ``warm`` (imports only, to fill the bytecode and page
caches before anything is timed).  SIZE is ``full`` or ``smoke``.

Prints one JSON record as its last line of output.  ``t_start`` is read
from the system-wide monotonic clock, so the launching process can take
the set-up time as ``t_start`` minus its own launch time.
"""

from __future__ import annotations

import cProfile
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("plain", "trace", "profile", "warm")


def measure(workload: str, seed: int, mode: str, size: str) -> dict:
    """Set up, time and check one run in this process."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    profiler = cProfile.Profile() if mode == "profile" else None
    try:
        inputs = wl.setup(seed, size)
        t_start = time.monotonic()
        if profiler is not None:
            profiler.enable()
        output = wl.run(inputs)
        if profiler is not None:
            profiler.disable()
        t_end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.remove()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome = wl.check(output)
    record = {
        "t_start": t_start,
        "wall_s": t_end - t_start,
        "rss_kib": rss_kib,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "requests": outcome.requests,
        "sim": outcome.sim,
        "digests": outcome.digests,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(record["wall_s"])
    if profiler is not None:
        from profile_map import share_map

        record["profile"] = share_map(profiler)
    return record


def main(argv: list[str]) -> int:
    workload, seed, mode, size = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; one of {MODES}")
    sys.path.insert(0, str(ROOT / "src"))
    if mode == "warm":
        import repro.experiments.runner  # noqa: F401
        import repro.faults.report  # noqa: F401
        import repro.serve  # noqa: F401
        from layers import targets

        list(targets())  # imports every wrapped module
        print(json.dumps({"t_start": time.monotonic()}))
        return 0
    print(json.dumps(measure(workload, int(seed), mode, size)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
