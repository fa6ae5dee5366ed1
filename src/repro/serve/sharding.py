"""Shard runners: the same work, serially or across worker processes.

The scenario fixes the number of arrival shards; the *runner* only
decides where each shard's pure interval function executes.  Because
:func:`repro.serve.traffic.run_shard_interval` takes everything it
needs as arguments and seeds its RNG from ``(seed, shard, interval)``,
results are byte-identical for any worker count — the process pool buys
wall-clock throughput, never different numbers.

The pool uses the ``fork`` start method (the static
:class:`ShardConfig` rides a module global set by the pool
initializer); on hosts without ``fork`` the runner silently degrades to
serial execution, which is always correct.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Sequence

from repro.serve.traffic import (
    ShardConfig,
    ShardIntervalResult,
    ShardSnapshot,
    ShardState,
    run_shard_interval,
)

_WORKER_CFG: ShardConfig | None = None

ShardTask = tuple[int, ShardState, ShardSnapshot]
ShardOutcome = tuple[ShardIntervalResult, ShardState]


def _init_worker(cfg: ShardConfig) -> None:
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _run_task(task: ShardTask) -> ShardOutcome:
    assert _WORKER_CFG is not None
    shard_idx, state, snap = task
    return run_shard_interval(_WORKER_CFG, shard_idx, state, snap)


class SerialRunner:
    """Every shard in-process; the reference semantics."""

    workers = 1

    def __init__(self, cfg: ShardConfig) -> None:
        self.cfg = cfg

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        return [
            run_shard_interval(self.cfg, shard_idx, state, snap)
            for shard_idx, state, snap in tasks
        ]

    def close(self) -> None:
        pass


class ProcessRunner:
    """Shards fan out over a fork pool; results merge in shard order."""

    def __init__(self, cfg: ShardConfig, workers: int) -> None:
        self.cfg = cfg
        self.workers = workers
        context = multiprocessing.get_context("fork")
        self._pool = context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(cfg,),
        )

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        # Pool.map preserves task order, so the merge downstream is the
        # same as the serial runner's.
        return self._pool.map(_run_task, list(tasks), chunksize=1)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def make_runner(
    cfg: ShardConfig,
    shards: int,
    workers: int | None = None,
) -> SerialRunner | ProcessRunner:
    """Pick a runner; ``workers=None`` sizes the pool from the host."""
    if workers is None:
        workers = max(1, min(shards, (os.cpu_count() or 1) - 1))
    if workers <= 1:
        return SerialRunner(cfg)
    try:
        return ProcessRunner(cfg, min(workers, shards))
    except ValueError:  # no fork start method on this platform
        return SerialRunner(cfg)
