"""Experiment runner: regenerate any table or figure by id."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    fig1_architectures,
    fig3_macro,
    fig4_syscall,
    fig5_micro,
    fig6_libos,
    fig8_scalability,
    fig9_lb,
    spawn,
    sweep,
    table1,
    validation,
)
from repro.experiments.report import ExperimentResult


def _as_list(result) -> list[ExperimentResult]:
    if isinstance(result, ExperimentResult):
        return [result]
    return list(result)


_EXPERIMENTS: dict[str, Callable[[], object]] = {
    "table1": table1.run,
    "fig1": fig1_architectures.run,
    "fig3": fig3_macro.run,
    "fig4": fig4_syscall.run,
    "fig5": fig5_micro.run,
    "fig6": fig6_libos.run,
    "fig8": fig8_scalability.run,
    "fig9": fig9_lb.run,
    "spawn": spawn.run,
    "validate": validation.run,
    "sweep": sweep.run,
}


def experiment_ids() -> list[str]:
    return sorted(_EXPERIMENTS)


def run_experiment(experiment_id: str) -> list[ExperimentResult]:
    runner = _EXPERIMENTS.get(experiment_id)
    if runner is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(experiment_ids())}"
        )
    return _as_list(runner())
