"""Stateful whole-stack scenario fuzzing (ROADMAP item 5).

A Hypothesis rule machine (:mod:`repro.fuzz.machine`) drives every
substrate at once — domain lifecycle, live migration, Remus, ABOM,
split-driver I/O, runtime fault arm/disarm, and the dual hybrid/stepped
fleet engines — checking the invariant catalog
(:data:`repro.fuzz.world.INVARIANTS`) after every rule.  Rules record
themselves as serializable :class:`~repro.fuzz.steps.Step` values, so a
shrunk counterexample round-trips through JSON, replays byte-identically
(``repro chaos --replay``), and can be promoted into the scenario
catalog via :meth:`repro.faults.chaos.Scenario.from_steps`.

The rule machine and :func:`repro.fuzz.machine.run_fuzz` live in
``machine``, which pulls in Hypothesis, so this package does not import
it; the step schema and world are always available.
"""

from __future__ import annotations

from repro.fuzz.report import FuzzReport
from repro.fuzz.steps import OPS, Step, dumps, from_jsonable, loads, step
from repro.fuzz.world import DEFECTS, FAULT_MENU, INVARIANTS, FuzzFailure, FuzzWorld

__all__ = (
    "DEFECTS",
    "FAULT_MENU",
    "FuzzFailure",
    "FuzzReport",
    "FuzzWorld",
    "INVARIANTS",
    "OPS",
    "Step",
    "dumps",
    "from_jsonable",
    "loads",
    "step",
)
