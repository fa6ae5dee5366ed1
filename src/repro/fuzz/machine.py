"""The Hypothesis rule machine over the whole stack.

:class:`StackMachine` mirrors the step catalog (:data:`repro.fuzz.steps.OPS`)
one rule per op: domain spawn/destroy, live migration, Remus
checkpoint/failover, ABOM online patching, batched/unbatched net and blk
bursts, fault arm/disarm through the menu, and dual-engine fleet
operations.  Every rule builds a serializable :class:`Step` and hands it
to :meth:`FuzzWorld.apply`, which checks the full invariant set — so a
Hypothesis counterexample IS a step list, and the shrunk failure
round-trips through JSON (:func:`repro.fuzz.steps.dumps`) and replays
byte-identically (:func:`repro.fuzz.replay.replay_steps`).

:func:`run_fuzz` is the CLI/CI entry point: seeded, bounded, and
self-verifying — when a failure shrinks, the sequence is replayed twice
from scratch and the two traces are compared before the report claims a
reproducible find.
"""

from __future__ import annotations

import hashlib

from hypothesis import HealthCheck, Verbosity
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.fuzz.report import FuzzReport
from repro.fuzz.steps import Step, dumps, step
from repro.fuzz.world import DEFECTS, FAULT_MENU, FuzzWorld

#: Cap on simultaneously-live fuzz guests (keeps hypervisor memory and
#: run time bounded; the hypervisor holds 96 GB, dom0 + net pair ~5 GB).
MAX_FUZZ_DOMAINS = 12

#: Cap on fleet domains per engine (each spawn boots a real container).
MAX_FLEET_DOMAINS = 10

_FAULT_NAMES = tuple(sorted(FAULT_MENU))


class StackMachine(RuleBasedStateMachine):
    """Whole-stack stateful fuzz target.  Subclass via
    :func:`build_machine` to pin the world seed (and a defect hook)."""

    world_seed: int | str = 0
    defect: str | None = None

    def __init__(self) -> None:
        super().__init__()
        self.world = FuzzWorld(seed=self.world_seed, defect=self.defect)

    # -- helpers --------------------------------------------------------
    def _do(self, one: Step) -> None:
        self.world.apply(one)

    def _has_domains(self) -> bool:
        return len(self.world.domains) > 0

    def _has_fleet(self) -> bool:
        return self.world.fleet_hybrid.n_domains > 0

    # -- domain lifecycle ----------------------------------------------
    @precondition(lambda self: len(self.world.domains) < MAX_FUZZ_DOMAINS)
    @rule(
        memory_mb=st.sampled_from((64, 128, 256)),
        lightvm=st.booleans(),
    )
    def spawn(self, memory_mb: int, lightvm: bool) -> None:
        self._do(step("spawn", memory_mb=memory_mb, lightvm=lightvm))

    @precondition(_has_domains)
    @rule(index=st.integers(0, 31))
    def destroy(self, index: int) -> None:
        self._do(step("destroy", index=index))

    @precondition(_has_domains)
    @rule(
        index=st.integers(0, 31),
        dirty_rate=st.sampled_from((0, 50_000, 400_000)),
        downtime_ms=st.sampled_from((1, 300)),
    )
    def migrate(self, index: int, dirty_rate: int, downtime_ms: int) -> None:
        self._do(
            step(
                "migrate",
                index=index,
                dirty_rate=dirty_rate,
                downtime_ms=downtime_ms,
            )
        )

    # -- Remus ----------------------------------------------------------
    @rule(
        dirty_pages=st.integers(0, 3000),
        packets=st.integers(0, 200),
    )
    def remus_epoch(self, dirty_pages: int, packets: int) -> None:
        self._do(
            step("remus_epoch", dirty_pages=dirty_pages, packets=packets)
        )

    @precondition(lambda self: self.world.remus.backup_epoch >= 0)
    @rule()
    def remus_failover(self) -> None:
        self._do(step("remus_failover"))

    # -- ABOM ------------------------------------------------------------
    @rule(rounds=st.integers(4, 6))
    def abom_patch(self, rounds: int) -> None:
        self._do(step("abom_patch", rounds=rounds))

    # -- split-driver I/O ------------------------------------------------
    @rule(
        count=st.integers(1, 8),
        size=st.integers(0, 4000),
        batched=st.booleans(),
    )
    def net_burst(self, count: int, size: int, batched: bool) -> None:
        self._do(step("net_burst", count=count, size=size, batched=batched))

    @rule(
        start=st.integers(0, 4000),
        count=st.integers(1, 8),
        batched=st.booleans(),
        pattern=st.integers(0, 255),
    )
    def blk_burst(
        self, start: int, count: int, batched: bool, pattern: int
    ) -> None:
        self._do(
            step(
                "blk_burst",
                start=start,
                count=count,
                batched=batched,
                pattern=pattern,
            )
        )

    # -- fault plan churn ------------------------------------------------
    @rule(
        name=st.sampled_from(_FAULT_NAMES),
        mode=st.sampled_from(("every", "prob")),
        n=st.integers(1, 200),
        limit=st.integers(1, 4),
    )
    def inject_fault(self, name: str, mode: str, n: int, limit: int) -> None:
        self._do(step("inject_fault", name=name, mode=mode, n=n, limit=limit))

    @rule(name=st.sampled_from(_FAULT_NAMES + ("all",)))
    def clear_faults(self, name: str) -> None:
        self._do(step("clear_faults", name=name))

    # -- fleet engines ---------------------------------------------------
    @precondition(
        lambda self: self.world.fleet_hybrid.n_domains < MAX_FLEET_DOMAINS
    )
    @rule(count=st.integers(1, 3))
    def fleet_spawn(self, count: int) -> None:
        self._do(step("fleet_spawn", count=count))

    @precondition(_has_fleet)
    @rule(index=st.integers(0, 15), units=st.integers(1, 5))
    def fleet_post(self, index: int, units: int) -> None:
        self._do(step("fleet_post", index=index, units=units))

    @precondition(_has_fleet)
    @rule(ticks=st.integers(1, 50))
    def fleet_tick(self, ticks: int) -> None:
        self._do(step("fleet_tick", ticks=ticks))

    @precondition(_has_fleet)
    @rule()
    def fleet_drain(self) -> None:
        self._do(step("fleet_drain"))

    # -- end of sequence -------------------------------------------------
    def teardown(self) -> None:
        # Final drain + sanitizer sweep; failures here shrink too.
        self.world.finalize()


def build_machine(
    world_seed: int | str = 0, defect: str | None = None
) -> type[StackMachine]:
    """A :class:`StackMachine` subclass with the world seed pinned."""
    if defect is not None and defect not in DEFECTS:
        known = ", ".join(DEFECTS)
        raise ValueError(f"unknown defect {defect!r} (known: {known})")
    return type(
        f"StackMachine_{world_seed}",
        (StackMachine,),
        {"world_seed": world_seed, "defect": defect},
    )


def _seed_to_int(seed: int | str) -> int:
    """Stable int for Hypothesis' PRNG (strings hash via sha256)."""
    if isinstance(seed, int):
        return seed
    digest = hashlib.sha256(str(seed).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _find_steps(error: BaseException) -> tuple[Step, ...] | None:
    """Walk an exception tree for the FuzzFailure step payload."""
    pending: list[BaseException] = [error]
    seen: set[int] = set()
    while pending:
        exc = pending.pop()
        if id(exc) in seen:
            continue
        seen.add(id(exc))
        steps = getattr(exc, "steps", None)
        if steps is not None:
            return tuple(steps)
        for child in getattr(exc, "exceptions", ()) or ():
            pending.append(child)
        for attr in ("__cause__", "__context__"):
            child = getattr(exc, attr, None)
            if child is not None:
                pending.append(child)
    return None


def run_fuzz(
    seed: int | str = 0,
    max_examples: int = 25,
    steps: int = 30,
    defect: str | None = None,
) -> FuzzReport:
    """One bounded stateful-fuzz session; deterministic per seed.

    Runs the machine under a fixed Hypothesis seed with the example
    database disabled (CI must not depend on local state).  On failure
    the shrunk step list is replayed twice from a fresh world and the
    report records whether both traces were byte-identical.
    """
    from repro.fuzz.replay import replay_steps

    machine = build_machine(world_seed=seed, defect=defect)
    machine = hypothesis_seed(_seed_to_int(seed))(machine)
    run_settings = hypothesis_settings(
        max_examples=max_examples,
        stateful_step_count=steps,
        database=None,
        deadline=None,
        derandomize=False,
        print_blob=False,
        verbosity=Verbosity.quiet,
        suppress_health_check=(
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ),
    )
    failure: tuple[Step, ...] | None = None
    failure_message = ""
    try:
        run_state_machine_as_test(machine, settings=run_settings)
    except Exception as error:  # noqa: BLE001 — every failure is a find
        failure = _find_steps(error)
        failure_message = str(error).splitlines()[0] if str(error) else (
            type(error).__name__
        )
        if failure is None:
            # Not a FuzzFailure (harness bug / flaky shrink): surface
            # the raw error rather than claiming a reproducible find.
            raise
    if failure is None:
        return FuzzReport(
            seed=seed,
            max_examples=max_examples,
            step_budget=steps,
            defect=defect or "",
            rules=_rule_count(),
            invariants=_invariant_count(),
        )
    first = replay_steps(failure, world_seed=seed, defect=defect)
    second = replay_steps(failure, world_seed=seed, defect=defect)
    return FuzzReport(
        seed=seed,
        max_examples=max_examples,
        step_budget=steps,
        defect=defect or "",
        rules=_rule_count(),
        invariants=_invariant_count(),
        failure=failure_message,
        shrunk_steps=len(failure),
        steps_json=dumps(failure, world_seed=seed),
        replay_identical=(first == second),
        replay_trace=first,
    )


def _rule_count() -> int:
    from repro.fuzz.steps import OPS

    return len(OPS)


def _invariant_count() -> int:
    from repro.fuzz.world import INVARIANTS

    return len(INVARIANTS)


__all__: tuple[str, ...] = (
    "StackMachine",
    "build_machine",
    "run_fuzz",
)
