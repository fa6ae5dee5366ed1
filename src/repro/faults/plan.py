"""The ``FaultPlan`` DSL and its compiled per-site injectors.

A plan is a list of :class:`FaultSpec` — *what* to inject (site + kind),
*when* (a trigger: nth occurrence, every-nth, sim-time window, or
probability), and *how hard* (``param``, ``limit``).  Compiling a plan
produces a :class:`FaultEngine`: the object the substrates poke via
``engine.fire(site)`` on every occurrence of an injectable operation.

Determinism is by construction: probability triggers draw from
:class:`repro.perf.rand.DeterministicRng` streams forked per spec from
the plan seed, and every other trigger depends only on the occurrence
counter and the simulated clock.  Same seed + same plan + same workload
⇒ the identical fault sequence, so every chaos failure is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults import sites
from repro.perf.clock import SimClock
from repro.perf.rand import DeterministicRng

# ---------------------------------------------------------------------------
# Triggers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nth:
    """Fire on exactly the ``n``-th occurrence of the site (1-based)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"occurrence index is 1-based: {self.n}")


@dataclass(frozen=True)
class Every:
    """Fire on every ``n``-th occurrence (n, 2n, 3n, ...)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"period must be >= 1: {self.n}")


@dataclass(frozen=True)
class TimeWindow:
    """Fire on every occurrence while ``start_ns <= now < end_ns``."""

    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise ValueError(
                f"empty window: [{self.start_ns}, {self.end_ns})"
            )


@dataclass(frozen=True)
class Probability:
    """Fire each occurrence with probability ``p`` (seeded, replayable)."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"probability must be in (0, 1]: {self.p}")

Trigger = Nth | Every | TimeWindow | Probability


# ---------------------------------------------------------------------------
# Specs and plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: fault *kind* at *site* when *trigger* matches."""

    site: str
    kind: str
    trigger: Trigger
    #: Kind-specific magnitude (delay ns, stall factor, extra dirty pages).
    param: float = 0.0
    #: Cap on injections from this spec (``None`` = unbounded).
    limit: int | None = None

    def __post_init__(self) -> None:
        sites.validate(self.site, self.kind)
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1: {self.limit}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs plus the seed that replays them."""

    specs: tuple[FaultSpec, ...]
    seed: int | str = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def compile(
        self,
        clock: SimClock | None = None,
        tracer: Any = None,
    ) -> "FaultEngine":
        """Build the engine the substrates fire into."""
        return FaultEngine(self, clock=clock, tracer=tracer)


@dataclass(frozen=True)
class Fault:
    """One injected fault, as handed to the substrate that fired it."""

    site: str
    kind: str
    param: float
    #: Occurrence index (1-based) of the site at injection time.
    occurrence: int


# ---------------------------------------------------------------------------
# The compiled engine
# ---------------------------------------------------------------------------


class _Injector:
    """One spec armed with its own deterministic RNG stream."""

    __slots__ = ("spec", "rng", "injected")

    def __init__(self, spec: FaultSpec, rng: DeterministicRng) -> None:
        self.spec = spec
        self.rng = rng
        self.injected = 0

    def should_fire(self, occurrence: int, now_ns: float) -> bool:
        spec = self.spec
        if spec.limit is not None and self.injected >= spec.limit:
            return False
        trigger = spec.trigger
        if isinstance(trigger, Nth):
            return occurrence == trigger.n
        if isinstance(trigger, Every):
            return occurrence % trigger.n == 0
        if isinstance(trigger, TimeWindow):
            return trigger.start_ns <= now_ns < trigger.end_ns
        # Probability: one deterministic draw per occurrence.
        return self.rng.random() < trigger.p


@dataclass
class SiteCounters:
    """Per-site lifecycle counters (the report's columns)."""

    occurrences: int = 0
    injected: int = 0
    retried: int = 0
    recovered: int = 0
    fatal: int = 0

    def merged(self, other: "SiteCounters") -> "SiteCounters":
        return SiteCounters(
            self.occurrences + other.occurrences,
            self.injected + other.injected,
            self.retried + other.retried,
            self.recovered + other.recovered,
            self.fatal + other.fatal,
        )


@dataclass
class _EngineState:
    counters: dict[str, SiteCounters] = field(default_factory=dict)


class FaultEngine:
    """Compiled plan: per-site injectors plus lifecycle accounting.

    Substrates call :meth:`fire` on every occurrence of a site; retry
    policies and recovery paths report back through :meth:`record_retry`,
    :meth:`record_recovered`, and :meth:`record_fatal`.  All four emit
    into an attached :class:`repro.obs.TraceRecorder` under the ``fault``
    category.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock: SimClock | None = None,
        tracer: Any = None,
    ) -> None:
        self.plan = plan
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.obs.TraceRecorder`; events carry the
        #: ``fault`` category with names injected/retried/recovered/fatal.
        self.tracer = tracer
        self._root = DeterministicRng(plan.seed)
        self._injectors: dict[str, list[_Injector]] = {}
        self._n_specs = 0
        for spec in plan.specs:
            self._attach(spec)
        self._state = _EngineState()

    def _attach(self, spec: FaultSpec) -> _Injector:
        """Arm one spec with its deterministic per-spec RNG stream.

        The fork label depends only on the arrival index, site, and kind,
        so a compiled plan and the same specs :meth:`arm`-ed one by one
        produce identical probability draws.
        """
        stream = self._root.fork(f"{self._n_specs}:{spec.site}:{spec.kind}")
        injector = _Injector(spec, stream)
        self._injectors.setdefault(spec.site, []).append(injector)
        self._n_specs += 1
        return injector

    # ------------------------------------------------------------------
    # Dynamic (re)arming — the stateful fuzzer's inject/clear rules
    # ------------------------------------------------------------------
    def arm(self, spec: FaultSpec) -> None:
        """Add a spec to the live engine (after ``compile``).

        Deterministic by construction: the new injector's RNG stream is
        forked from the plan seed using the same labeling scheme as
        compile-time specs, so any arm *sequence* replays identically.
        Occurrence counters are per-site and keep counting across
        arm/disarm, so ``Nth``/``Every`` triggers see the site's full
        history.
        """
        self._attach(spec)

    def disarm(self, site: str | None = None) -> int:
        """Remove armed injectors (``site=None`` clears every site).

        Returns the number of injectors removed.  Lifecycle counters and
        per-site occurrence counts are preserved — disarming stops future
        injections without rewriting history.
        """
        if site is not None:
            return len(self._injectors.pop(site, []))
        removed = sum(len(v) for v in self._injectors.values())
        self._injectors.clear()
        return removed

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        return self.clock.now_ns

    def _counters(self, site: str) -> SiteCounters:
        counters = self._state.counters.get(site)
        if counters is None:
            counters = self._state.counters[site] = SiteCounters()
        return counters

    def fire(self, site: str, **detail) -> Fault | None:
        """One occurrence of ``site``; returns the fault to apply, if any.

        The first matching spec (plan order) wins; its injection is
        counted and traced.  Returns ``None`` when nothing fires.
        """
        counters = self._counters(site)
        counters.occurrences += 1
        injectors = self._injectors.get(site)
        if not injectors:
            return None
        now_ns = self.now_ns
        for injector in injectors:
            if injector.should_fire(counters.occurrences, now_ns):
                injector.injected += 1
                counters.injected += 1
                fault = Fault(
                    site,
                    injector.spec.kind,
                    injector.spec.param,
                    counters.occurrences,
                )
                self._emit("injected", site, kind=fault.kind, **detail)
                return fault
        return None

    # ------------------------------------------------------------------
    # Lifecycle reporting (called by retry policies / recovery paths)
    # ------------------------------------------------------------------
    def record_retry(self, site: str, **detail) -> None:
        self._counters(site).retried += 1
        self._emit("retried", site, **detail)

    def record_recovered(self, site: str, **detail) -> None:
        self._counters(site).recovered += 1
        self._emit("recovered", site, **detail)

    def record_fatal(self, site: str, **detail) -> None:
        self._counters(site).fatal += 1
        self._emit("fatal", site, **detail)

    def _emit(self, name: str, site: str, **detail) -> None:
        if self.tracer is not None:
            # Substrate detail keys must not shadow the event's own
            # fields (or TraceRecorder.emit's parameters).
            detail = {
                key: value
                for key, value in detail.items()
                if key not in ("site", "name", "category")
            }
            self.tracer.emit("fault", name, site=site, **detail)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, SiteCounters]:
        return self._state.counters

    def totals(self) -> SiteCounters:
        total = SiteCounters()
        for counters in self._state.counters.values():
            total = total.merged(counters)
        return total

    def injected_sites(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                site
                for site, counters in self._state.counters.items()
                if counters.injected > 0
            )
        )

    def injected_substrates(self) -> set[str]:
        return {sites.substrate_of(s) for s in self.injected_sites()}
