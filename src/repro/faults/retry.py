"""Bounded retry/backoff and timeout policies.

Injected faults are *survivable*, not just observable: the netfront,
blkfront, toolstack, and netstack paths route their transient failures
through a :class:`RetryPolicy`, which bounds attempts, charges
exponential backoff to the simulated clock, and reports the lifecycle
(retried → recovered | fatal) into the fault engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.perf.clock import SimClock

T = TypeVar("T")


class RetryExhausted(RuntimeError):
    """The retry budget ran out; the last failure is chained as cause."""

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"{site or 'operation'} still failing after {attempts} attempts: "
            f"{last}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard attempt cap.

    ``max_attempts`` counts *calls* of the protected operation: with the
    default 5, an operation may fail four times and succeed on the fifth.
    """

    max_attempts: int = 5
    base_backoff_ns: float = 2_000.0
    multiplier: float = 2.0
    max_backoff_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_backoff_ns < 0 or self.max_backoff_ns < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")

    def backoff_ns(self, failures: int) -> float:
        """Backoff charged after the ``failures``-th failure (1-based)."""
        if failures < 1:
            raise ValueError(f"failures is 1-based: {failures}")
        return min(
            self.base_backoff_ns * self.multiplier ** (failures - 1),
            self.max_backoff_ns,
        )

    def run(
        self,
        fn: Callable[[], T],
        retriable: tuple[type[BaseException], ...] | type[BaseException],
        *,
        clock: SimClock,
        faults: Any = None,
        site: str = "",
    ) -> T:
        """Call ``fn`` until it succeeds or the attempt cap is hit.

        Each failure charges its backoff to ``clock``.  On eventual
        success after at least one failure the engine records a
        recovery; on exhaustion it records a fatal and
        :class:`RetryExhausted` is raised with the last failure chained.
        """
        failures = 0
        while True:
            try:
                result = fn()
            except retriable as exc:
                failures += 1
                if failures >= self.max_attempts:
                    if faults is not None:
                        faults.record_fatal(
                            site, error=type(exc).__name__, attempts=failures
                        )
                    raise RetryExhausted(site, failures, exc) from exc
                if faults is not None:
                    faults.record_retry(site, error=type(exc).__name__)
                clock.advance(self.backoff_ns(failures))
                continue
            if failures and faults is not None:
                faults.record_recovered(site, attempts=failures + 1)
            return result
