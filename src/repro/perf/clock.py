"""Simulated clock.

Every simulated component charges time against a :class:`SimClock`.  The unit
is the nanosecond, stored as a float so that sub-nanosecond costs (per-byte
copy costs, per-instruction interpreter costs) accumulate without rounding.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock.

    The clock never moves backwards: :meth:`advance` rejects negative deltas
    and :meth:`advance_to` is a no-op when the target is in the past.
    """

    __slots__ = ("_now_ns",)

    def __init__(self, start_ns: float = 0.0) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot start before zero: {start_ns}")
        self._now_ns = float(start_ns)

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        return self._now_ns / 1e3

    @property
    def now_ms(self) -> float:
        return self._now_ns / 1e6

    @property
    def now_s(self) -> float:
        return self._now_ns / 1e9

    def advance(self, delta_ns: float) -> float:
        """Advance the clock by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta_ns}")
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, target_ns: float) -> float:
        """Advance the clock to ``target_ns`` if it is in the future."""
        if target_ns > self._now_ns:
            self._now_ns = target_ns
        return self._now_ns

    def reset(self, start_ns: float = 0.0) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot reset before zero: {start_ns}")
        self._now_ns = float(start_ns)

    def __repr__(self) -> str:
        return f"SimClock(now_ns={self._now_ns:.1f})"
