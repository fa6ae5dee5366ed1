"""Real stepped domains behind the serving fleet.

Before the hybrid execution core, ``repro.serve`` backends were pure
cost-model queues: the shards computed busy nanoseconds per backend and
nothing ever *executed*.  This module gives every live backend a real
:class:`~repro.core.engine.ExecDomain` — an X-Container running the
guest idle-loop worker through the interpreter — and converts each
interval's busy time into mailbox work units.  Quiescent backends park
in ``hlt`` and fast-forward between intervals, so a 100-backend fleet
costs wall-clock proportional to the work actually served, not to
``backends × intervals``.

Unit quantization bounds the interpreter cost: one work unit represents
``max(backend_service_ns, interval_ns / 32)`` of busy time, so a backend
never runs more than ~32 guest bursts per interval no matter how hot it
is.  Everything in :meth:`ServeDomainFleet.summary` is engine-invariant
(identical under ``run_serve(engine="hybrid")`` and
``run_serve(engine="stepped")``), which is what lets the serve report
include it without breaking the byte-identity test between the two
engines.
"""

from __future__ import annotations

import math

from repro.core.engine import ExecutionEngine

#: Hard ceiling on work units per (backend, interval) — a queue-saturated
#: backend can report busy_ns > interval_ns; the guest burst stays bounded.
MAX_UNITS_PER_INTERVAL = 64


def _tick_for(interval_ns: float) -> float:
    """Largest tick <= 1 ms that divides the control interval exactly."""
    interval = int(interval_ns)
    if interval <= 0 or interval != interval_ns:
        return 1.0  # degenerate interval: fall back to a 1 ns grid
    return float(math.gcd(interval, 1_000_000))


class ServeDomainFleet:
    """One :class:`ExecutionEngine` fleet mirroring the serve backends."""

    def __init__(
        self,
        backend_service_ns: float,
        interval_ns: float,
        hybrid: bool = True,
    ) -> None:
        self.unit_ns = max(backend_service_ns, interval_ns / 32.0)
        self.engine = ExecutionEngine(
            hybrid=hybrid, tick_ns=_tick_for(interval_ns)
        )
        #: serve backend id -> engine domid (serve ids are reused only
        #: after death; engine domids never are).
        self._domid_by_backend: dict[int, int] = {}

    def ensure(self, backend_id: int) -> None:
        """Give a newly live backend its own parked domain."""
        if backend_id not in self._domid_by_backend:
            dom = self.engine.spawn(f"backend{backend_id}")
            self._domid_by_backend[backend_id] = dom.domid

    def retire(self, backend_id: int) -> None:
        """A chaos kill took the backend down: its domain dies with it."""
        domid = self._domid_by_backend.pop(backend_id, None)
        if domid is not None:
            self.engine.retire(domid)

    def post_busy(
        self, backend_id: int, busy_ns: float, t0_ns: float
    ) -> int:
        """Convert an interval's busy time into mailbox work units."""
        domid = self._domid_by_backend.get(backend_id)
        if domid is None:
            return 0
        units = min(int(busy_ns // self.unit_ns), MAX_UNITS_PER_INTERVAL)
        if units > 0:
            self.engine.post_work(domid, units, at_ns=t0_ns)
        return units

    def run_until(self, t_ns: float) -> None:
        self.engine.run_until(t_ns)

    def summary(self) -> dict:
        """Engine-invariant rollup for the serve report.

        Drains the queue first so late-posted work completes.  Every
        value is identical between hybrid and stepped runs (the
        ``polls`` counter, which is not, stays out).
        """
        self.engine.run_to_quiescence()
        stats = self.engine.stats
        return {
            "domains_spawned": self.engine.n_domains,
            "domains_live": len(self._domid_by_backend),
            "units_posted": stats.units_posted,
            "units_completed": self.engine.total_completed(),
            "wake_events": stats.wake_events,
            "spurious_wakes": stats.spurious_wakes,
            "guest_instructions": stats.instructions,
            "fastforward_ms": round(stats.fastforward_ns / 1e6, 3),
        }
