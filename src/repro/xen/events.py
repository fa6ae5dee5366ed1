"""Xen event channels — virtualized interrupts (§4.1, §4.2).

    "In the Xen PV architecture, interrupts are delivered as asynchronous
     events.  There is a variable shared by Xen and the guest kernel that
     indicates whether there is any event pending.  If so, the guest kernel
     issues a hypercall into Xen to have those events delivered."

Stock PV guests pay that hypercall; the X-LibOS instead "emulates the
interrupt stack frame when it sees any pending events and jumps directly
into interrupt handlers" — modelled by draining with ``via_hypercall=False``.

Interrupt coalescing: producers that raise many events back-to-back open a
:meth:`EventChannelTable.batch` scope.  Inside the scope every ``send``
only marks its port pending (the shared variable is set once and stays
set); the single :meth:`flush` on scope exit checks the shared pending
variable once and delivers everything, so a batch of N notifications costs
one delivery pass instead of N — the §4.2 optimization generalized to the
split-driver rings (see ``docs/io_batching.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.faults import sites as fault_sites
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


@dataclass
class EventChannel:
    port: int
    handler: Callable[[], None]
    pending: int = 0
    delivered: int = 0


class EventChannelTable:
    """Per-domain event channel state plus the shared pending flag."""

    def __init__(
        self,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        faults=None,
        sanitizer=None,
    ) -> None:
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.faults.plan.FaultEngine`; ``None`` keeps
        #: every hook a single attribute test.
        self.faults = faults
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`; sends
        #: are release edges and deliveries acquire edges for the
        #: happens-before detector.  Same single-attribute-test budget.
        self.sanitizer = sanitizer
        self._channels: dict[int, EventChannel] = {}
        self._next_port = 1
        #: The shared "any event pending" variable.
        self.evtchn_upcall_pending = False
        self.hypercall_deliveries = 0
        self.direct_deliveries = 0
        self.notifications_dropped = 0
        self.notifications_delayed = 0
        #: Notifications absorbed into an open batch scope (their delivery
        #: was deferred to the scope's single flush).
        self.notifications_coalesced = 0
        #: Completed batch-scope flushes.
        self.flushes = 0
        self._batch_depth = 0

    def bind(self, handler: Callable[[], None]) -> int:
        port = self._next_port
        self._next_port += 1
        self._channels[port] = EventChannel(port, handler)
        return port

    def unbind(self, port: int) -> None:
        self._channels.pop(port, None)

    # ------------------------------------------------------------------
    # Batch scope (deferred / coalesced notification)
    # ------------------------------------------------------------------
    @contextmanager
    def batch(self, via_hypercall: bool = False) -> Iterator["EventChannelTable"]:
        """Defer event delivery until scope exit.

        Inside the scope ``send`` marks ports pending without delivering;
        leaving the outermost scope performs one :meth:`flush` that checks
        the shared pending variable once and delivers every accumulated
        event.  Scopes nest: only the outermost exit flushes.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self.flush(via_hypercall=via_hypercall)

    def flush(self, via_hypercall: bool = False) -> int:
        """Deliver everything marked pending with ONE shared-flag check.

        The stock PV path (``via_hypercall=True``) charges a single
        hypercall for the whole batch; the X-LibOS path emulates one
        interrupt stack frame per delivered event but shares the pending
        check.  Returns the number of events delivered.
        """
        if not self.evtchn_upcall_pending:
            return 0
        self.flushes += 1
        return self.drain(via_hypercall=via_hypercall)

    def send(self, port: int) -> bool:
        """Raise an event on ``port`` (from the hypervisor / another domain).

        Returns True when the notification landed (delivery pending),
        False when an injected ``drop`` lost it — the caller must re-kick;
        the shared pending flag never gets set by a dropped notify.  An
        injected ``delay`` charges ``param`` ns and increments
        :attr:`notifications_delayed` before the notification lands; the
        counter and charge behave identically whether the send happens
        inside or outside a :meth:`batch` scope (inside a scope only the
        *delivery* is deferred, never the fault accounting).
        """
        channel = self._channels.get(port)
        if channel is None:
            raise KeyError(f"no event channel bound on port {port}")
        if self.faults is not None:
            fault = self.faults.fire(fault_sites.EVENT_NOTIFY, port=port)
            if fault is not None:
                if fault.kind == "drop":
                    self.notifications_dropped += 1
                    if self.sanitizer is not None:
                        self.sanitizer.on_event_drop(port)
                    return False
                if fault.kind == "delay":
                    self.notifications_delayed += 1
                    self.clock.advance(fault.param)
        if self.sanitizer is not None:
            self.sanitizer.on_event_send(port)
        channel.pending += 1
        if self._batch_depth > 0 and self.evtchn_upcall_pending:
            # The shared variable is already set; this notify rides the
            # batch's single flush for free.
            self.notifications_coalesced += 1
        self.evtchn_upcall_pending = True
        return True

    def drain(self, via_hypercall: bool) -> int:
        """Deliver all pending events; returns the number delivered.

        ``via_hypercall=True`` is the stock PV guest path (one hypercall
        charge); ``False`` is the X-LibOS direct-jump path (§4.2), which
        costs only the emulated stack-frame setup.
        """
        delivered = 0
        if via_hypercall and self.evtchn_upcall_pending:
            self.clock.advance(self.costs.hypercall_ns)
            self.hypercall_deliveries += 1
        for channel in self._channels.values():
            while channel.pending > 0:
                channel.pending -= 1
                channel.delivered += 1
                delivered += 1
                if not via_hypercall:
                    # emulate the interrupt stack frame: a few stores.
                    self.clock.advance(6 * self.costs.instruction_ns)
                    self.direct_deliveries += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_event_deliver(channel.port)
                channel.handler()
        self.evtchn_upcall_pending = False
        return delivered
