"""Split device drivers (§4.1).

    "The Domain-U installs a front-end driver, which is connected to a
     corresponding back-end driver in the Driver Domain which gets access
     to real hardware, and data is transferred using shared memory
     (asynchronous buffer descriptor rings)."

The model tracks ring occupancy, grant usage and event-channel kicks, and
charges per-batch plus per-descriptor ring costs and per-byte copy costs —
the network-path overhead Xen-Containers and X-Containers both pay
relative to native Docker.

Batching (the real PV drivers' shape): the frontend *pushes* a whole
train of descriptors onto the shared ring, notifies the backend with ONE
event-channel kick, and *reaps* all completed responses in one pass.  A
batch of N descriptors therefore costs one fixed ring service
(:attr:`CostModel.ring_batch_fixed_ns`) plus N marginal descriptor costs
(:attr:`CostModel.ring_per_desc_ns`) instead of N full per-request
prices; :meth:`SplitNetDriver.transmit` is exactly a batch of one, so the
legacy path and its costs are unchanged.

Resilience: the frontend survives backend death, ring stalls, lost kicks
and transient grant failures (all injectable via :mod:`repro.faults`) by
reconnecting — tear down the dead ring, re-grant, re-map, re-bind — under
a bounded :class:`~repro.faults.retry.RetryPolicy`.  Fault hooks fire once
per logical descriptor even on the batched path; a dropped kick loses the
whole batch, which the retry loop resubmits in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.faults import sites as fault_sites
from repro.faults.retry import RetryPolicy
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.events import EventChannelTable
from repro.xen.grant_table import GrantError, GrantTable
from repro.xen.hypervisor import Domain

RING_SIZE = 256


class BackendDeadError(RuntimeError):
    """The backend driver domain died mid-ring; reconnect required."""


class NotificationLost(RuntimeError):
    """An event-channel kick was dropped; the frontend must re-kick."""


@dataclass
class RingStats:
    requests: int = 0
    responses: int = 0
    bytes_moved: int = 0
    kicks: int = 0
    ring_full_stalls: int = 0
    backend_deaths: int = 0
    backend_restarts: int = 0
    #: Completed descriptor batches (a single transmit is a batch of one).
    batches: int = 0
    #: Event-channel kicks elided by batching (descriptors - batches).
    kicks_saved: int = 0

    @property
    def avg_batch_size(self) -> float:
        """Mean descriptors per completed batch."""
        if self.batches == 0:
            return 0.0
        return self.requests / self.batches

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "bytes_moved": self.bytes_moved,
            "kicks": self.kicks,
            "ring_full_stalls": self.ring_full_stalls,
            "backend_deaths": self.backend_deaths,
            "backend_restarts": self.backend_restarts,
            "batches": self.batches,
            "avg_batch_size": self.avg_batch_size,
            "kicks_saved": self.kicks_saved,
        }


class SplitNetDriver:
    """One netfront/netback pair between a guest and the driver domain."""

    def __init__(
        self,
        guest: Domain,
        backend: Domain,
        grants: GrantTable,
        events: EventChannelTable,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        faults=None,
        retry: RetryPolicy | None = None,
        sanitizer=None,
    ) -> None:
        self.guest = guest
        self.backend = backend
        self.grants = grants
        self.events = events
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.faults.plan.FaultEngine`.
        self.faults = faults
        self.retry = retry or RetryPolicy()
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`; mirrors
        #: the ring protocol (publish/kick/reap) and attributes slot
        #: accesses to the frontend/backend domains.
        self.sanitizer = sanitizer
        self.stats = RingStats()
        self.backend_alive = True
        self._in_flight = 0
        self._frontend_actor = f"dom{guest.domid}"
        self._backend_actor = f"dom{backend.domid}"
        self._ring_name = f"net:g{guest.domid}b{backend.domid}"
        if sanitizer is not None:
            self._ring_name = sanitizer.ring_register(
                self._ring_name, RING_SIZE, 16
            )
        # The shared ring page: granted by the guest, mapped by the backend.
        self._ring_grant = grants.grant_access(guest.domid, 0xF000)
        grants.map_grant(self._ring_grant, backend.domid)
        self._event_port = events.bind(self._on_backend_kick)
        self._completed_since_kick = 0

    def _on_backend_kick(self) -> None:
        self.stats.kicks += 1

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(self, nbytes: int) -> float:
        """Send one request of ``nbytes`` and receive its response.

        Exactly a batch of one descriptor — see :meth:`transmit_batch`;
        the calibrated batch constants make the cost identical to the
        pre-batching per-request price.
        """
        if nbytes < 0:
            raise ValueError(f"negative payload: {nbytes}")
        return self.retry.run(
            lambda: self._transmit_batch_once((nbytes,)),
            retriable=(BackendDeadError, NotificationLost, GrantError),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.NET_BACKEND,
        )

    def transmit_batch(self, sizes: Iterable[int]) -> float:
        """Send a train of requests with ONE kick and reap all responses.

        Pushes one descriptor per payload in ``sizes`` (ring-full stalls
        are handled mid-push exactly like the single path), notifies the
        backend once, and reaps every response in one pass.  Returns the
        simulated cost.  Fault hooks fire per descriptor; backend death or
        a lost kick fails the whole batch, which :attr:`retry` resubmits —
        re-pushing a descriptor train is idempotent.
        """
        batch = tuple(sizes)
        for nbytes in batch:
            if nbytes < 0:
                raise ValueError(f"negative payload: {nbytes}")
        if not batch:
            return 0.0
        return self.retry.run(
            lambda: self._transmit_batch_once(batch),
            retriable=(BackendDeadError, NotificationLost, GrantError),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.NET_BACKEND,
        )

    def _transmit_batch_once(self, batch: Sequence[int]) -> float:
        if not self.backend_alive:
            self._restart_backend()
        san = self.sanitizer
        if san is not None:
            san.ring_batch_start(self._ring_name, self._frontend_actor)
        cost = (
            self.costs.ring_batch_fixed_ns
            + len(batch) * self.costs.ring_per_desc_ns
        )
        pushed = 0
        try:
            for nbytes in batch:
                cost += nbytes * self.costs.copy_per_byte_ns
                if self.faults is not None:
                    fault = self.faults.fire(
                        fault_sites.NET_BACKEND, bytes=nbytes
                    )
                    if fault is not None and fault.kind == "kill":
                        self.backend_alive = False
                        self.stats.backend_deaths += 1
                        raise BackendDeadError(
                            f"netback in domain {self.backend.domid} died "
                            f"mid-ring"
                        )
                    stall = self.faults.fire(
                        fault_sites.NET_RING, bytes=nbytes
                    )
                    if stall is not None and stall.kind == "stall":
                        self.stats.ring_full_stalls += 1
                        cost += self.costs.netfront_ns * max(1.0, stall.param)
                if self._in_flight >= RING_SIZE:
                    self.stats.ring_full_stalls += 1
                    cost += self.costs.netfront_ns
                    self._in_flight = 0
                    if san is not None:
                        san.ring_stall_drain(
                            self._ring_name,
                            self._frontend_actor,
                            self._backend_actor,
                        )
                self._in_flight += 1
                pushed += 1
                if san is not None:
                    san.ring_publish(self._ring_name, self._frontend_actor)
            # One kick for the whole descriptor train; delivery of any
            # other producers' pending events rides the same flush.
            with self.events.batch():
                if not self.events.send(self._event_port):
                    if san is not None:
                        san.ring_kick_lost(self._ring_name)
                    raise NotificationLost(
                        f"kick lost on port {self._event_port}"
                    )
            if san is not None:
                san.ring_kick(self._ring_name, self._frontend_actor)
        except BaseException:
            # Unwind the push; the mid-push ring-full reset may have
            # already zeroed the occupancy counter, so clamp at empty.
            self._in_flight = max(0, self._in_flight - pushed)
            if san is not None:
                san.ring_abort(self._ring_name, pushed)
            raise
        # Reap: every response completes in the same service pass.
        if san is not None:
            san.ring_reap(self._ring_name, self._backend_actor, len(batch))
        self.stats.requests += len(batch)
        self.stats.responses += len(batch)
        self.stats.bytes_moved += sum(batch)
        self.stats.batches += 1
        self.stats.kicks_saved += len(batch) - 1
        self.clock.advance(cost)
        self._in_flight = max(0, self._in_flight - len(batch))
        return cost

    def _restart_backend(self) -> None:
        """Reconnect after backend death: fresh grant, map, event port.

        Idempotent under partial failure — a :class:`GrantMapError` raised
        mid-restart leaves state the next attempt can clean up.
        """
        try:
            self.grants.unmap_grant(self._ring_grant, self.backend.domid)
        except GrantError:
            pass  # the dead backend's mapping died with it
        try:
            self.grants.end_access(self._ring_grant)
        except GrantError:
            pass
        self.events.unbind(self._event_port)
        self._in_flight = 0
        self._ring_grant = self.grants.grant_access(self.guest.domid, 0xF000)
        self.grants.map_grant(self._ring_grant, self.backend.domid)
        self._event_port = self.events.bind(self._on_backend_kick)
        self.backend_alive = True
        self.stats.backend_restarts += 1

    def per_request_cost_ns(self, nbytes: int) -> float:
        """Pure cost query without charging: the unbatched per-request
        price the batching tests hold batched transmits against."""
        return self.costs.netfront_ns + nbytes * self.costs.copy_per_byte_ns

    def per_batch_cost_ns(self, sizes: Sequence[int]) -> float:
        """Pure batched-cost query without charging or fault hooks."""
        return (
            self.costs.ring_batch_fixed_ns
            + len(sizes) * self.costs.ring_per_desc_ns
            + sum(sizes) * self.costs.copy_per_byte_ns
        )

    def close(self) -> None:
        if self.sanitizer is not None:
            # Teardown is a quiescence point: published-but-unkicked
            # descriptors would never wake the backend again.
            self.sanitizer.ring_quiesce(self._ring_name)
        try:
            self.grants.unmap_grant(self._ring_grant, self.backend.domid)
            self.grants.end_access(self._ring_grant)
        except GrantError:
            if self.backend_alive:
                raise
        self.events.unbind(self._event_port)
