"""Split block driver (blkfront/blkback) and backing stores.

The §5.1 setup "used device-mapper as the back-end storage driver" for
every configuration; X-Containers and Xen-Containers additionally route
block I/O through the blkfront/blkback ring.  The model provides:

* :class:`BlockStore` — a sector-addressed RAM-backed disk;
* :class:`SplitBlockDriver` — the ring between a guest and the backend,
  charging per-request and per-byte costs.

Batching: :meth:`SplitBlockDriver.read_many` / :meth:`write_many` push a
whole train of ring descriptors and charge one fixed ring service plus a
per-descriptor marginal cost (scaled by the same 0.6 amortization factor
as the single path, so a batch of one costs exactly what ``read``/``write``
always did).  The :data:`~repro.faults.sites.BLK_BACKEND` hook still fires
per descriptor; backend death fails the whole batch and the retry loop
resubmits it (sector writes are idempotent, so re-running is safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.faults import sites as fault_sites
from repro.faults.retry import RetryPolicy
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.drivers import BackendDeadError

SECTOR_SIZE = 512


class BlockError(OSError):
    pass


class BlockStore:
    """A flat RAM-backed virtual disk."""

    def __init__(self, capacity_sectors: int) -> None:
        if capacity_sectors <= 0:
            raise ValueError(
                f"capacity must be positive: {capacity_sectors}"
            )
        self.capacity_sectors = capacity_sectors
        self._sectors: dict[int, bytes] = {}

    def _check(self, sector: int) -> None:
        if not 0 <= sector < self.capacity_sectors:
            raise BlockError(
                f"sector {sector} out of range "
                f"(capacity {self.capacity_sectors})"
            )

    def read_sector(self, sector: int) -> bytes:
        self._check(sector)
        return self._sectors.get(sector, b"\x00" * SECTOR_SIZE)

    def write_sector(self, sector: int, data: bytes) -> None:
        self._check(sector)
        if len(data) != SECTOR_SIZE:
            raise BlockError(
                f"writes are whole sectors ({SECTOR_SIZE} B), got "
                f"{len(data)}"
            )
        self._sectors[sector] = bytes(data)

    @property
    def allocated_sectors(self) -> int:
        return len(self._sectors)


@dataclass
class BlockStats:
    reads: int = 0
    writes: int = 0
    bytes_moved: int = 0
    backend_deaths: int = 0
    backend_restarts: int = 0
    ring_stalls: int = 0
    #: Completed descriptor batches (a single read/write is a batch of one).
    batches: int = 0
    #: Ring kicks elided by batching (descriptors - batches).
    kicks_saved: int = 0

    @property
    def avg_batch_size(self) -> float:
        """Mean descriptors per completed batch."""
        if self.batches == 0:
            return 0.0
        return (self.reads + self.writes) / self.batches

    def as_dict(self) -> dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_moved": self.bytes_moved,
            "backend_deaths": self.backend_deaths,
            "backend_restarts": self.backend_restarts,
            "ring_stalls": self.ring_stalls,
            "batches": self.batches,
            "avg_batch_size": self.avg_batch_size,
            "kicks_saved": self.kicks_saved,
        }


class SplitBlockDriver:
    """blkfront/blkback pair: guest block I/O through a shared ring.

    Only the split path is modelled: Docker's native device-mapper path
    has no ring, so nothing here charges or checks it.

    Backend death is injectable (:data:`repro.faults.sites.BLK_BACKEND`)
    and always strikes *before* any sector is touched, so a failed write
    is never torn; blkfront reconnects and retries under :attr:`retry`.
    """

    def __init__(
        self,
        store: BlockStore,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        faults=None,
        retry: RetryPolicy | None = None,
        sanitizer=None,
    ) -> None:
        self.store = store
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.faults.plan.FaultEngine`.
        self.faults = faults
        self.retry = retry or RetryPolicy()
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`; mirrors
        #: the ring protocol (publish/kick/reap).
        self.sanitizer = sanitizer
        self.stats = BlockStats()
        self.backend_alive = True
        self._frontend_actor = "blkfront"
        self._backend_actor = "blkback"
        self._ring_name = "blk"
        if self.sanitizer is not None:
            self._ring_name = self.sanitizer.ring_register(
                self._ring_name, 256, 16
            )

    def _ring_entry(self, op: str) -> None:
        """Fault hook at ring submission."""
        if not self.backend_alive:
            # blkback reconnect: one ring re-setup charge.
            self.backend_alive = True
            self.stats.backend_restarts += 1
            self.clock.advance(self.costs.netfront_ns)
        if self.faults is not None:
            fault = self.faults.fire(fault_sites.BLK_BACKEND, op=op)
            if fault is not None:
                if fault.kind == "kill":
                    self.backend_alive = False
                    self.stats.backend_deaths += 1
                    raise BackendDeadError("blkback died mid-ring")
                if fault.kind == "stall":
                    self.stats.ring_stalls += 1
                    self.clock.advance(
                        self.costs.netfront_ns * max(1.0, fault.param)
                    )

    def _charge_batch(self, ndescs: int, nbytes: int) -> None:
        """Charge one descriptor batch: fixed ring service + marginals.

        Grant + ring + event work is amortized at the same 0.6 factor
        as before; ``0.6 * (ring_batch_fixed_ns + ring_per_desc_ns)``
        equals the legacy ``0.6 * netfront_ns`` per request at batch size
        one (calibration invariant in ``perf/costs.py``).
        """
        cost = nbytes * self.costs.copy_per_byte_ns + 0.6 * (
            self.costs.ring_batch_fixed_ns
            + ndescs * self.costs.ring_per_desc_ns
        )
        self.clock.advance(cost)

    def read(self, sector: int, count: int = 1) -> bytes:
        if count < 1:
            raise BlockError(f"count must be >= 1: {count}")
        return self.retry.run(
            lambda: self._read_many_once(((sector, count),)),
            retriable=(BackendDeadError,),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.BLK_BACKEND,
        )[0]

    def read_many(self, ops: Iterable[tuple[int, int]]) -> list[bytes]:
        """Read a batch of ``(sector, count)`` extents through one ring pass.

        One fixed ring charge covers the whole train; the backend fault
        hook fires per descriptor, and backend death loses the batch (the
        retry loop resubmits it — reads are side-effect free).
        """
        batch = tuple(ops)
        for _, count in batch:
            if count < 1:
                raise BlockError(f"count must be >= 1: {count}")
        if not batch:
            return []
        return self.retry.run(
            lambda: self._read_many_once(batch),
            retriable=(BackendDeadError,),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.BLK_BACKEND,
        )

    def _read_many_once(
        self, batch: Sequence[tuple[int, int]]
    ) -> list[bytes]:
        san = self.sanitizer
        if san is not None:
            san.ring_batch_start(self._ring_name, self._frontend_actor)
        results = []
        total = 0
        pushed = 0
        try:
            for sector, count in batch:
                self._ring_entry("read")
                if san is not None:
                    san.ring_publish(self._ring_name, self._frontend_actor)
                    pushed += 1
                out = b"".join(
                    self.store.read_sector(sector + i) for i in range(count)
                )
                results.append(out)
                total += len(out)
                self.stats.reads += 1
        except BaseException:
            if san is not None:
                san.ring_abort(self._ring_name, pushed)
            raise
        if san is not None:
            san.ring_kick(self._ring_name, self._frontend_actor)
            san.ring_reap(self._ring_name, self._backend_actor, len(batch))
        self.stats.bytes_moved += total
        self.stats.batches += 1
        self.stats.kicks_saved += len(batch) - 1
        self._charge_batch(len(batch), total)
        return results

    def write(self, sector: int, data: bytes) -> None:
        if len(data) % SECTOR_SIZE:
            raise BlockError(
                f"write size {len(data)} not sector-aligned"
            )
        self.retry.run(
            lambda: self._write_many_once(((sector, data),)),
            retriable=(BackendDeadError,),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.BLK_BACKEND,
        )

    def write_many(self, ops: Iterable[tuple[int, bytes]]) -> None:
        """Write a batch of ``(sector, data)`` extents through one ring pass.

        Sector writes are idempotent, so a mid-batch backend death simply
        re-runs the whole train on reconnect; no write is ever torn
        (death always strikes before the failing descriptor's sectors).
        """
        batch = tuple(ops)
        for _, data in batch:
            if len(data) % SECTOR_SIZE:
                raise BlockError(
                    f"write size {len(data)} not sector-aligned"
                )
        if not batch:
            return
        self.retry.run(
            lambda: self._write_many_once(batch),
            retriable=(BackendDeadError,),
            clock=self.clock,
            faults=self.faults,
            site=fault_sites.BLK_BACKEND,
        )

    def _write_many_once(self, batch: Sequence[tuple[int, bytes]]) -> None:
        san = self.sanitizer
        if san is not None:
            san.ring_batch_start(self._ring_name, self._frontend_actor)
        total = 0
        pushed = 0
        try:
            for sector, data in batch:
                self._ring_entry("write")
                if san is not None:
                    san.ring_publish(self._ring_name, self._frontend_actor)
                    pushed += 1
                for i in range(len(data) // SECTOR_SIZE):
                    self.store.write_sector(
                        sector + i,
                        data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE],
                    )
                self.stats.writes += 1
                total += len(data)
        except BaseException:
            if san is not None:
                san.ring_abort(self._ring_name, pushed)
            raise
        if san is not None:
            san.ring_kick(self._ring_name, self._frontend_actor)
            san.ring_reap(self._ring_name, self._backend_actor, len(batch))
        self.stats.bytes_moved += total
        self.stats.batches += 1
        self.stats.kicks_saved += len(batch) - 1
        self._charge_batch(len(batch), total)
