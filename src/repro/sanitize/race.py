"""Happens-before race detector over shared simulated pages.

The detector keeps one vector clock per actor (vCPU name, driver domain,
or the harness ``main`` thread) and advances them on the synchronization
edges the stack already has:

* event-channel send (release) / delivery (acquire);
* ring producer/consumer index publication (release by the publisher,
  acquire by the peer);
* grant map/unmap (release by the granting side, acquire by the mapper);
* ``LOCK``-prefixed stores — ABOM's ``cmpxchg`` — which perform a full
  acquire+release on the per-page channel, the same channel instruction
  fetch (block decode) synchronizes on.  That models the page-generation
  icache protocol: a patch published through ``cmpxchg`` is ordered
  against every later decode of the page, so ABOM is race-free while an
  unsynchronized plain store to executed text is flagged.

Accesses are recorded per *tracked* page in a bounded FIFO so memory use
is O(pages × window) regardless of run length.  A conflict needs an
overlap in bytes, at least one write (exec counts as a read of text;
write-vs-exec conflicts), two different actors, and no happens-before
edge between the recorded access and the current actor's clock.
"""

from __future__ import annotations

from repro.analysis.safety import Finding, Severity
from repro.sanitize.vclock import VClock, vc_fresh, vc_join

PAGE_SHIFT = 12

#: Kinds of recorded accesses.  ``exec`` conflicts with writes only.
READ = 0
WRITE = 1
EXEC = 2

_KIND_NAMES = ("read", "write", "exec")

#: Bounded per-page access window (FIFO).  Large enough to span the
#: batching the drivers do (ring trains of 64), small enough to bound
#: memory on long runs.
_WINDOW = 64


class _Access:
    __slots__ = ("kind", "actor", "epoch", "lo", "hi")

    def __init__(self, kind: int, actor: str, epoch: int, lo: int, hi: int) -> None:
        self.kind = kind
        self.actor = actor
        self.epoch = epoch
        self.lo = lo
        self.hi = hi


class RaceDetector:
    """FastTrack-style detector: epochs per access, clocks per actor."""

    def __init__(self) -> None:
        self._clocks: dict[str, VClock] = {}
        self._channels: dict[object, VClock] = {}
        self._pages: dict[int, list[_Access]] = {}
        self._reported: set[tuple[int, str, str, int]] = set()
        self.findings: list[Finding] = []
        # Counters surfaced through repro.obs.
        self.accesses_checked = 0
        self.sync_edges = 0

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _clock(self, actor: str) -> VClock:
        clock = self._clocks.get(actor)
        if clock is None:
            clock = vc_fresh(actor)
            self._clocks[actor] = clock
        return clock

    def release(self, actor: str, channel: object) -> None:
        """Publish ``actor``'s clock into ``channel`` and tick the actor."""
        clock = self._clock(actor)
        published = self._channels.get(channel)
        if published is None:
            self._channels[channel] = dict(clock)
        else:
            vc_join(published, clock)
        clock[actor] = clock.get(actor, 0) + 1
        self.sync_edges += 1

    def acquire(self, actor: str, channel: object) -> None:
        """Join ``channel``'s published clock into ``actor``'s."""
        published = self._channels.get(channel)
        if published is not None:
            vc_join(self._clock(actor), published)
        self.sync_edges += 1

    def clocks(self) -> dict[str, VClock]:
        """Snapshot of all actor clocks (for tests and reports)."""
        return {actor: dict(clock) for actor, clock in sorted(self._clocks.items())}

    # ------------------------------------------------------------------
    # Page tracking
    # ------------------------------------------------------------------
    def track_page(self, addr: int) -> None:
        """Start recording accesses to the page containing ``addr``."""
        self._pages.setdefault(addr >> PAGE_SHIFT, [])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def exec_access(self, actor: str, addr: int, size: int) -> None:
        """Instruction fetch/decode of ``[addr, addr+size)``.

        Decode participates in the page-generation coherence protocol, so
        it acquires and releases the per-page channel — a later ``LOCK``
        patch of the page is ordered after it, and vice versa.
        """
        self.track_page(addr)
        if size > 1:
            self.track_page(addr + size - 1)
        for index in self._spanned(addr, size):
            self.acquire(actor, ("page", index))
        self._record(EXEC, actor, addr, size)
        for index in self._spanned(addr, size):
            self.release(actor, ("page", index))

    def locked_write(self, actor: str, addr: int, size: int) -> None:
        """``LOCK``-prefixed store (ABOM's ``cmpxchg``): synchronized write."""
        for index in self._spanned(addr, size):
            self.acquire(actor, ("page", index))
        self._record(WRITE, actor, addr, size)
        for index in self._spanned(addr, size):
            self.release(actor, ("page", index))

    def write(self, actor: str, addr: int, size: int, track: bool = False) -> None:
        """Plain (unsynchronized) store."""
        if track:
            self.track_page(addr)
        self._record(WRITE, actor, addr, size)

    def read(self, actor: str, addr: int, size: int, track: bool = False) -> None:
        """Plain (unsynchronized) load."""
        if track:
            self.track_page(addr)
        self._record(READ, actor, addr, size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _spanned(addr: int, size: int) -> range:
        return range(addr >> PAGE_SHIFT, (addr + max(size, 1) - 1 >> PAGE_SHIFT) + 1)

    def _record(self, kind: int, actor: str, addr: int, size: int) -> None:
        size = max(size, 1)
        lo, hi = addr, addr + size
        clock = self._clock(actor)
        epoch = clock.get(actor, 0)
        for index in self._spanned(addr, size):
            window = self._pages.get(index)
            if window is None:
                continue
            self.accesses_checked += 1
            for prior in window:
                if prior.actor == actor:
                    continue
                if prior.hi <= lo or prior.lo >= hi:
                    continue
                if not self._conflicting(prior.kind, kind):
                    continue
                if prior.epoch <= clock.get(prior.actor, 0):
                    continue  # ordered: prior happens-before current
                self._report(index, prior, kind, actor, lo)
            window.append(_Access(kind, actor, epoch, lo, hi))
            if len(window) > _WINDOW:
                del window[0]

    @staticmethod
    def _conflicting(a: int, b: int) -> bool:
        if a == WRITE or b == WRITE:
            return True
        return False  # read/read, read/exec, exec/exec are fine

    def _report(
        self, page: int, prior: _Access, kind: int, actor: str, addr: int
    ) -> None:
        pair = (prior.actor, actor) if prior.actor < actor else (actor, prior.actor)
        key = (page, pair[0], pair[1], prior.kind | kind << 2)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                Severity.ERROR,
                "data-race",
                addr,
                f"unordered {_KIND_NAMES[kind]} by {actor} conflicts with "
                f"{_KIND_NAMES[prior.kind]} by {prior.actor} on page "
                f"{page << PAGE_SHIFT:#x}",
            )
        )
