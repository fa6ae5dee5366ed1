"""The sanitizer suite: one object the substrates hook into.

``SanitizerSuite`` owns the three checkers and presents the narrow
``on_*`` surface the instrumented modules call.  Substrates follow the
same pattern as ``faults``/``telemetry``: they carry a ``sanitizer``
attribute that defaults to ``None``, and every hook site is a single
``if self.sanitizer is not None`` test when disabled — the <2% budget.

Actor attribution: cross-vCPU attribution needs to know *who* is
executing when a memory observer fires.  The execution drivers
(``XContainer.run_concurrent`` et al.) keep :attr:`current_actor`
up to date; hooks with better knowledge (a driver that knows which
domain is frontend and which is backend) pass explicit actors instead.

Synchronization-edge catalog (what advances the vector clocks):

===========================  =======================================
edge                          channel
===========================  =======================================
event send / delivery         ``("evt", port)``
ring kick / reap              ``("ring", name)`` (producer → consumer)
ring reap / next train        ``("ringc", name)`` (consumer → producer)
grant / map,  unmap / end     ``("gnt", ref)``
LOCK cmpxchg and block decode ``("page", page_index)``
===========================  =======================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.safety import Finding
from repro.sanitize.grants import GrantSanitizer
from repro.sanitize.protocol import ProtocolChecker
from repro.sanitize.race import RaceDetector

if TYPE_CHECKING:
    from repro.arch.memory import PagedMemory


class SanitizerSuite:
    """Deterministic cross-vCPU sanitizers over the simulated stack."""

    def __init__(self) -> None:
        self.race: RaceDetector = RaceDetector()
        self.grants: GrantSanitizer = GrantSanitizer()
        self.rings: ProtocolChecker = ProtocolChecker()
        #: Whoever the execution driver says is running right now.
        self.current_actor = "main"

    # ------------------------------------------------------------------
    # Memory attachment (race detector substrate)
    # ------------------------------------------------------------------
    def attach_memory(self, memory: PagedMemory) -> None:
        """Observe plain and LOCK-prefixed stores through ``memory``."""
        race = self.race

        def on_write(addr: int, size: int) -> None:
            if memory.in_locked_op:
                return  # the lock observer reports this store
            race.write(self.current_actor, addr, size)

        def on_lock(addr: int, size: int) -> None:
            race.locked_write(self.current_actor, addr, size)

        memory.add_write_observer(on_write)
        memory.add_lock_observer(on_lock)

    # ------------------------------------------------------------------
    # CPU hooks
    # ------------------------------------------------------------------
    def on_exec(self, actor: str, addr: int, size: int) -> None:
        """Basic-block decode of ``[addr, addr+size)`` by ``actor``."""
        self.race.exec_access(actor, addr, size)

    # ------------------------------------------------------------------
    # Event-channel hooks
    # ------------------------------------------------------------------
    def on_event_send(self, port: int) -> None:
        self.rings.on_event_send(port)
        self.race.release(self.current_actor, ("evt", port))

    def on_event_drop(self, port: int) -> None:
        self.rings.on_event_drop(port)

    def on_event_deliver(self, port: int) -> None:
        self.rings.on_event_deliver(port)
        self.race.acquire(self.current_actor, ("evt", port))

    # ------------------------------------------------------------------
    # Ring hooks (split drivers)
    # ------------------------------------------------------------------
    #: Shadow descriptor pages live in their own region of the simulated
    #: address space, one page per ring — two rings can legitimately
    #: grant the same guest-physical frame (each guest's 0xF000), so the
    #: race detector must not alias their slots.
    _SHADOW_RING_BASE = 0xF000_0000

    def ring_register(self, name: str, size: int, slot_bytes: int) -> str:
        """Register a ring; returns the (uniquified) ring name."""
        base, n = name, 2
        while self.rings.ring(name) is not None:
            name = f"{base}#{n}"
            n += 1
        page = self._SHADOW_RING_BASE + 0x1000 * len(self.rings.rings())
        self.rings.ring_register(name, size, page, slot_bytes)
        self.race.track_page(page)
        return name

    def ring_batch_start(self, name: str, producer: str) -> None:
        self.race.acquire(producer, ("ringc", name))

    def ring_publish(self, name: str, producer: str) -> None:
        index = self.rings.ring_publish(name)
        ring = self.rings.ring(name)
        if ring is not None:
            self.race.write(
                producer, ring.slot_addr(index), ring.slot_bytes, track=True
            )

    def ring_kick(self, name: str, producer: str) -> None:
        self.rings.ring_kick(name)
        self.race.release(producer, ("ring", name))

    def ring_kick_lost(self, name: str) -> None:
        self.rings.ring_kick_lost(name)

    def ring_abort(self, name: str, pushed: int) -> None:
        self.rings.ring_abort(name, pushed)

    def ring_reap(self, name: str, consumer: str, count: int) -> None:
        rings = self.rings
        race = self.race
        race.acquire(consumer, ("ring", name))
        ring = rings.ring(name)
        if ring is not None:
            for i in range(count):
                race.read(
                    consumer,
                    ring.slot_addr(ring.cons + i),
                    ring.slot_bytes,
                )
        rings.ring_consume(name, count)
        race.release(consumer, ("ringc", name))

    def ring_stall_drain(self, name: str, producer: str, consumer: str) -> None:
        """Producer hit a full ring; backend drains it synchronously."""
        race = self.race
        race.release(producer, ("ring", name))
        race.acquire(consumer, ("ring", name))
        self.rings.ring_drain(name)
        race.release(consumer, ("ringc", name))
        race.acquire(producer, ("ringc", name))

    def ring_quiesce(self, name: str) -> None:
        self.rings.ring_quiesce(name)

    # ------------------------------------------------------------------
    # Grant hooks
    # ------------------------------------------------------------------
    def on_grant(self, ref: int, owner: int, page: int) -> None:
        self.grants.on_grant(ref, owner, page)
        self.race.release(f"dom{owner}", ("gnt", ref))

    def on_map_attempt(self, ref: int) -> None:
        self.grants.on_map_attempt(ref)

    def on_map(self, ref: int, mapper: int) -> None:
        self.grants.on_map(ref, mapper)
        self.race.acquire(f"dom{mapper}", ("gnt", ref))

    def on_unmap_attempt(self, ref: int, mapper: int) -> None:
        self.grants.on_unmap_attempt(ref, mapper)

    def on_unmap(self, ref: int, mapper: int) -> None:
        self.grants.on_unmap(ref)
        self.race.release(f"dom{mapper}", ("gnt", ref))

    def on_copy(self, ref: int) -> None:
        self.grants.on_copy(ref)

    def on_end(self, ref: int, owner: int) -> None:
        """``owner < 0`` means the real table no longer knows the ref
        (the double-end case) — no synchronization edge to draw."""
        if owner >= 0:
            self.race.acquire(f"dom{owner}", ("gnt", ref))
        self.grants.on_end(ref)

    def on_domain_destroy(self, domid: int) -> None:
        self.grants.on_domain_destroy(domid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run checks: lost wakeups at final quiescence."""
        self.rings.quiesce_all()

    @property
    def findings(self) -> list[Finding]:
        """All findings, deterministically ordered."""
        out = [
            *self.race.findings, *self.grants.findings, *self.rings.findings
        ]
        return sorted(out, key=lambda f: (f.kind, f.site, f.message))

    def stats(self) -> tuple[tuple[str, int], ...]:
        """Deterministic (name, value) counter pairs for reports."""
        race, grants, rings = self.race, self.grants, self.rings
        return (
            ("race_accesses_checked", race.accesses_checked),
            ("race_sync_edges", race.sync_edges),
            ("race_findings", len(race.findings)),
            ("grant_grants", grants.grants_issued),
            ("grant_maps", grants.maps),
            ("grant_unmaps", grants.unmaps),
            ("grant_copies", grants.copies),
            ("grant_ends", grants.ends),
            ("grant_findings", len(grants.findings)),
            ("ring_publishes", rings.publishes),
            ("ring_consumes", rings.consumes),
            ("event_sends", rings.event_sends),
            ("event_drops", rings.event_drops),
            ("event_deliveries", rings.event_deliveries),
            ("ring_findings", len(rings.findings)),
        )
