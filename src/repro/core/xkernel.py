"""X-Kernel — Xen modified into an exokernel for X-Containers (§4.2).

Differences from stock Xen PV, as implemented here:

* a trapped ``syscall`` is handed to ABOM for patching and then transferred
  *directly* to the X-LibOS in the same address space — no page-table
  switch, no TLB flush (stock x86-64 Xen PV pays both, twice per syscall);
* a #UD raised by a jump into the tail of a patched call is fixed up by
  rewinding RIP (§4.4);
* the event-delivery hypercall is gone: events are drained directly
  (:meth:`repro.xen.events.EventChannelTable.drain` with
  ``via_hypercall=False``).

The X-Kernel still owns everything that needs root privilege, which is
why process creation and context switching inside an X-Container are
*slower* than native Docker (§5.4) even though syscalls are far faster;
the cost model prices those page-table hypercalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cpu import CPU, Trap, TrapKind
from repro.arch.memory import PagedMemory
from repro.core.abom import ABOM
from repro.core.xlibos import XLibOS
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

#: x86 ``hlt``: one byte; an interrupt resumes at the next instruction.
_HLT_OPCODE = 0xF4
#: Bound once: an enum member lookup is a descriptor call in Python 3.11,
#: and the syscall kind is read twice per forwarded syscall.
_SYSCALL = TrapKind.SYSCALL
_INVALID_OPCODE = TrapKind.INVALID_OPCODE


@dataclass
class XKernelStats:
    syscalls_trapped: int = 0
    ud_traps: int = 0
    #: vCPUs parked in the guest idle loop (``hlt``) / woken by an event.
    idle_parks: int = 0
    idle_wakes: int = 0


class XKernel:
    """The exokernel: trap handling and ABOM hosting."""

    def __init__(
        self,
        memory: PagedMemory,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        abom_enabled: bool = True,
        faults=None,
    ) -> None:
        self.memory = memory
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: Optional :class:`repro.faults.plan.FaultEngine`, shared with ABOM.
        self.faults = faults
        self.abom = ABOM(
            memory, self.costs, self.clock, enabled=abom_enabled,
            faults=faults,
        )
        self.stats = XKernelStats()
        #: Optional :class:`repro.obs.TraceRecorder` (instant events).
        self.tracer = None

    # ------------------------------------------------------------------
    # CPU attachment
    # ------------------------------------------------------------------
    def attach(self, cpu: CPU, libos: XLibOS) -> None:
        """Install this kernel as ``cpu``'s syscall entry and trap
        handler, serving ``libos``.

        Both hooks go through :meth:`handle_trap`: a trapped ``syscall``
        arrives at the entry (LSTAR) without a :class:`Trap`, so the entry
        builds one, and every forwarded syscall and every #UD is one
        ``handle_trap`` call.
        """

        def handler(cpu: CPU, trap: Trap) -> None:
            self.handle_trap(cpu, trap, libos)

        def entry(cpu: CPU, rip: int) -> None:
            self.handle_trap(cpu, Trap(_SYSCALL, rip), libos)

        cpu.trap_handler = handler
        cpu.syscall_entry = entry
        libos.attach(cpu)

    # ------------------------------------------------------------------
    # Trap handling
    # ------------------------------------------------------------------
    def handle_trap(self, cpu: CPU, trap: Trap, libos: XLibOS) -> None:
        kind = trap.kind
        if kind is _SYSCALL:
            self._handle_syscall(cpu, trap, libos)
        elif kind is _INVALID_OPCODE:
            self._handle_ud(cpu, trap)
        else:
            raise trap

    def _handle_syscall(self, cpu: CPU, trap: Trap, libos: XLibOS) -> None:
        """Patch (if possible), then transfer to the LibOS (§4.4).

        "The X-Kernel immediately transfers control to the X-LibOS,
        guaranteeing binary level compatibility."
        """
        self.stats.syscalls_trapped += 1
        if self.tracer is not None:
            self.tracer.emit(
                "syscall", "forwarded", rip=trap.rip,
                nr=cpu.regs.rax & 0xFFFFFFFF,
            )
        self.abom.try_patch(trap.rip)
        self.clock.advance(self.costs.xc_forwarded_syscall_ns)
        libos.forwarded_entry(cpu, trap.rip)

    def _handle_ud(self, cpu: CPU, trap: Trap) -> None:
        """Fix a jump into the last two bytes of a patched call (§4.4).

        With the decode cache enabled this path is reached exactly as on
        the bare interpreter: the patch store invalidated any cached block
        covering the site, so the jump into the ``60 ff`` tail misses the
        cache, re-decodes the freshly patched bytes, and #UDs here.  The
        rewound RIP then re-enters (or re-fills) the block that starts at
        the patched call.
        """
        self.stats.ud_traps += 1
        if self.abom.looks_like_patched_tail(trap.rip):
            self.abom.fixup_rip(cpu, trap.rip)
            return
        raise trap

    # ------------------------------------------------------------------
    # Idle park / wake (the discrete-event engine's protocol)
    # ------------------------------------------------------------------
    def note_parked(self, cpu: CPU) -> None:
        """Record a vCPU blocking in the guest idle loop (``hlt``).

        The fleet engine (:mod:`repro.core.engine`) calls this when a
        domain's last runnable vCPU halts; from here on the domain is
        eligible for fast-forwarding to its next wake event.
        """
        if not cpu.halted:
            raise ValueError("cannot park a running vCPU")
        self.stats.idle_parks += 1

    def resume_from_halt(self, cpu: CPU) -> bool:
        """Deliver a wake event to a vCPU parked in ``hlt``.

        Mirrors hardware: an interrupt arriving at a halted CPU resumes
        execution at the instruction *after* the ``hlt`` (RIP was left
        pointing at the ``hlt`` byte when the trap fired).  Returns
        False when the vCPU was not halted (the wake raced a burst).
        """
        if not cpu.halted:
            return False
        if self.memory.read(cpu.regs.rip, 1)[0] == _HLT_OPCODE:
            cpu.regs.rip += 1
        cpu.halted = False
        self.stats.idle_wakes += 1
        return True
