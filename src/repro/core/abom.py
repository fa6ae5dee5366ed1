"""ABOM — the Automatic Binary Optimization Module (§4.4).

ABOM lives in the X-Kernel.  Every time a ``syscall`` instruction traps, and
*before* forwarding the request to the X-LibOS, ABOM inspects the bytes
around the trapping instruction.  If they match a recognized pattern it
rewrites them, in place, into a ``callq *slot`` through the vsyscall entry
table, so every later execution of the site bypasses the kernel entirely.

Recognized patterns (Figure 2):

===========  ============================================  ==================
pattern      original bytes                                replacement
===========  ============================================  ==================
Case 1       ``b8 imm32`` + ``0f 05``        (5+2 bytes)   one 7-byte call
Case 2 (Go)  ``48 8b 44 24 d8`` + ``0f 05``  (5+2 bytes)   one 7-byte call
                                                           (dynamic slot)
9-byte       ``48 c7 c0 imm32`` + ``0f 05``  (7+2 bytes)   phase 1: call
                                                           over the mov;
                                                           phase 2: ``eb f7``
                                                           over the syscall
===========  ============================================  ==================

Mechanical constraints reproduced from the paper:

* text pages are read-only, so the patcher clears the write-protect bit
  (CR0.WP) around the store and restores it after — leaving the page DIRTY;
* all stores go through ≤8-byte compare-exchange; the two stores of the
  9-byte patch each leave the binary in a semantically equivalent state
  (phase 1: ``call; syscall`` double-dispatch is prevented by the LibOS
  return-address check; phase 2: the trailing ``jmp -9`` re-enters the
  call for code that jumps to the old syscall address);
* a jump into the last two bytes of a 7-byte patch executes ``0x60 0xff``
  and #UDs; the X-Kernel's fixup handler rewinds RIP to the call (handled
  in :mod:`repro.core.xkernel`, see :meth:`ABOM.looks_like_patched_tail`).

Interplay with the interpreter's decode cache: every patch store goes
through :meth:`PagedMemory.compare_exchange` → :meth:`PagedMemory.write`,
which bumps the page's generation counter and fires the write observers
each vCPU registered.  Any cached basic block decoded from the patched
page — including a block a racing vCPU is executing *right now* — is
dropped before its next instruction, so the very next execution of the
site decodes the rewritten bytes.  This is the software analogue of the
hardware i-cache coherence the paper's ≤8-byte ``cmpxchg`` argument
quietly relies on (§4.4); ``docs/interpreter_performance.md`` spells out
the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpu import CPU
from repro.arch.encoding import enc_call_abs_ind, enc_jmp_rel8
from repro.arch.memory import PagedMemory
from repro.core import vsyscall
from repro.faults import sites as fault_sites
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

_SYSCALL = b"\x0f\x05"
#: ``jmp -9``: from the end of the syscall back to the start of the call.
_JMP_BACK = enc_jmp_rel8(-9)
_CALL_PREFIX = b"\xff\x14\x25"


@dataclass
class AbomStats:
    """Counters exposed for Table 1 ("we added a counter in the X-Kernel")."""

    syscalls_forwarded: int = 0
    patches_7byte: int = 0
    patches_9byte: int = 0
    patches_go: int = 0
    patch_failures: int = 0
    unrecognized_sites: int = 0
    ud_fixups: int = 0
    #: Injected cmpxchg losses to a (phantom) racing vCPU.
    cmpxchg_contentions: int = 0
    #: Site addresses already patched (patching is once per site).
    patched_sites: set[int] = field(default_factory=set)

    @property
    def total_patches(self) -> int:
        return self.patches_7byte + self.patches_9byte + self.patches_go


class ABOM:
    """The online binary patcher."""

    def __init__(
        self,
        memory: PagedMemory,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        enabled: bool = True,
        faults=None,
    ) -> None:
        self.memory = memory
        self.costs = costs or CostModel()
        self.clock = clock
        self.enabled = enabled
        #: Optional :class:`repro.faults.plan.FaultEngine`: ``contend``
        #: faults at :data:`repro.faults.sites.ABOM_CMPXCHG` make the CAS
        #: lose, exercising §4.4's retry arguments.
        self.faults = faults
        self.stats = AbomStats()
        #: Optional :class:`repro.obs.TraceRecorder` receiving patch events.
        self.tracer = None
        #: True while a patch is in flight — models "temporarily disables
        #: interrupts"; tests assert it is never observable from outside.
        self.irqs_disabled = False
        #: Sites whose patch previously lost a cmpxchg race; used to
        #: report recovery when the re-trap finally patches them.
        self._contended_sites: set[int] = set()
        self._contended = False

    # ------------------------------------------------------------------
    # Pattern matching & patching
    # ------------------------------------------------------------------
    def try_patch(self, syscall_addr: int) -> bool:
        """Attempt to patch the site whose ``syscall`` is at ``syscall_addr``.

        Called by the X-Kernel on every forwarded syscall, before the
        forward itself (the current invocation still goes the slow way; the
        paper patches "before forwarding the syscall request" but the
        request in hand is completed normally either way).
        Returns True if the site is now patched.
        """
        if not self.enabled:
            return False
        if syscall_addr in self.stats.patched_sites:
            return True
        self._contended = False
        matched = (
            self._try_patch_9byte(syscall_addr)
            or self._try_patch_mov_eax(syscall_addr)
            or self._try_patch_go(syscall_addr)
        )
        if matched:
            self.stats.patched_sites.add(syscall_addr)
            self._charge(self.costs.abom_patch_ns)
            if self.tracer is not None:
                self.tracer.emit("abom", "patch", site=syscall_addr)
            if self.faults is not None and (
                self._contended or syscall_addr in self._contended_sites
            ):
                # Either an earlier trap's patch lost the race (and this
                # re-trap finished it), or a 9-byte phase-2 loss left the
                # still-correct phase-1 state (§4.4's race argument).
                self._contended_sites.discard(syscall_addr)
                self.faults.record_recovered(
                    fault_sites.ABOM_CMPXCHG, addr=syscall_addr
                )
        elif self._contended:
            # The CAS lost to a racing vCPU — not an unrecognized site;
            # the next trap on this site retries the patch.
            self._contended_sites.add(syscall_addr)
        else:
            self.stats.unrecognized_sites += 1
            if self.tracer is not None:
                self.tracer.emit("abom", "unrecognized", site=syscall_addr)
        return matched

    def _read_back(self, addr: int, count: int) -> bytes | None:
        """Read ``count`` bytes ending at ``addr`` if all are mapped."""
        start = addr - count
        for probe in (start, addr - 1):
            if probe < 0 or not self.memory.is_mapped(probe):
                return None
        return self.memory.read(start, count)

    def _try_patch_mov_eax(self, syscall_addr: int) -> bool:
        """Fig 2 Case 1: ``b8 imm32; 0f 05`` → 7-byte call."""
        window = self._read_back(syscall_addr, 5)
        if window is None or window[0] != 0xB8:
            return False
        nr = int.from_bytes(window[1:5], "little")
        if nr >= vsyscall.NUM_SYSCALLS:
            return False
        old = window + _SYSCALL
        new = enc_call_abs_ind(vsyscall.slot_addr(nr))
        if self._cmpxchg(syscall_addr - 5, old, new):
            self.stats.patches_7byte += 1
            return True
        self.stats.patch_failures += 1
        return False

    def _try_patch_go(self, syscall_addr: int) -> bool:
        """Fig 2 Case 2: ``48 8b 44 24 disp8; 0f 05`` → 7-byte call.

        The syscall number is only known at run time (loaded from the
        stack), so the call goes through the dynamic slot table; its stub
        re-reads the number from ``disp+8(%rsp)``.
        """
        window = self._read_back(syscall_addr, 5)
        if window is None or window[:4] != b"\x48\x8b\x44\x24":
            return False
        disp = window[4]
        if disp not in vsyscall.DYNAMIC_DISPS:
            return False
        old = window + _SYSCALL
        new = enc_call_abs_ind(vsyscall.dynamic_slot_addr(disp))
        if self._cmpxchg(syscall_addr - 5, old, new):
            self.stats.patches_go += 1
            return True
        self.stats.patch_failures += 1
        return False

    def _try_patch_9byte(self, syscall_addr: int) -> bool:
        """Fig 2 9-byte: ``48 c7 c0 imm32; 0f 05`` in two phases."""
        window = self._read_back(syscall_addr, 7)
        if window is None or window[:3] != b"\x48\xc7\xc0":
            return False
        nr = int.from_bytes(window[3:7], "little")
        if nr >= vsyscall.NUM_SYSCALLS:
            return False
        # Phase 1: overwrite the 7-byte mov with the call; the trailing
        # syscall stays — the binary is still valid because the LibOS entry
        # skips a syscall found at the return address.
        phase1_new = enc_call_abs_ind(vsyscall.slot_addr(nr))
        if not self._cmpxchg(syscall_addr - 7, bytes(window), phase1_new):
            self.stats.patch_failures += 1
            return False
        # Phase 2: overwrite the now-dead syscall with ``jmp -9`` so a
        # direct jump to the old syscall address re-enters the call.
        if not self._cmpxchg(syscall_addr, _SYSCALL, _JMP_BACK):
            # Another vCPU raced us between the phases; the phase-1 state
            # is still correct, so count the site as patched anyway.
            self.stats.patch_failures += 1
        self.stats.patches_9byte += 1
        return True

    def _cmpxchg(self, addr: int, expected: bytes, new: bytes) -> bool:
        """One ≤8-byte compare-exchange with CR0.WP dropped around it.

        The store also serves as the decode-cache invalidation point: it
        bumps the text page's generation and notifies every vCPU's write
        observer, evicting any basic block decoded from the old bytes.
        """
        if self.faults is not None:
            fault = self.faults.fire(fault_sites.ABOM_CMPXCHG, addr=addr)
            if fault is not None and fault.kind == "contend":
                # A racing vCPU's store won; our compare sees stale bytes
                # and fails without writing anything.
                self.stats.cmpxchg_contentions += 1
                self._contended = True
                self.faults.record_retry(
                    fault_sites.ABOM_CMPXCHG, addr=addr
                )
                return False
        self.irqs_disabled = True
        saved_wp = self.memory.wp_enabled
        self.memory.wp_enabled = False
        try:
            return self.memory.compare_exchange(addr, expected, new)
        finally:
            self.memory.wp_enabled = saved_wp
            self.irqs_disabled = False

    # ------------------------------------------------------------------
    # #UD fixup support (jump into a patched call's tail)
    # ------------------------------------------------------------------
    def looks_like_patched_tail(self, fault_rip: int) -> bool:
        """True if ``fault_rip`` points at the ``60 ff`` tail of our call.

        The 7-byte replacement puts ``0x60 0xff`` exactly where the original
        ``syscall`` was; code that jumps to the old syscall address lands
        there and #UDs.  The fixup applies when the 5 bytes before the
        fault look like the head of one of our calls (§4.4).
        """
        head = self._read_back(fault_rip, 5)
        if head is None or head[:3] != _CALL_PREFIX:
            return False
        if not self.memory.is_mapped(fault_rip + 1):
            return False
        tail = self.memory.read(fault_rip, 2)
        return tail == b"\x60\xff"

    def fixup_rip(self, cpu: CPU, fault_rip: int) -> None:
        """Rewind RIP to the start of the patched call (5 bytes back)."""
        if not self.looks_like_patched_tail(fault_rip):
            raise ValueError(
                f"#UD at {fault_rip:#x} is not a patched call tail"
            )
        cpu.regs.rip = fault_rip - 5
        self.stats.ud_fixups += 1
        self._charge(self.costs.ud_fixup_ns)

    def _charge(self, ns: float) -> None:
        if self.clock is not None:
            self.clock.advance(ns)
