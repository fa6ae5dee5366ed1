"""Offline patching tool (§4.4, §5.2).

ABOM only handles sites where the ``syscall`` immediately follows the
``mov``.  For anything else — notably the *cancellable* syscalls in
libpthread, where a cancellation-flag check sits between the two (the MySQL
row of Table 1) — the paper provides an offline tool that injects code and
redirects a bigger chunk of the binary.

This implementation works on a loaded binary image the way a developer
would: it takes the site list (symbols) a human identified ("two locations
in the libpthread library can be patched"), and rewrites each whole
``mov; <checks>; syscall`` region into ``callq *slot`` plus a short jump
over the leftover bytes.  Unlike ABOM it is not restricted to two atomic
stores — the binary is patched at rest, not while running.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.binary import Binary, SitePattern, SyscallSite
from repro.arch.encoding import decode, enc_call_abs_ind, enc_jmp_rel8
from repro.arch.memory import PagedMemory
from repro.core import vsyscall


@dataclass
class OfflinePatchReport:
    patched: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


class OfflinePatcher:
    """Rewrites syscall sites ABOM cannot recognize, in place.

    The instructions between the ``mov`` and the ``syscall`` are dead
    weight for the LibOS case (the libpthread cancellation check:
    cancellation state lives in the LibOS anyway), so the whole region
    is overwritten with a ``callq *slot`` plus a jump over the
    leftovers.  §4.4's other strategy, injecting a trampoline for
    intervening code that must still run, is not modelled: no Table 1
    row needs it.
    """

    def __init__(self, memory: PagedMemory) -> None:
        self.memory = memory

    def patch_sites(
        self, binary: Binary, sites: list[SyscallSite]
    ) -> OfflinePatchReport:
        """Patch each cancellable ``site`` of ``binary`` in memory."""
        report = OfflinePatchReport()
        for site in sites:
            label = site.symbol or hex(site.syscall_addr)
            if self._patch_one(site):
                report.patched.append(label)
            else:
                report.skipped.append(label)
        return report

    def _patch_one(self, site: SyscallSite) -> bool:
        if site.pattern is not SitePattern.CANCELLABLE or site.nr is None:
            return False
        # Locate the start of the wrapper: the ``mov $nr,%eax`` (5 bytes)
        # followed by the cancellation check, ending at the syscall.
        region_start = self._find_mov(site)
        if region_start is None:
            return False
        region_len = site.syscall_addr + 2 - region_start
        call = enc_call_abs_ind(vsyscall.slot_addr(site.nr))
        filler_len = region_len - len(call)
        if filler_len < 0:
            return False
        if filler_len == 0:
            patch = call
        elif filler_len == 1:
            patch = call + b"\x90"
        else:
            # Jump over whatever is left so stray bytes are never executed.
            patch = call + enc_jmp_rel8(filler_len - 2) + b"\x90" * (
                filler_len - 2
            )
        self.memory.wp_enabled = False
        try:
            self.memory.write(region_start, patch)
        finally:
            self.memory.wp_enabled = True
        return True

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _find_mov(self, site: SyscallSite) -> int | None:
        """Scan back for the ``b8 <nr>`` that begins the wrapper."""
        want = bytes([0xB8]) + (site.nr & 0xFFFFFFFF).to_bytes(4, "little")
        for back in range(5, 17):
            start = site.syscall_addr - back
            if start < 0 or not self.memory.is_mapped(start):
                break
            if self.memory.read(start, 5) == want:
                # Confirm the bytes between mov and syscall decode cleanly
                # (we are rewriting whole instructions, not tails).
                if self._decodes_through(start + 5, site.syscall_addr):
                    return start
        return None

    def _decodes_through(self, start: int, end: int) -> bool:
        cursor = start
        while cursor < end:
            try:
                instr = decode(self.memory.read(cursor, min(15, end - cursor)))
            except Exception:
                return False
            cursor += instr.length
        return cursor == end
