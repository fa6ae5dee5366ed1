"""Static syscall-site discovery and classification.

ABOM (§4.4) decides what to patch from the raw bytes in front of a
trapping ``syscall``; the offline tool (§5.2) patches the sites of a
human-supplied symbol list.  This module reads the bytes alone: it finds
every ``syscall`` in the recovered CFG and classifies it into the same
:class:`~repro.arch.binary.SitePattern` taxonomy the rest of the
repository uses, by

* **byte matching** for the three Figure-2 shapes, mirroring ABOM's own
  matcher exactly (same windows, same number/displacement range checks,
  same precedence) so the differential checker can demand zero
  prediction mismatches, and
* **CFG back-walking** for everything else: a straight-line walk
  backwards from the ``syscall`` looking for the ``mov $nr,%eax`` of a
  libpthread-style cancellable wrapper, stopping at control transfers,
  merges, and anything that clobbers %rax on the way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG, recover_binary_cfg
from repro.arch.binary import Binary, SitePattern
from repro.arch.encoding import Instruction, enc_call_abs_ind, enc_jmp_rel8
from repro.arch.registers import Reg
from repro.core import vsyscall

#: How far back the cancellable-wrapper walk goes, in bytes.  Matches the
#: offline patcher's trampoline search window.
CANCELLABLE_MAX_BACK = 64

_JMP_BACK = enc_jmp_rel8(-9)


@dataclass(frozen=True)
class DiscoveredSite:
    """One statically discovered ``syscall`` site."""

    syscall_addr: int
    pattern: SitePattern
    #: Statically known syscall number (None for GO_STACK/BARE).
    nr: int | None
    #: Go-pattern stack displacement the number is loaded from.
    disp: int | None
    #: Start of the setup instruction / wrapper region (None for BARE).
    region_start: int | None
    #: True when ABOM's byte matcher would patch this site online.
    abom_patchable: bool
    #: Patch window ``(start, length)`` ABOM would rewrite, if patchable.
    window: tuple[int, int] | None
    #: Final bytes ABOM would leave in the window, if patchable.
    predicted_bytes: bytes | None


def discover_sites(cfg: CFG, code: bytes, base: int) -> list[DiscoveredSite]:
    """Find and classify every reachable ``syscall`` in ``cfg``."""
    return [
        _classify(cfg, code, base, addr) for addr in cfg.syscall_addrs()
    ]


def discover_binary_sites(binary: Binary) -> list[DiscoveredSite]:
    cfg = recover_binary_cfg(binary)
    return discover_sites(cfg, binary.code, binary.base)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def _classify(
    cfg: CFG, code: bytes, base: int, syscall_addr: int
) -> DiscoveredSite:
    # Byte-level matching first, in ABOM's own precedence order
    # (9-byte, then mov-eax, then Go); the windows are mutually
    # exclusive, but the order is kept identical on principle.
    byte_match: DiscoveredSite | None = None
    window9 = _window(code, base, syscall_addr, 7)
    window7 = _window(code, base, syscall_addr, 5)
    if window9 is not None and window9[:3] == b"\x48\xc7\xc0":
        nr = int.from_bytes(window9[3:7], "little")
        patchable = nr < vsyscall.NUM_SYSCALLS
        byte_match = DiscoveredSite(
            syscall_addr,
            SitePattern.MOV_RAX_IMM,
            nr,
            None,
            syscall_addr - 7,
            patchable,
            (syscall_addr - 7, 9) if patchable else None,
            _predict_9byte(nr) if patchable else None,
        )
    elif window7 is not None and window7[0] == 0xB8:
        nr = int.from_bytes(window7[1:5], "little")
        patchable = nr < vsyscall.NUM_SYSCALLS
        byte_match = DiscoveredSite(
            syscall_addr,
            SitePattern.MOV_EAX_IMM,
            nr,
            None,
            syscall_addr - 5,
            patchable,
            (syscall_addr - 5, 7) if patchable else None,
            enc_call_abs_ind(vsyscall.slot_addr(nr)) if patchable else None,
        )
    elif window7 is not None and window7[:4] == b"\x48\x8b\x44\x24":
        disp = window7[4]
        patchable = disp in vsyscall.DYNAMIC_DISPS
        byte_match = DiscoveredSite(
            syscall_addr,
            SitePattern.GO_STACK,
            None,
            disp,
            syscall_addr - 5,
            patchable,
            (syscall_addr - 5, 7) if patchable else None,
            enc_call_abs_ind(vsyscall.dynamic_slot_addr(disp))
            if patchable
            else None,
        )
    if byte_match is not None and byte_match.abom_patchable:
        return byte_match
    # No patchable byte shape: walk the CFG backwards for a cancellable
    # wrapper.  This also reclassifies coincidental byte matches — a
    # wrapper whose immediate bytes happen to start with 0xb8 looks like
    # an (out-of-range, unpatchable) mov-eax shape to ABOM, but the CFG
    # sees the real mov at the head of the wrapper.
    found = _walk_back_for_mov(cfg, syscall_addr)
    if found is not None:
        mov_addr, nr = found
        return DiscoveredSite(
            syscall_addr,
            SitePattern.CANCELLABLE,
            nr,
            None,
            mov_addr,
            False,
            None,
            None,
        )
    if byte_match is not None:
        return byte_match
    return DiscoveredSite(
        syscall_addr, SitePattern.BARE, None, None, None, False, None, None
    )


def _window(
    code: bytes, base: int, syscall_addr: int, back: int
) -> bytes | None:
    """The ``back`` bytes before the syscall, if they are inside text."""
    start = syscall_addr - back - base
    if start < 0:
        return None
    return code[start : start + back]


def _predict_9byte(nr: int) -> bytes:
    """Final (phase-2) bytes of the two-phase 9-byte rewrite."""
    return enc_call_abs_ind(vsyscall.slot_addr(nr)) + _JMP_BACK


def _writes_rax(instr: Instruction) -> bool:
    """Conservatively: does this instruction clobber %rax?"""
    name = instr.mnemonic
    if name in ("syscall", "call_rel32", "call_abs_ind"):
        return True  # return values / callee-clobbered
    if name in (
        "mov_r32_imm32", "mov_r64_imm32", "mov_r64_r64", "mov_r32_r32",
        "mov_r32_rsp_disp8", "mov_r64_rsp_disp8", "pop_r64",
        "add_r64_imm8", "sub_r64_imm8", "inc_r64", "dec_r64",
        "xor_r32_r32", "xor_r64_r64",
    ):
        return instr.operands[0] == Reg.RAX
    return False


def _walk_back_for_mov(
    cfg: CFG, syscall_addr: int
) -> tuple[int, int] | None:
    """Find the ``mov $nr,%eax``/``%rax`` heading a cancellable wrapper.

    Walks straight-line predecessors from the ``syscall``.  The walk
    stops — classifying the site as BARE — when it leaves the window,
    crosses a control transfer, or passes an instruction that writes
    %rax.  It deliberately walks *through* interior jump targets: the
    wrapper region is still syntactically there, and the safety verifier
    separately flags the interior target as a WARNING: patching the
    region would break the merging path.
    """
    cursor = syscall_addr
    while syscall_addr - cursor <= CANCELLABLE_MAX_BACK:
        prev = cfg.instruction_before(cursor)
        if prev is None:
            return None
        prev_addr, instr = prev
        if instr.mnemonic in ("mov_r32_imm32", "mov_r64_imm32") and (
            instr.operands[0] == Reg.RAX
        ):
            if cursor == syscall_addr:
                return None  # adjacent mov: a Figure-2 shape, not ours
            nr = instr.operands[1] & 0xFFFFFFFF
            return prev_addr, nr
        if _writes_rax(instr):
            return None
        cursor = prev_addr
    return None
