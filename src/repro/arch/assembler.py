"""Two-pass mini assembler.

Builds :class:`~repro.arch.binary.Binary` images from a method-per-mnemonic
API with labels and syscall-site helpers.  The helpers emit exactly the byte
shapes the paper's Figure 2 shows, and record :class:`SyscallSite` metadata
so experiments can account per-pattern.

Example::

    asm = Assembler(base=0x400000)
    asm.label("loop")
    asm.syscall_site(39, style="mov_eax", symbol="getpid")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build(name="getpid_loop")
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import encoding as enc
from repro.arch.binary import Binary, SitePattern, SyscallSite
from repro.arch.registers import Reg


@dataclass
class _Fixup:
    offset: int  # offset of the instruction start in the code stream
    length: int  # instruction length
    label: str
    kind: str  # "rel8" | "rel32"


class Assembler:
    """Accumulates encoded instructions, then resolves label fixups."""

    def __init__(self, base: int = 0x400000) -> None:
        self.base = base
        self._code = bytearray()
        self._labels: dict[str, int] = {}
        self._fixups: list[_Fixup] = []
        self._sites: list[SyscallSite] = []
        self._entry_offset = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def here(self) -> int:
        """Current emission address."""
        return self.base + len(self._code)

    def label(self, name: str) -> int:
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self.here

    def entry(self) -> None:
        """Mark the current position as the program entry point."""
        self._entry_offset = len(self._code)

    def raw(self, data: bytes) -> None:
        self._code += data

    def _emit(self, data: bytes) -> int:
        offset = len(self._code)
        self._code += data
        return offset

    # ------------------------------------------------------------------
    # Plain instructions
    # ------------------------------------------------------------------
    def mov_imm32(self, reg: Reg, imm: int) -> None:
        self._emit(enc.enc_mov_r32_imm32(reg, imm))

    def mov_imm64_low(self, reg: Reg, imm: int) -> None:
        self._emit(enc.enc_mov_r64_imm32(reg, imm))

    def load_rsp64(self, reg: Reg, disp: int) -> None:
        self._emit(enc.enc_mov_r64_rsp_disp8(reg, disp))

    def store_rsp64(self, disp: int, reg: Reg) -> None:
        self._emit(enc.enc_mov_rsp_disp8_r64(disp, reg))

    def cmp(self, reg: Reg, imm: int) -> None:
        self._emit(enc.enc_cmp_r64_imm8(reg, imm))

    def inc(self, reg: Reg) -> None:
        self._emit(enc.enc_inc_r64(reg))

    def dec(self, reg: Reg) -> None:
        self._emit(enc.enc_dec_r64(reg))

    def xor(self, dst: Reg, src: Reg) -> None:
        self._emit(enc.enc_xor_r32_r32(dst, src))

    def nop(self, count: int = 1) -> None:
        self._emit(enc.enc_nop() * count)

    def hlt(self) -> None:
        self._emit(enc.enc_hlt())

    def raw_syscall(self) -> int:
        """Emit a bare ``syscall`` and return its address."""
        offset = self._emit(enc.enc_syscall())
        return self.base + offset

    # ------------------------------------------------------------------
    # Control flow with labels
    # ------------------------------------------------------------------
    def jmp(self, label: str) -> None:
        offset = self._emit(enc.enc_jmp_rel32(0))
        self._fixups.append(_Fixup(offset, 5, label, "rel32"))

    def je(self, label: str) -> None:
        self._jcc("je", label)

    def jne(self, label: str) -> None:
        self._jcc("jne", label)

    def _jcc(self, cond: str, label: str) -> None:
        offset = self._emit(enc.enc_jcc_rel8(cond, 0))
        self._fixups.append(_Fixup(offset, 2, label, "rel8"))

    # ------------------------------------------------------------------
    # Syscall-site helpers (the Figure 2 shapes)
    # ------------------------------------------------------------------
    def syscall_site(
        self,
        nr: int,
        style: str = "mov_eax",
        symbol: str = "",
        cancel_gap: int = 2,
    ) -> SyscallSite:
        """Emit a syscall site shaped like ``style`` and record it.

        Styles:

        * ``mov_eax`` — glibc wrapper shape (Fig 2 Case 1, 7-byte patch);
        * ``mov_rax`` — 9-byte shape (Fig 2 two-phase patch);
        * ``go_stack`` — Go runtime shape (Fig 2 Case 2); the caller must
          have stored the syscall number at ``8(%rsp)``;
        * ``cancellable`` — libpthread cancellable wrapper: a cancellation
          check sits between the mov and the syscall, defeating ABOM;
        * ``bare`` — a lone ``syscall``; %rax set elsewhere.
        """
        if style == "mov_eax":
            self.mov_imm32(Reg.RAX, nr)
            addr = self.raw_syscall()
            pattern = SitePattern.MOV_EAX_IMM
        elif style == "mov_rax":
            self.mov_imm64_low(Reg.RAX, nr)
            addr = self.raw_syscall()
            pattern = SitePattern.MOV_RAX_IMM
        elif style == "go_stack":
            # Fig 2 shows the 5-byte ``48 8b 44 24 08`` encoding.
            self.load_rsp64(Reg.RAX, 8)
            addr = self.raw_syscall()
            pattern = SitePattern.GO_STACK
        elif style == "cancellable":
            self.mov_imm32(Reg.RAX, nr)
            # The cancellation-flag test of the libpthread wrapper; any
            # intervening instruction breaks ABOM's pattern match (§5.2).
            # ``cancel_gap`` controls how big the check sequence is.
            if cancel_gap < 1:
                raise ValueError(
                    f"cancel_gap must be >= 1: {cancel_gap}"
                )
            self.nop(cancel_gap)
            addr = self.raw_syscall()
            pattern = SitePattern.CANCELLABLE
        elif style == "bare":
            addr = self.raw_syscall()
            pattern = SitePattern.BARE
        else:
            raise ValueError(f"unknown syscall site style {style!r}")
        recorded_nr = None if style in ("go_stack", "bare") else nr
        site = SyscallSite(addr, pattern, recorded_nr, symbol)
        self._sites.append(site)
        return site

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self, name: str = "a.out") -> Binary:
        code = bytearray(self._code)
        for fixup in self._fixups:
            if fixup.label not in self._labels:
                raise ValueError(f"undefined label {fixup.label!r}")
            target = self._labels[fixup.label]
            rel = target - (fixup.offset + fixup.length)
            if fixup.kind == "rel8":
                if not -128 <= rel <= 127:
                    raise ValueError(
                        f"label {fixup.label!r} out of rel8 range ({rel})"
                    )
                code[fixup.offset + fixup.length - 1] = rel & 0xFF
            else:
                code[fixup.offset + 1 : fixup.offset + 5] = (
                    rel & 0xFFFFFFFF
                ).to_bytes(4, "little")
        symbols = {
            label: self.base + offset for label, offset in self._labels.items()
        }
        return Binary(
            code=bytes(code),
            base=self.base,
            entry=self.base + self._entry_offset,
            sites=list(self._sites),
            symbols=symbols,
            name=name,
        )
