"""x86-64 integer register file.

Registers are stored as unsigned 64-bit values.  Writing a 32-bit
sub-register zero-extends into the full register, matching the architecture;
this matters because ABOM's recognized patterns use both ``mov $imm,%eax``
(32-bit, zero-extending) and ``mov $imm,%rax`` (64-bit, sign-extended
immediate).
"""

from __future__ import annotations

from enum import IntEnum

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


class Reg(IntEnum):
    """Register numbers as used in ModRM/opcode encodings."""

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15


def to_signed64(value: int) -> int:
    """Interpret an unsigned 64-bit value as signed."""
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend ``value`` from ``bits`` to a Python int."""
    mask = (1 << bits) - 1
    value &= mask
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


class RegisterFile:
    """Sixteen 64-bit general-purpose registers plus RIP and flags."""

    __slots__ = ("_regs", "rip", "zf", "sf", "cf")

    def __init__(self) -> None:
        self._regs = [0] * 16
        self.rip = 0
        self.zf = False
        self.sf = False
        self.cf = False

    def read64(self, reg: Reg | int) -> int:
        return self._regs[int(reg)]

    def write64(self, reg: Reg | int, value: int) -> None:
        self._regs[int(reg)] = value & MASK64

    def read32(self, reg: Reg | int) -> int:
        return self._regs[int(reg)] & MASK32

    def write32(self, reg: Reg | int, value: int) -> None:
        # 32-bit writes zero-extend to 64 bits on x86-64.
        self._regs[int(reg)] = value & MASK32

    @property
    def rax(self) -> int:
        return self._regs[Reg.RAX]

    @rax.setter
    def rax(self, value: int) -> None:
        self._regs[Reg.RAX] = value & MASK64

    @property
    def rsp(self) -> int:
        return self._regs[Reg.RSP]

    @rsp.setter
    def rsp(self, value: int) -> None:
        self._regs[Reg.RSP] = value & MASK64

    def snapshot(self) -> dict[str, int]:
        """Copy of the architectural state, for tests and tracing."""
        state = {reg.name.lower(): self._regs[reg] for reg in Reg}
        state["rip"] = self.rip
        return state

    def __repr__(self) -> str:
        return (
            f"RegisterFile(rip={self.rip:#x}, rax={self.rax:#x}, "
            f"rsp={self.rsp:#x})"
        )
