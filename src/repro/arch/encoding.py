"""Encoder/decoder for the x86-64 instruction subset.

The subset is chosen to cover (a) every byte pattern ABOM recognizes and
emits (Figure 2 of the paper) and (b) enough ALU/branch/stack instructions to
write the synthetic workload programs the experiments execute.  Encodings are
the real x86-64 ones — the decoder works on actual machine-code bytes, which
is what makes the ABOM reproduction meaningful.

Supported forms::

    b8+r imm32              mov    $imm32, %e<reg>      (zero-extends)
    48 c7 c0+r imm32        mov    $imm32, %r<reg>      (sign-extends)
    0f 05                   syscall
    ff 14 25 disp32         callq  *disp32              (absolute indirect)
    eb rel8 / e9 rel32      jmp
    74/75 rel8              je/jne
    50+r / 58+r             push/pop %r<reg>
    48 89 c0|11..           mov    %r, %r   (mod=11)
    48 8b 44 24 disp8       mov    disp8(%rsp), %rax    (Go pattern, Fig 2)
    48 89 44 24 disp8       mov    %rax, disp8(%rsp)
    48 83 /0|/5|/7 ib       add/sub/cmp $imm8, %r<reg>
    48 ff c0+r / c8+r       inc/dec %r<reg>
    31 /r (mod=11)          xor %e<reg>, %e<reg>
    90                      nop
    f4                      hlt
    60                      (invalid in 64-bit mode -> #UD; the tail byte of
                             a patched call, §4.4)

Every other byte sequence, ``ret`` and ``int3`` included, decodes to
:class:`InvalidOpcode` (#UD).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.registers import Reg, sign_extend

MASK64 = (1 << 64) - 1

#: Every mnemonic the decoder can produce.  The CPU's handler table is
#: checked against this set so the decoder and executor cannot drift apart.
ALL_MNEMONICS = frozenset(
    {
        "nop",
        "hlt",
        "syscall",
        "push_r64",
        "pop_r64",
        "mov_r32_imm32",
        "mov_r64_imm32",
        "mov_r64_r64",
        "mov_r64_rsp_disp8",
        "mov_rsp_disp8_r64",
        "call_abs_ind",
        "jmp_rel8",
        "jmp_rel32",
        "je_rel8",
        "jne_rel8",
        "add_r64_imm8",
        "sub_r64_imm8",
        "cmp_r64_imm8",
        "inc_r64",
        "dec_r64",
        "xor_r32_r32",
    }
)

#: Mnemonics that end a basic block for the decode cache: anything that
#: transfers control, traps, or halts.  ``syscall`` ends blocks because
#: its trap handler may move RIP arbitrarily — and, in ABOM's case,
#: rewrite the very bytes the block was decoded from.
BLOCK_TERMINATORS = frozenset(
    {
        "hlt",
        "syscall",
        "call_abs_ind",
        "jmp_rel8",
        "jmp_rel32",
        "je_rel8",
        "jne_rel8",
    }
)


class InvalidOpcode(Exception):
    """Raised when the decoder meets bytes outside the subset (#UD)."""

    def __init__(self, addr_or_offset: int, byte: int) -> None:
        super().__init__(
            f"invalid opcode {byte:#04x} at offset {addr_or_offset:#x}"
        )
        self.offset = addr_or_offset
        self.byte = byte


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    mnemonic: str
    length: int
    raw: bytes
    operands: tuple = ()

    def __str__(self) -> str:
        ops = ", ".join(
            hex(op) if isinstance(op, int) else str(op)
            for op in self.operands
        )
        return f"{self.mnemonic} {ops}".strip()


def _u32(data: bytes, offset: int) -> int:
    return int.from_bytes(data[offset : offset + 4], "little")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise InvalidOpcode(offset, data[offset] if offset < len(data) else 0)


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
def decode(data: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction starting at ``data[offset]``."""
    _need(data, offset, 1)
    b0 = data[offset]

    if b0 == 0x90:
        return Instruction("nop", 1, bytes(data[offset : offset + 1]))
    if b0 == 0xF4:
        return Instruction("hlt", 1, bytes(data[offset : offset + 1]))
    if 0x50 <= b0 <= 0x57:
        return Instruction(
            "push_r64", 1, bytes(data[offset : offset + 1]), (Reg(b0 - 0x50),)
        )
    if 0x58 <= b0 <= 0x5F:
        return Instruction(
            "pop_r64", 1, bytes(data[offset : offset + 1]), (Reg(b0 - 0x58),)
        )
    if 0xB8 <= b0 <= 0xBF:
        _need(data, offset, 5)
        imm = _u32(data, offset + 1)
        return Instruction(
            "mov_r32_imm32",
            5,
            bytes(data[offset : offset + 5]),
            (Reg(b0 - 0xB8), imm),
        )
    if b0 == 0x0F:
        _need(data, offset, 2)
        if data[offset + 1] == 0x05:
            return Instruction("syscall", 2, bytes(data[offset : offset + 2]))
        raise InvalidOpcode(offset, data[offset + 1])
    if b0 == 0xEB:
        _need(data, offset, 2)
        rel = sign_extend(data[offset + 1], 8)
        return Instruction(
            "jmp_rel8", 2, bytes(data[offset : offset + 2]), (rel,)
        )
    if b0 == 0xE9:
        _need(data, offset, 5)
        rel = sign_extend(_u32(data, offset + 1), 32)
        return Instruction(
            "jmp_rel32", 5, bytes(data[offset : offset + 5]), (rel,)
        )
    if b0 in (0x74, 0x75):
        _need(data, offset, 2)
        rel = sign_extend(data[offset + 1], 8)
        name = "je_rel8" if b0 == 0x74 else "jne_rel8"
        return Instruction(name, 2, bytes(data[offset : offset + 2]), (rel,))
    if b0 == 0xFF:
        _need(data, offset, 2)
        modrm = data[offset + 1]
        if modrm == 0x14:  # call [SIB]
            _need(data, offset, 3)
            if data[offset + 2] == 0x25:  # SIB: disp32, no base/index
                _need(data, offset, 7)
                addr = sign_extend(_u32(data, offset + 3), 32) & MASK64
                return Instruction(
                    "call_abs_ind",
                    7,
                    bytes(data[offset : offset + 7]),
                    (addr,),
                )
        raise InvalidOpcode(offset, modrm)
    if b0 == 0x31:
        _need(data, offset, 2)
        modrm = data[offset + 1]
        if (modrm & 0xC0) == 0xC0:
            return Instruction(
                "xor_r32_r32",
                2,
                bytes(data[offset : offset + 2]),
                (Reg(modrm & 0x7), Reg((modrm >> 3) & 0x7)),
            )
        raise InvalidOpcode(offset, modrm)
    if b0 == 0x48:  # REX.W
        return _decode_rexw(data, offset)
    raise InvalidOpcode(offset, b0)


def _decode_rexw(data: bytes, offset: int) -> Instruction:
    _need(data, offset, 2)
    b1 = data[offset + 1]
    if b1 == 0xC7:
        _need(data, offset, 3)
        modrm = data[offset + 2]
        if (modrm & 0xF8) == 0xC0:
            _need(data, offset, 7)
            imm = sign_extend(_u32(data, offset + 3), 32)
            return Instruction(
                "mov_r64_imm32",
                7,
                bytes(data[offset : offset + 7]),
                (Reg(modrm & 0x7), imm),
            )
        raise InvalidOpcode(offset, modrm)
    if b1 == 0x89:
        _need(data, offset, 3)
        modrm = data[offset + 2]
        if (modrm & 0xC0) == 0xC0:
            return Instruction(
                "mov_r64_r64",
                3,
                bytes(data[offset : offset + 3]),
                (Reg(modrm & 0x7), Reg((modrm >> 3) & 0x7)),
            )
        if (modrm & 0xC7) == 0x44:
            _need(data, offset, 5)
            if data[offset + 3] == 0x24:
                disp = sign_extend(data[offset + 4], 8)
                reg = Reg((modrm >> 3) & 0x7)
                return Instruction(
                    "mov_rsp_disp8_r64",
                    5,
                    bytes(data[offset : offset + 5]),
                    (disp, reg),
                )
        raise InvalidOpcode(offset, modrm)
    if b1 == 0x8B:
        _need(data, offset, 3)
        modrm = data[offset + 2]
        if (modrm & 0xC7) == 0x44:
            _need(data, offset, 5)
            if data[offset + 3] == 0x24:
                disp = sign_extend(data[offset + 4], 8)
                reg = Reg((modrm >> 3) & 0x7)
                return Instruction(
                    "mov_r64_rsp_disp8",
                    5,
                    bytes(data[offset : offset + 5]),
                    (reg, disp),
                )
        raise InvalidOpcode(offset, modrm)
    if b1 == 0x83:
        _need(data, offset, 4)
        modrm = data[offset + 2]
        imm = sign_extend(data[offset + 3], 8)
        reg = Reg(modrm & 0x7)
        group = (modrm >> 3) & 0x7
        raw = bytes(data[offset : offset + 4])
        if (modrm & 0xC0) == 0xC0:
            if group == 0:
                return Instruction("add_r64_imm8", 4, raw, (reg, imm))
            if group == 5:
                return Instruction("sub_r64_imm8", 4, raw, (reg, imm))
            if group == 7:
                return Instruction("cmp_r64_imm8", 4, raw, (reg, imm))
        raise InvalidOpcode(offset, modrm)
    if b1 == 0xFF:
        _need(data, offset, 3)
        modrm = data[offset + 2]
        reg = Reg(modrm & 0x7)
        raw = bytes(data[offset : offset + 3])
        if (modrm & 0xF8) == 0xC0:
            return Instruction("inc_r64", 3, raw, (reg,))
        if (modrm & 0xF8) == 0xC8:
            return Instruction("dec_r64", 3, raw, (reg,))
        raise InvalidOpcode(offset, modrm)
    raise InvalidOpcode(offset, b1)


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
def enc_mov_r32_imm32(reg: Reg, imm: int) -> bytes:
    return bytes([0xB8 + int(reg)]) + (imm & 0xFFFFFFFF).to_bytes(4, "little")


def enc_mov_r64_imm32(reg: Reg, imm: int) -> bytes:
    return bytes([0x48, 0xC7, 0xC0 + int(reg)]) + (
        imm & 0xFFFFFFFF
    ).to_bytes(4, "little")


def enc_syscall() -> bytes:
    return b"\x0f\x05"


def enc_call_abs_ind(addr: int) -> bytes:
    """``callq *addr`` — the 7-byte form ABOM emits (§4.4).

    ``addr`` must be representable as a sign-extended 32-bit displacement;
    the vsyscall page at ``0xffffffffff600000`` is placed there precisely so
    that it is (Fig 2 shows ``ff 14 25 08 00 60 ff``).
    """
    disp = addr & 0xFFFFFFFF
    if sign_extend(disp, 32) & MASK64 != addr & MASK64:
        raise ValueError(f"address {addr:#x} not encodable as disp32")
    return b"\xff\x14\x25" + disp.to_bytes(4, "little")


def enc_jmp_rel8(rel: int) -> bytes:
    if not -128 <= rel <= 127:
        raise ValueError(f"rel8 out of range: {rel}")
    return b"\xeb" + (rel & 0xFF).to_bytes(1, "little")


def enc_jmp_rel32(rel: int) -> bytes:
    return b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little")


def enc_jcc_rel8(cond: str, rel: int) -> bytes:
    opcode = {"je": 0x74, "jne": 0x75}[cond]
    if not -128 <= rel <= 127:
        raise ValueError(f"rel8 out of range: {rel}")
    return bytes([opcode, rel & 0xFF])


def enc_push_r64(reg: Reg) -> bytes:
    return bytes([0x50 + int(reg)])


def enc_pop_r64(reg: Reg) -> bytes:
    return bytes([0x58 + int(reg)])


def enc_mov_r64_r64(dst: Reg, src: Reg) -> bytes:
    return bytes([0x48, 0x89, 0xC0 | (int(src) << 3) | int(dst)])


def enc_mov_r64_rsp_disp8(reg: Reg, disp: int) -> bytes:
    return bytes([0x48, 0x8B, 0x44 | (int(reg) << 3), 0x24, disp & 0xFF])


def enc_mov_rsp_disp8_r64(disp: int, reg: Reg) -> bytes:
    return bytes([0x48, 0x89, 0x44 | (int(reg) << 3), 0x24, disp & 0xFF])


def enc_add_r64_imm8(reg: Reg, imm: int) -> bytes:
    return bytes([0x48, 0x83, 0xC0 | int(reg), imm & 0xFF])


def enc_sub_r64_imm8(reg: Reg, imm: int) -> bytes:
    return bytes([0x48, 0x83, 0xE8 | int(reg), imm & 0xFF])


def enc_cmp_r64_imm8(reg: Reg, imm: int) -> bytes:
    return bytes([0x48, 0x83, 0xF8 | int(reg), imm & 0xFF])


def enc_inc_r64(reg: Reg) -> bytes:
    return bytes([0x48, 0xFF, 0xC0 | int(reg)])


def enc_dec_r64(reg: Reg) -> bytes:
    return bytes([0x48, 0xFF, 0xC8 | int(reg)])


def enc_xor_r32_r32(dst: Reg, src: Reg) -> bytes:
    return bytes([0x31, 0xC0 | (int(src) << 3) | int(dst)])


def enc_nop() -> bytes:
    return b"\x90"


def enc_hlt() -> bytes:
    return b"\xf4"
