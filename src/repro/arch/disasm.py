"""Linear disassembler over the instruction subset.

Formats machine code the way the paper's Figure 2 presents it
(``address: bytes  mnemonic operands``), with AT&T-flavoured operand
rendering for the forms the patterns use.  Used by the inspector example
and handy when debugging ABOM patches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.encoding import Instruction, InvalidOpcode, decode
from repro.arch.memory import PagedMemory
from repro.arch.registers import Reg

_REG64 = {r: f"%r{r.name[1:].lower()}" if r.name.startswith("R") and
          r.name[1:].isdigit() else f"%{r.name.lower()}" for r in Reg}
_REG32 = {
    Reg.RAX: "%eax", Reg.RCX: "%ecx", Reg.RDX: "%edx", Reg.RBX: "%ebx",
    Reg.RSP: "%esp", Reg.RBP: "%ebp", Reg.RSI: "%esi", Reg.RDI: "%edi",
}


@dataclass
class DisasmLine:
    addr: int
    raw: bytes
    text: str

    def __str__(self) -> str:
        return f"{self.addr:8x}:\t{self.raw.hex(' '):24s}\t{self.text}"


def _render(instr: Instruction, addr: int) -> str:
    name = instr.mnemonic
    ops = instr.operands
    if name == "mov_r32_imm32":
        return f"mov    ${ops[1]:#x},{_REG32.get(ops[0], '%e?')}"
    if name == "mov_r64_imm32":
        return f"mov    ${ops[1]:#x},{_REG64[ops[0]]}"
    if name == "syscall":
        return "syscall"
    if name == "call_abs_ind":
        return f"callq  *{ops[0]:#x}"
    if name in ("jmp_rel8", "jmp_rel32"):
        return f"jmp    {addr + instr.length + ops[0]:#x}"
    if name in ("je_rel8", "jne_rel8"):
        cond = name.split("_")[0]
        return f"{cond:6s} {addr + instr.length + ops[0]:#x}"
    if name == "nop":
        return "nop"
    if name == "hlt":
        return "hlt"
    if name == "push_r64":
        return f"push   {_REG64[ops[0]]}"
    if name == "pop_r64":
        return f"pop    {_REG64[ops[0]]}"
    if name == "mov_r64_r64":
        return f"mov    {_REG64[ops[1]]},{_REG64[ops[0]]}"
    if name == "mov_r64_rsp_disp8":
        return f"mov    {ops[1]:#x}(%rsp),{_REG64[ops[0]]}"
    if name == "mov_rsp_disp8_r64":
        return f"mov    {_REG64[ops[1]]},{ops[0]:#x}(%rsp)"
    if name == "add_r64_imm8":
        return f"add    ${ops[1]:#x},{_REG64[ops[0]]}"
    if name == "sub_r64_imm8":
        return f"sub    ${ops[1]:#x},{_REG64[ops[0]]}"
    if name == "cmp_r64_imm8":
        return f"cmp    ${ops[1]:#x},{_REG64[ops[0]]}"
    if name == "inc_r64":
        return f"inc    {_REG64[ops[0]]}"
    if name == "dec_r64":
        return f"dec    {_REG64[ops[0]]}"
    if name == "xor_r32_r32":
        return f"xor    {_REG32.get(ops[1], '?')},{_REG32.get(ops[0], '?')}"
    return str(instr)


def disassemble(data: bytes, base: int = 0) -> list[DisasmLine]:
    """Disassemble ``data`` linearly; undecodable bytes become one-byte
    ``.byte 0x..`` lines, resyncing at the next decodable offset (e.g. the
    ``0x60`` tail of a patched call, or data embedded in text)."""
    lines = []
    cursor = 0
    while cursor < len(data):
        addr = base + cursor
        try:
            instr = decode(data, cursor)
        except InvalidOpcode:
            lines.append(
                DisasmLine(
                    addr,
                    data[cursor : cursor + 1],
                    f".byte {data[cursor]:#04x}",
                )
            )
            cursor += 1
            continue
        lines.append(
            DisasmLine(addr, data[cursor : cursor + instr.length],
                       _render(instr, addr))
        )
        cursor += instr.length
    return lines


def disassemble_memory(
    memory: PagedMemory, addr: int, size: int
) -> list[DisasmLine]:
    return disassemble(memory.read(addr, size), base=addr)


def format_listing(lines: list[DisasmLine]) -> str:
    return "\n".join(str(line) for line in lines)
