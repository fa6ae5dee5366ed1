from repro.arch import Assembler, Reg, disassemble, format_listing
from repro.arch.disasm import disassemble_memory
from repro.arch.encoding import (
    ALL_MNEMONICS,
    decode,
    enc_add_r64_imm8,
    enc_call_abs_ind,
    enc_jmp_rel8,
    enc_mov_r64_r64,
    enc_pop_r64,
    enc_push_r64,
    enc_sub_r64_imm8,
)
from repro.core import CountingServices, XContainer


class TestDisassembler:
    def test_figure2_case1_rendering(self):
        # b8 00 00 00 00 ; 0f 05
        code = b"\xb8\x00\x00\x00\x00\x0f\x05"
        lines = disassemble(code, base=0xEB6A9)
        assert len(lines) == 2
        assert "mov    $0x0,%eax" in lines[0].text
        assert lines[1].text == "syscall"

    def test_patched_call_rendering(self):
        lines = disassemble(enc_call_abs_ind(0xFFFFFFFFFF600008))
        assert lines[0].text == "callq  *0xffffffffff600008"

    def test_jump_targets_absolute(self):
        asm = Assembler(base=0x1000)
        asm.nop()
        asm.raw(enc_jmp_rel8(-3))  # back to the nop
        lines = disassemble(asm.build().code, base=0x1000)
        assert "jmp    0x1000" in lines[1].text

    def test_bad_bytes_rendered_as_byte_directives(self):
        # The tail of a patched call, disassembled from the middle.
        lines = disassemble(b"\x60\xff")
        assert lines[0].text == ".byte 0x60"
        assert lines[1].text == ".byte 0xff"

    def test_resyncs_at_next_decodable_offset(self):
        # Two bytes of embedded data, then a real instruction: the
        # disassembler must emit one .byte line per junk byte and pick
        # decoding back up at the nop.
        lines = disassemble(b"\x60\x61\x90\xf4", base=0x1000)
        assert [line.text for line in lines] == [
            ".byte 0x60", ".byte 0x61", "nop", "hlt",
        ]
        assert [line.addr for line in lines] == [
            0x1000, 0x1001, 0x1002, 0x1003,
        ]

    def test_truncated_instruction_does_not_raise(self):
        # b8 needs 4 more immediate bytes; a truncated buffer must fall
        # back to .byte lines instead of propagating InvalidOpcode.
        lines = disassemble(b"\x90\xb8\x01\x02")
        assert lines[0].text == "nop"
        assert [line.text for line in lines[1:]] == [
            ".byte 0xb8", ".byte 0x01", ".byte 0x02",
        ]

    def test_all_subset_instructions_render(self):
        asm = Assembler()
        asm.mov_imm32(Reg.RAX, 1)
        asm.mov_imm64_low(Reg.RDI, 2)
        asm.raw(enc_mov_r64_r64(Reg.RSI, Reg.RDI))
        asm.load_rsp64(Reg.RAX, 8)
        asm.store_rsp64(8, Reg.RAX)
        asm.raw(enc_push_r64(Reg.RBP))
        asm.raw(enc_pop_r64(Reg.RBP))
        asm.raw(enc_add_r64_imm8(Reg.RAX, 1))
        asm.raw(enc_sub_r64_imm8(Reg.RAX, 1))
        asm.cmp(Reg.RAX, 0)
        asm.inc(Reg.RCX)
        asm.dec(Reg.RCX)
        asm.xor(Reg.RDX, Reg.RDX)
        asm.nop()
        asm.syscall_site(39)
        asm.raw(enc_call_abs_ind(0xFFFFFFFFFF600008))
        asm.raw(enc_jmp_rel8(0))
        asm.jmp("end")
        asm.je("end")
        asm.jne("end")
        asm.label("end")
        asm.hlt()
        lines = disassemble(asm.build().code)
        # Every form of the subset, and none of them a .byte line.
        assert {decode(line.raw).mnemonic for line in lines} == ALL_MNEMONICS
        assert all(not line.text.startswith(".byte") for line in lines)
        listing = format_listing(lines)
        assert "push   %rbp" in listing
        assert "callq  *0xffffffffff600008" in listing

    def test_disassemble_patched_site_from_memory(self):
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 2)
        asm.label("loop")
        site = asm.syscall_site(0, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        binary = asm.build()
        xc = XContainer(CountingServices())
        xc.run(binary)
        lines = disassemble_memory(xc.memory, site.syscall_addr - 5, 7)
        assert lines[0].text == "callq  *0xffffffffff600008"

    def test_line_format(self):
        lines = disassemble(b"\x90", base=0x400000)
        text = str(lines[0])
        assert text.startswith("  400000:")
        assert "nop" in text
