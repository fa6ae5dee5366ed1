import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import encoding as enc
from repro.arch.encoding import InvalidOpcode, decode
from repro.arch.registers import Reg

LOW_REGS = st.sampled_from([Reg(i) for i in range(8)])


class TestFigure2Encodings:
    """The exact byte sequences shown in Figure 2 of the paper."""

    def test_mov_eax_0_syscall(self):
        # __read: b8 00 00 00 00 ; 0f 05
        code = enc.enc_mov_r32_imm32(Reg.RAX, 0) + enc.enc_syscall()
        assert code == bytes.fromhex("b800000000") + bytes.fromhex("0f05")

    def test_patched_read_call(self):
        # callq *0xffffffffff600008 -> ff 14 25 08 00 60 ff
        code = enc.enc_call_abs_ind(0xFFFFFFFFFF600008)
        assert code == bytes.fromhex("ff142508006000" + "")[:7] or True
        assert code == bytes([0xFF, 0x14, 0x25, 0x08, 0x00, 0x60, 0xFF])

    def test_mov_rax_15_syscall(self):
        # __restore_rt: 48 c7 c0 0f 00 00 00 ; 0f 05
        code = enc.enc_mov_r64_imm32(Reg.RAX, 0xF)
        assert code == bytes([0x48, 0xC7, 0xC0, 0x0F, 0x00, 0x00, 0x00])

    def test_patched_restore_rt_call(self):
        # callq *0xffffffffff600080 -> ff 14 25 80 00 60 ff
        code = enc.enc_call_abs_ind(0xFFFFFFFFFF600080)
        assert code == bytes([0xFF, 0x14, 0x25, 0x80, 0x00, 0x60, 0xFF])

    def test_phase2_jmp_back(self):
        # jmp 0x10330 from 0x10337 -> eb f7
        assert enc.enc_jmp_rel8(-9) == bytes([0xEB, 0xF7])

    def test_go_pattern_load(self):
        # mov 0x8(%rsp),%rax -> 48 8b 44 24 08
        code = enc.enc_mov_r64_rsp_disp8(Reg.RAX, 8)
        assert code == bytes([0x48, 0x8B, 0x44, 0x24, 0x08])

    def test_patched_go_call(self):
        # callq *0xffffffffff600c08 -> ff 14 25 08 0c 60 ff
        code = enc.enc_call_abs_ind(0xFFFFFFFFFF600C08)
        assert code == bytes([0xFF, 0x14, 0x25, 0x08, 0x0C, 0x60, 0xFF])


class TestDecodeRoundtrip:
    @given(LOW_REGS, st.integers(0, 2**32 - 1))
    def test_mov_r32_imm32(self, reg, imm):
        instr = decode(enc.enc_mov_r32_imm32(reg, imm))
        assert instr.mnemonic == "mov_r32_imm32"
        assert instr.operands == (reg, imm)
        assert instr.length == 5

    @given(LOW_REGS, st.integers(-(2**31), 2**31 - 1))
    def test_mov_r64_imm32(self, reg, imm):
        instr = decode(enc.enc_mov_r64_imm32(reg, imm))
        assert instr.mnemonic == "mov_r64_imm32"
        assert instr.operands == (reg, imm)
        assert instr.length == 7

    def test_syscall(self):
        instr = decode(enc.enc_syscall())
        assert instr.mnemonic == "syscall"
        assert instr.length == 2

    @given(st.integers(-(2**31), -1))
    def test_call_abs_ind_kernel_half(self, disp):
        addr = disp % (1 << 64)
        instr = decode(enc.enc_call_abs_ind(addr))
        assert instr.mnemonic == "call_abs_ind"
        assert instr.operands == (addr,)
        assert instr.length == 7

    def test_call_abs_ind_rejects_unencodable(self):
        with pytest.raises(ValueError):
            enc.enc_call_abs_ind(0x1_0000_0000)

    @given(st.integers(-128, 127))
    def test_jmp_rel8(self, rel):
        instr = decode(enc.enc_jmp_rel8(rel))
        assert instr.mnemonic == "jmp_rel8"
        assert instr.operands == (rel,)

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_jmp_rel32(self, rel):
        instr = decode(enc.enc_jmp_rel32(rel))
        assert instr.mnemonic == "jmp_rel32"
        assert instr.operands == (rel,)

    @given(st.sampled_from(["je", "jne"]), st.integers(-128, 127))
    def test_jcc(self, cond, rel):
        instr = decode(enc.enc_jcc_rel8(cond, rel))
        assert instr.mnemonic == f"{cond}_rel8"
        assert instr.operands == (rel,)

    @given(LOW_REGS)
    def test_push_pop(self, reg):
        assert decode(enc.enc_push_r64(reg)).operands == (reg,)
        assert decode(enc.enc_pop_r64(reg)).mnemonic == "pop_r64"

    @given(LOW_REGS, LOW_REGS)
    def test_mov_r64_r64(self, dst, src):
        instr = decode(enc.enc_mov_r64_r64(dst, src))
        assert instr.mnemonic == "mov_r64_r64"
        assert instr.operands == (dst, src)

    @given(LOW_REGS, st.integers(0, 127))
    def test_rsp_loads_stores(self, reg, disp):
        load64 = decode(enc.enc_mov_r64_rsp_disp8(reg, disp))
        assert load64.mnemonic == "mov_r64_rsp_disp8"
        assert load64.operands == (reg, disp)
        store64 = decode(enc.enc_mov_rsp_disp8_r64(disp, reg))
        assert store64.mnemonic == "mov_rsp_disp8_r64"
        assert store64.operands == (disp, reg)

    @given(LOW_REGS, st.integers(-128, 127))
    def test_alu_imm8(self, reg, imm):
        assert decode(enc.enc_add_r64_imm8(reg, imm)).operands == (reg, imm)
        assert decode(enc.enc_sub_r64_imm8(reg, imm)).mnemonic == (
            "sub_r64_imm8"
        )
        assert decode(enc.enc_cmp_r64_imm8(reg, imm)).mnemonic == (
            "cmp_r64_imm8"
        )

    @given(LOW_REGS)
    def test_inc_dec(self, reg):
        assert decode(enc.enc_inc_r64(reg)).mnemonic == "inc_r64"
        assert decode(enc.enc_dec_r64(reg)).mnemonic == "dec_r64"

    @given(LOW_REGS, LOW_REGS)
    def test_xor(self, dst, src):
        instr = decode(enc.enc_xor_r32_r32(dst, src))
        assert instr.mnemonic == "xor_r32_r32"
        assert instr.operands == (dst, src)


class TestInvalidOpcodes:
    def test_0x60_is_invalid_in_long_mode(self):
        """The tail byte of a patched call must #UD (§4.4)."""
        with pytest.raises(InvalidOpcode) as excinfo:
            decode(bytes([0x60, 0xFF]))
        assert excinfo.value.byte == 0x60

    def test_truncated_instruction(self):
        with pytest.raises(InvalidOpcode):
            decode(bytes([0xB8, 0x01]))  # mov imm32 missing bytes

    def test_unknown_prefix(self):
        with pytest.raises(InvalidOpcode):
            decode(bytes([0x0F, 0xAE]))
