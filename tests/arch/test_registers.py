import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.registers import (
    MASK64,
    Reg,
    RegisterFile,
    sign_extend,
    to_signed64,
)


class TestRegisterFile:
    def test_registers_start_zero(self):
        regs = RegisterFile()
        for reg in Reg:
            assert regs.read64(reg) == 0
        assert regs.rip == 0

    @given(st.sampled_from(list(Reg)), st.integers(0, MASK64))
    def test_write64_masks(self, reg, value):
        regs = RegisterFile()
        regs.write64(reg, value)
        assert regs.read64(reg) == value & MASK64

    def test_write32_zero_extends(self):
        """The architectural rule ABOM's Case 1 depends on."""
        regs = RegisterFile()
        regs.write64(Reg.RAX, MASK64)
        regs.write32(Reg.RAX, 0x27)
        assert regs.read64(Reg.RAX) == 0x27

    def test_read32_truncates(self):
        regs = RegisterFile()
        regs.write64(Reg.RDX, 0x1_2345_6789)
        assert regs.read32(Reg.RDX) == 0x2345_6789

    def test_rax_rsp_properties(self):
        regs = RegisterFile()
        regs.rax = -1
        assert regs.rax == MASK64
        regs.rsp = 0x7000
        assert regs.read64(Reg.RSP) == 0x7000

    def test_snapshot_has_all_registers(self):
        regs = RegisterFile()
        regs.write64(Reg.R15, 99)
        regs.rip = 0x1234
        snap = regs.snapshot()
        assert snap["r15"] == 99
        assert snap["rip"] == 0x1234
        assert len(snap) == 17  # 16 GPRs + rip

    def test_encoding_numbers_match_modrm(self):
        """Register numbers are the hardware encoding values."""
        assert Reg.RAX == 0
        assert Reg.RSP == 4
        assert Reg.RDI == 7
        assert Reg.R15 == 15


class TestConversions:
    @given(st.integers(0, MASK64))
    def test_signed_unsigned_roundtrip(self, value):
        assert to_signed64(value) & MASK64 == value

    def test_signed_interpretation(self):
        assert to_signed64(MASK64) == -1
        assert to_signed64(1 << 63) == -(1 << 63)
        assert to_signed64(5) == 5

    @given(st.integers(-128, 127))
    def test_sign_extend_8(self, value):
        assert sign_extend(value & 0xFF, 8) == value

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_sign_extend_32(self, value):
        assert sign_extend(value & 0xFFFFFFFF, 32) == value
