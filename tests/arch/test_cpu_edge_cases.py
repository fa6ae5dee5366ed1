"""CPU interpreter edge cases: page boundaries, stack faults, halting."""

import pytest

from repro.arch import Assembler, CPU, PagedMemory, Reg, Trap, TrapKind
from repro.arch.encoding import enc_jmp_rel8, enc_push_r64
from repro.arch.memory import PAGE_SIZE, PageFlags


class TestFetchAcrossPages:
    def test_instruction_straddling_page_boundary(self):
        """A 7-byte mov beginning 3 bytes before a page boundary must
        fetch and execute correctly."""
        mem = PagedMemory()
        base = 0x400000
        asm = Assembler(base=base)
        asm.nop(PAGE_SIZE - 3)
        asm.mov_imm64_low(Reg.RAX, 77)  # 7 bytes, straddles the boundary
        asm.hlt()
        binary = asm.build()
        binary.load(mem)
        mem.map_region(0x7F0000, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
        cpu = CPU(mem)
        cpu.regs.rip = base + PAGE_SIZE - 3
        cpu.regs.rsp = 0x7F0F00
        cpu.run()
        assert cpu.regs.rax == 77

    def test_fetch_window_stops_at_unmapped_page(self):
        """Code ending flush against unmapped memory must still decode
        the final instruction."""
        mem = PagedMemory()
        base = 0x400000
        mem.map_region(base, PAGE_SIZE, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.wp_enabled = False
        mem.write(base + PAGE_SIZE - 1, b"\xf4")  # hlt as the last byte
        mem.wp_enabled = True
        cpu = CPU(mem)
        cpu.regs.rip = base + PAGE_SIZE - 1
        cpu.run()
        assert cpu.halted


class TestFetchPermissions:
    """Instruction fetch honours PageFlags.EXECUTABLE (NX)."""

    @pytest.mark.parametrize("icache", [True, False])
    def test_fetch_from_non_executable_page_faults(self, icache):
        mem = PagedMemory()
        base = 0x400000
        mem.map_region(base, PAGE_SIZE, PageFlags.USER | PageFlags.WRITABLE)
        mem.write(base, b"\xf4")  # hlt bytes, but the page is data-only
        cpu = CPU(mem, icache=icache)
        cpu.regs.rip = base
        with pytest.raises(Trap) as excinfo:
            cpu.step()
        assert excinfo.value.kind is TrapKind.PAGE_FAULT
        assert "non-executable" in excinfo.value.detail

    def test_data_reads_from_non_executable_page_still_work(self):
        mem = PagedMemory()
        mem.map_region(0x9000, PAGE_SIZE, PageFlags.USER | PageFlags.WRITABLE)
        mem.write_u64(0x9000, 0x1234)
        assert mem.read_u64(0x9000) == 0x1234

    def test_revoking_executable_stops_cached_code(self):
        """Dropping EXECUTABLE from already-executed (cached) text must
        fault the next fetch, not serve stale decodes."""
        mem = PagedMemory()
        base = 0x400000
        asm = Assembler(base=base)
        asm.nop()
        asm.raw(enc_jmp_rel8(-3))  # back to the nop
        asm.build().load(mem)
        cpu = CPU(mem)
        cpu.regs.rip = base
        for _ in range(8):
            cpu.step()  # the loop body is now cached
        mem.set_page_flags(base, PageFlags.USER | PageFlags.WRITABLE)
        with pytest.raises(Trap) as excinfo:
            for _ in range(4):
                cpu.step()
        assert excinfo.value.kind is TrapKind.PAGE_FAULT

    def test_fetch_window_truncates_at_non_executable_neighbour(self):
        """Code flush against a data page decodes its final instruction,
        exactly like code flush against unmapped memory."""
        mem = PagedMemory()
        base = 0x400000
        mem.map_region(base, PAGE_SIZE, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.map_region(
            base + PAGE_SIZE, PAGE_SIZE, PageFlags.USER | PageFlags.WRITABLE
        )
        mem.wp_enabled = False
        mem.write(base + PAGE_SIZE - 1, b"\xf4")  # hlt as the last byte
        mem.wp_enabled = True
        cpu = CPU(mem)
        cpu.regs.rip = base + PAGE_SIZE - 1
        cpu.run()
        assert cpu.halted


class TestStackFaults:
    def test_push_into_unmapped_stack_faults(self):
        from repro.arch.memory import PageFault

        mem = PagedMemory()
        asm = Assembler()
        asm.raw(enc_push_r64(Reg.RAX))
        asm.hlt()
        asm.build().load(mem)
        cpu = CPU(mem)
        cpu.regs.rip = 0x400000
        cpu.regs.rsp = 0xDEAD0000  # nowhere
        with pytest.raises(PageFault):
            cpu.step()
