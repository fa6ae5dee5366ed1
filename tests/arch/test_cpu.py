import pytest

from repro.arch import Assembler, CPU, CpuHalted, PagedMemory, Reg, Trap, TrapKind
from repro.arch.encoding import (
    enc_add_r64_imm8,
    enc_jmp_rel8,
    enc_pop_r64,
    enc_push_r64,
    enc_sub_r64_imm8,
)
from repro.arch.memory import PageFlags
from repro.perf.clock import SimClock

STACK_BASE = 0x7F0000


def make_cpu(binary, clock=None, instruction_ns=0.0):
    mem = PagedMemory()
    binary.load(mem)
    mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem, clock, instruction_ns)
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + 0x10000 - 256
    return cpu


def run_program(build, **kwargs):
    asm = Assembler()
    build(asm)
    cpu = make_cpu(asm.build(), **kwargs)
    cpu.run()
    return cpu


class TestArithmeticAndFlags:
    def test_mov_imm_and_add(self):
        def prog(a):
            a.mov_imm32(Reg.RAX, 40)
            a.raw(enc_add_r64_imm8(Reg.RAX, 2))
            a.hlt()

        assert run_program(prog).regs.rax == 42

    def test_mov32_zero_extends(self):
        def prog(a):
            a.mov_imm64_low(Reg.RAX, -1)  # rax = 0xffffffffffffffff
            a.mov_imm32(Reg.RAX, 1)  # writes eax, zero-extends
            a.hlt()

        assert run_program(prog).regs.rax == 1

    def test_mov64_sign_extends(self):
        def prog(a):
            a.mov_imm64_low(Reg.RAX, -1)
            a.hlt()

        assert run_program(prog).regs.rax == (1 << 64) - 1

    def test_sub_and_zero_flag(self):
        def prog(a):
            a.mov_imm32(Reg.RAX, 2)
            a.raw(enc_sub_r64_imm8(Reg.RAX, 2))
            a.hlt()

        cpu = run_program(prog)
        assert cpu.regs.rax == 0
        assert cpu.regs.zf

    def test_dec_loop_terminates(self):
        def prog(a):
            a.mov_imm32(Reg.RBX, 10)
            a.xor(Reg.RAX, Reg.RAX)
            a.label("loop")
            a.inc(Reg.RAX)
            a.dec(Reg.RBX)
            a.jne("loop")
            a.hlt()

        assert run_program(prog).regs.rax == 10

    def test_cmp_je(self):
        def prog(a):
            a.mov_imm32(Reg.RAX, 5)
            a.cmp(Reg.RAX, 5)
            a.je("equal")
            a.mov_imm32(Reg.RCX, 1)
            a.hlt()
            a.label("equal")
            a.mov_imm32(Reg.RCX, 2)
            a.hlt()

        assert run_program(prog).regs.read64(Reg.RCX) == 2

    def test_xor_clears(self):
        def prog(a):
            a.mov_imm32(Reg.RDX, 123)
            a.xor(Reg.RDX, Reg.RDX)
            a.hlt()

        cpu = run_program(prog)
        assert cpu.regs.read64(Reg.RDX) == 0
        assert cpu.regs.zf


class TestStackAndCalls:
    def test_push_pop(self):
        def prog(a):
            a.mov_imm32(Reg.RAX, 7)
            a.raw(enc_push_r64(Reg.RAX))
            a.raw(enc_pop_r64(Reg.RBX))
            a.hlt()

        assert run_program(prog).regs.read64(Reg.RBX) == 7

    def test_rsp_relative_load_store(self):
        def prog(a):
            a.mov_imm32(Reg.RAX, 77)
            a.store_rsp64(8, Reg.RAX)
            a.xor(Reg.RAX, Reg.RAX)
            a.load_rsp64(Reg.RCX, 8)
            a.hlt()

        assert run_program(prog).regs.read64(Reg.RCX) == 77

    def test_call_abs_indirect_through_memory(self):
        asm = Assembler()
        asm.raw(b"\xff\x14\x25" + (0x1000).to_bytes(4, "little"))
        asm.hlt()
        asm.label("target")
        asm.mov_imm32(Reg.RAX, 55)
        asm.hlt()
        binary = asm.build()
        cpu = make_cpu(binary)
        rsp = cpu.regs.rsp
        cpu.mem.map_region(0x1000, 4096, PageFlags.USER | PageFlags.WRITABLE)
        cpu.mem.write_u64(0x1000, binary.symbols["target"])
        cpu.run()
        assert cpu.regs.rax == 55
        # The call pushed the address of the instruction after it.
        assert cpu.regs.rsp == rsp - 8
        assert cpu.mem.read_u64(cpu.regs.rsp) == binary.entry + 7


class TestTraps:
    def test_syscall_without_handler_raises(self):
        def prog(a):
            a.syscall_site(39)
            a.hlt()

        asm = Assembler()
        prog(asm)
        binary = asm.build()
        cpu = make_cpu(binary)
        with pytest.raises(Trap) as excinfo:
            cpu.run()
        assert excinfo.value.kind is TrapKind.SYSCALL
        assert str(excinfo.value) == f"syscall at {binary.sites[0].syscall_addr:#x}"

    def test_syscall_handler_sees_instruction_address(self):
        asm = Assembler()
        site = asm.syscall_site(39)
        asm.hlt()
        cpu = make_cpu(asm.build())
        seen = []

        def entry(cpu, rip):
            seen.append(rip)
            cpu.regs.rip = rip + 2

        cpu.syscall_entry = entry
        cpu.run()
        assert seen == [site.syscall_addr]

    def test_invalid_opcode_traps(self):
        asm = Assembler()
        asm.raw(b"\x60\xff")  # the patched-call tail bytes
        cpu = make_cpu(asm.build())
        with pytest.raises(Trap) as excinfo:
            cpu.step()
        assert excinfo.value.kind is TrapKind.INVALID_OPCODE
        assert str(excinfo.value) == "invalid_opcode at 0x400000 byte 0x60"

    def test_fetch_from_unmapped_faults(self):
        cpu = CPU(PagedMemory())
        cpu.regs.rip = 0xDEAD000
        with pytest.raises(Trap) as excinfo:
            cpu.step()
        assert excinfo.value.kind is TrapKind.PAGE_FAULT
        assert str(excinfo.value) == (
            "page_fault at 0xdead000 instruction fetch from unmapped page"
        )


class TestExecutionControl:
    def test_run_after_halt_raises(self):
        asm = Assembler()
        asm.hlt()
        cpu = make_cpu(asm.build())
        cpu.run()
        with pytest.raises(CpuHalted):
            cpu.step()

    def test_instruction_budget(self):
        asm = Assembler()
        asm.raw(enc_jmp_rel8(-2))  # jmp to itself
        cpu = make_cpu(asm.build())
        with pytest.raises(RuntimeError):
            cpu.run(max_instructions=100)

    def test_clock_charged_per_instruction(self):
        clock = SimClock()

        def prog(a):
            a.nop(9)
            a.hlt()

        asm = Assembler()
        prog(asm)
        cpu = make_cpu(asm.build(), clock=clock, instruction_ns=2.0)
        cpu.run()
        assert clock.now_ns == pytest.approx(20.0)  # 9 nops + hlt

    def test_native_stub_invoked_and_counts(self):
        asm = Assembler()
        asm.hlt()
        cpu = make_cpu(asm.build())
        hits = []

        def stub(cpu):
            hits.append(cpu.regs.rip)
            # A stub does its own return: pop the address and jump.
            cpu.regs.rip = cpu.mem.read_u64(cpu.regs.rsp)
            cpu.regs.rsp += 8

        cpu.native_stubs[0xFFFF00000000] = stub
        cpu.push64(asm.build().entry)
        cpu.regs.rip = 0xFFFF00000000
        cpu.run()
        assert hits == [0xFFFF00000000]
