import pytest

from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory, PageFault, PageFlags
from repro.arch.registers import Reg
from repro.core import vsyscall
from repro.core.vsyscall import VsyscallPage
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices


class TestLayout:
    """Slot addresses inferred from Figure 2 must hold exactly."""

    def test_read_slot_matches_figure2(self):
        # __read is syscall 0; Fig 2 patches it to call *0xffffffffff600008.
        assert vsyscall.slot_addr(0) == 0xFFFFFFFFFF600008

    def test_restore_rt_slot_matches_figure2(self):
        # __restore_rt is rt_sigreturn (15): call *0xffffffffff600080.
        assert vsyscall.slot_addr(15) == 0xFFFFFFFFFF600080

    def test_go_dynamic_slot_matches_figure2(self):
        # syscall.Syscall loads the number from 0x8(%rsp):
        # call *0xffffffffff600c08.
        assert vsyscall.dynamic_slot_addr(8) == 0xFFFFFFFFFF600C08

    def test_all_slots_fit_in_the_page(self):
        last_static = vsyscall.slot_addr(vsyscall.NUM_SYSCALLS - 1)
        assert last_static < vsyscall.VSYSCALL_BASE + 0x1000
        last_dynamic = vsyscall.dynamic_slot_addr(vsyscall.DYNAMIC_DISPS[-1])
        assert last_dynamic < vsyscall.VSYSCALL_BASE + 0x1000

    def test_slots_encodable_as_disp32(self):
        from repro.arch.encoding import enc_call_abs_ind

        for nr in (0, 1, 15, vsyscall.NUM_SYSCALLS - 1):
            enc_call_abs_ind(vsyscall.slot_addr(nr))  # must not raise

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            vsyscall.slot_addr(vsyscall.NUM_SYSCALLS)
        with pytest.raises(ValueError):
            vsyscall.dynamic_slot_addr(3)  # not a multiple of 8 in range

    def test_static_and_dynamic_slots_are_disjoint(self):
        numbers = range(vsyscall.NUM_SYSCALLS)
        disps = vsyscall.DYNAMIC_DISPS
        static = {vsyscall.slot_addr(nr) for nr in numbers}
        dynamic = {vsyscall.dynamic_slot_addr(disp) for disp in disps}
        assert len(static) == vsyscall.NUM_SYSCALLS
        assert not static & dynamic
        stubs = {vsyscall.stub_addr(nr) for nr in numbers}
        assert not stubs & {vsyscall.dynamic_stub_addr(d) for d in disps}

    def test_highest_static_number_keeps_its_syscall(self):
        """A patched ``mov $383,%eax; syscall`` site must keep issuing 383.

        383 would own ``base + 0xc00``, the Go dynamic table's first slot;
        patched into a call through it, the site's next run would issue
        whatever number sits at ``8(%rsp)``.
        """
        asm = Assembler(base=0x400000)
        asm.mov_imm32(Reg.RBX, 2)
        asm.label("loop")
        asm.syscall_site(383, style="mov_eax", symbol="s383")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        services = CountingServices()
        XContainer(services).run(asm.build("alias"))
        assert services.calls == [383, 383]


class TestInstall:
    def test_table_points_at_stubs(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        for nr in range(vsyscall.NUM_SYSCALLS):
            stub = vsyscall.stub_addr(nr)
            assert mem.read_u64(vsyscall.slot_addr(nr)) == stub
        for disp in vsyscall.DYNAMIC_DISPS:
            assert (
                mem.read_u64(vsyscall.dynamic_slot_addr(disp))
                == vsyscall.dynamic_stub_addr(disp)
            )

    def test_installed_page_is_clean_and_readonly(self):
        mem = PagedMemory()
        VsyscallPage(mem).install()
        flags = mem.page_flags(vsyscall.VSYSCALL_BASE)
        assert isinstance(flags, PageFlags)
        assert not flags & PageFlags.DIRTY
        assert not flags & PageFlags.WRITABLE
        assert mem.dirty_pages() == []

    def test_page_is_readonly_to_user_code(self):
        mem = PagedMemory()
        VsyscallPage(mem).install()
        with pytest.raises(PageFault):
            mem.write_u64(vsyscall.slot_addr(0), 0xBAD)

    def test_page_is_global(self):
        """§4.3: the vsyscall/LibOS mappings carry the global bit."""
        mem = PagedMemory()
        VsyscallPage(mem).install()
        assert mem.page_flags(vsyscall.VSYSCALL_BASE) & PageFlags.GLOBAL

    def test_attach_before_install_rejected(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        with pytest.raises(RuntimeError):
            page.attach(CPU(mem), lambda cpu, nr: None)


class TestStubs:
    def test_static_stub_passes_number(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        cpu = CPU(mem)
        seen = []
        page.attach(cpu, lambda cpu, nr: seen.append(nr))
        # Stubs are entered with RIP at the stub, as CPU.step and traces do.
        cpu.regs.rip = vsyscall.stub_addr(39)
        cpu.native_stubs[cpu.regs.rip](cpu)
        assert seen == [39]

    def test_dynamic_stub_reads_number_from_stack(self):
        mem = PagedMemory()
        page = VsyscallPage(mem)
        page.install()
        mem.map_region(0x7000, 4096, PageFlags.USER | PageFlags.WRITABLE)
        cpu = CPU(mem)
        cpu.regs.rsp = 0x7100
        # Original code stored the number at 8(%rsp) BEFORE the call pushed
        # a return address, so the stub must read it at 16(%rsp).
        mem.write_u64(0x7100 + 16, 202)
        seen = []
        page.attach(cpu, lambda cpu, nr: seen.append(nr))
        cpu.regs.rip = vsyscall.dynamic_stub_addr(8)
        cpu.native_stubs[cpu.regs.rip](cpu)
        assert seen == [202]
