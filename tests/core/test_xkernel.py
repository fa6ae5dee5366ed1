import pytest

from repro.arch.cpu import CPU, Trap, TrapKind
from repro.arch.memory import PagedMemory, PageFlags
from repro.core.xkernel import XKernel
from repro.core.xlibos import CountingServices, XLibOS
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


def make_stack():
    mem = PagedMemory()
    kernel = XKernel(mem, clock=SimClock())
    libos = XLibOS(mem, CountingServices(results={0: 5}), kernel.costs)
    mem.map_region(0x7000, 4096, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem)
    cpu.regs.rsp = 0x7800
    kernel.attach(cpu, libos)
    return kernel, libos, cpu


class TestModeDiscovery:
    """§4.2: guest mode judged by the stack pointer's most significant bit."""

    def test_user_half_is_user_mode(self):
        _, _, cpu = make_stack()
        cpu.regs.rsp = 0x00007FFF_FFFFF000
        assert not XKernel.in_guest_kernel_mode(cpu)

    def test_kernel_half_is_kernel_mode(self):
        _, _, cpu = make_stack()
        cpu.regs.rsp = 0xFFFF8800_00001000
        assert XKernel.in_guest_kernel_mode(cpu)


class TestTrapDispatch:
    def test_syscall_trap_forwards_to_libos(self):
        kernel, libos, cpu = make_stack()
        kernel.memory.map_region(0x4000, 4096, PageFlags.USER)
        cpu.regs.rax = 0
        kernel.handle_trap(cpu, Trap(TrapKind.SYSCALL, 0x4000), libos)
        assert cpu.regs.rax == 5
        assert cpu.regs.rip == 0x4002
        assert kernel.stats.syscalls_trapped == 1
        assert libos.stats.forwarded_syscalls == 1

    def test_unknown_trap_reraised(self):
        kernel, libos, cpu = make_stack()
        with pytest.raises(Trap):
            kernel.handle_trap(
                cpu, Trap(TrapKind.PAGE_FAULT, 0x1000), libos
            )

    def test_ud_without_patch_context_reraised(self):
        kernel, libos, cpu = make_stack()
        kernel.memory.map_region(0x4000, 4096, PageFlags.USER)
        with pytest.raises(Trap):
            kernel.handle_trap(
                cpu, Trap(TrapKind.INVALID_OPCODE, 0x4000), libos
            )
        assert kernel.stats.ud_traps == 1


class TestHypercalls:
    def test_hypercall_counted_and_charged(self):
        # A kernel built without a clock makes one and shares it with ABOM.
        for kernel in (make_stack()[0], XKernel(PagedMemory())):
            assert kernel.abom.clock is kernel.clock
            before = kernel.clock.now_ns
            kernel.hypercall("update_va_mapping")
            kernel.hypercall("update_va_mapping")
            assert kernel.stats.hypercalls["update_va_mapping"] == 2
            assert kernel.clock.now_ns - before == pytest.approx(
                2 * kernel.costs.hypercall_ns
            )

    def test_mmu_update_batches(self):
        kernel, _, _ = make_stack()
        before = kernel.clock.now_ns
        kernel.mmu_update(entries=10)
        assert kernel.stats.pt_updates == 10
        assert kernel.clock.now_ns - before == pytest.approx(
            10 * kernel.costs.pt_update_hypercall_ns
        )
