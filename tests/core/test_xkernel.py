import pytest

from repro.arch.cpu import CPU, Trap, TrapKind
from repro.arch.memory import PagedMemory, PageFlags
from repro.core.xkernel import XKernel
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices, XLibOS
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.workloads.unixbench import build_syscall_bench


def make_stack():
    mem = PagedMemory()
    kernel = XKernel(mem, clock=SimClock())
    libos = XLibOS(mem, CountingServices(results={0: 5}), kernel.costs)
    mem.map_region(0x7000, 4096, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem)
    cpu.regs.rsp = 0x7800
    kernel.attach(cpu, libos)
    return kernel, libos, cpu


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


class TestClock:
    def test_abom_shares_the_kernel_clock(self):
        # A kernel built without a clock makes one and shares it with ABOM.
        for kernel in (make_stack()[0], XKernel(PagedMemory())):
            assert kernel.abom.clock is kernel.clock


class TestSyscallEntry:
    """The X-Kernel is the CPU's syscall entry as well as its trap
    handler: every forwarded syscall, interpreted or from inside a
    compiled trace, is one ``handle_trap`` call with a ``Trap(SYSCALL)``."""

    @pytest.mark.parametrize("abom_enabled", [True, False])
    def test_handle_trap_sees_every_forwarded_syscall(
        self, monkeypatch, abom_enabled
    ):
        seen = []
        handle_trap = XKernel.handle_trap

        def spy(self, cpu, trap, libos):
            seen.append((trap.kind, trap.rip))
            handle_trap(self, cpu, trap, libos)

        # Wrapped on the class, as ``e2ebench/layers.py`` wraps it.
        monkeypatch.setattr(XKernel, "handle_trap", spy)
        xc = XContainer(CountingServices(), abom_enabled=abom_enabled)
        xc.run(build_syscall_bench(200))
        forwarded = xc.libos_stats.forwarded_syscalls
        assert forwarded == (5 if abom_enabled else 1000)
        assert len(seen) == forwarded == xc.xkernel.stats.syscalls_trapped
        assert {kind for kind, _ in seen} == {TrapKind.SYSCALL}
        assert xc.cpu.trace_stats.instructions > 0

    def test_attach_installs_entry_and_handler(self):
        kernel, libos, cpu = make_stack()
        assert cpu.syscall_entry is not None
        assert cpu.trap_handler is not None
