import pytest

from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory, PageFlags
from repro.core.xlibos import CountingServices, XLibOS
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


def make_libos(results=None, clock=None):
    mem = PagedMemory()
    services = CountingServices(results=results or {})
    libos = XLibOS(mem, services, CostModel(), clock)
    mem.map_region(0x7000, 4096, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem)
    cpu.regs.rsp = 0x7800
    libos.attach(cpu)
    return libos, cpu, services


class TestLightweightEntry:
    def _push_return(self, cpu, addr):
        cpu.push64(addr)

    def test_dispatch_and_return(self):
        libos, cpu, services = make_libos(results={39: 42})
        # Map a fake return site with benign bytes.
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        self._push_return(cpu, 0x5000)
        rsp_before_call = cpu.regs.rsp + 8
        libos.lightweight_entry(cpu, 39)
        assert cpu.regs.rax == 42
        assert cpu.regs.rip == 0x5000
        assert cpu.regs.rsp == rsp_before_call
        assert services.calls == [39]
        assert libos.stats.lightweight_syscalls == 1

    def test_skip_trailing_syscall(self):
        """Phase-1 9-byte state: return address holds the dead syscall."""
        libos, cpu, _ = make_libos()
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        libos.memory.wp_enabled = False
        libos.memory.write(0x5000, b"\x0f\x05")
        libos.memory.wp_enabled = True
        self._push_return(cpu, 0x5000)
        libos.lightweight_entry(cpu, 0)
        assert cpu.regs.rip == 0x5002
        assert libos.stats.return_address_skips == 1

    def test_skip_trailing_jmp_back(self):
        """Phase-2 state: return address holds ``jmp -9``."""
        libos, cpu, _ = make_libos()
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        libos.memory.wp_enabled = False
        libos.memory.write(0x5000, b"\xeb\xf7")
        libos.memory.wp_enabled = True
        self._push_return(cpu, 0x5000)
        libos.lightweight_entry(cpu, 0)
        assert cpu.regs.rip == 0x5002

    def test_no_skip_for_ordinary_bytes(self):
        libos, cpu, _ = make_libos()
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        libos.memory.wp_enabled = False
        libos.memory.write(0x5000, b"\x90\x90")
        libos.memory.wp_enabled = True
        self._push_return(cpu, 0x5000)
        libos.lightweight_entry(cpu, 0)
        assert cpu.regs.rip == 0x5000
        assert libos.stats.return_address_skips == 0

    def test_unmapped_return_address_no_probe_fault(self):
        libos, cpu, _ = make_libos()
        self._push_return(cpu, 0xDEAD0000)
        libos.lightweight_entry(cpu, 0)  # must not raise
        assert cpu.regs.rip == 0xDEAD0000

    def test_charges_function_call_cost(self):
        clock = SimClock()
        libos, cpu, _ = make_libos(clock=clock)
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        self._push_return(cpu, 0x5000)
        libos.lightweight_entry(cpu, 0)
        assert clock.now_ns == pytest.approx(
            CostModel().xc_func_call_syscall_ns
        )


class TestForwardedEntry:
    def test_dispatch_via_rax(self):
        libos, cpu, services = make_libos(results={1: 8})
        cpu.regs.rax = 1
        libos.forwarded_entry(cpu, 0x4000)
        assert cpu.regs.rax == 8
        assert cpu.regs.rip == 0x4002
        assert libos.stats.forwarded_syscalls == 1
        assert services.calls == [1]

    def test_total_syscalls_sums_both_paths(self):
        libos, cpu, _ = make_libos()
        libos.memory.map_region(0x5000, 4096, PageFlags.USER)
        cpu.push64(0x5000)
        libos.lightweight_entry(cpu, 0)
        cpu.regs.rax = 0
        libos.forwarded_entry(cpu, 0x4000)
        assert libos.stats.total_syscalls == 2


class TestCountingServices:
    def test_count_per_nr(self):
        services = CountingServices()
        services.invoke(1, None)
        services.invoke(1, None)
        services.invoke(2, None)
        assert services.count(1) == 2
        assert services.count(3) == 0

    def test_default_result(self):
        services = CountingServices(default_result=-38)
        assert services.invoke(5, None) == -38
