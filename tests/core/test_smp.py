"""Multicore processing inside one X-Container (§4.3).

"no existing LibOS, except X-Containers, provides both these features"
(binary compatibility AND multicore processing) — so multiple vCPUs
running concurrently over shared, live-patched text is the platform's
signature capability.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer


def loop_binary(nr, iterations, base):
    asm = Assembler(base=base)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    asm.syscall_site(nr, style="mov_eax")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build(f"loop-{nr}")


class TestMultipleVcpus:
    def test_add_vcpu_shares_address_space(self):
        xc = XContainer(CountingServices())
        second = xc.add_vcpu()
        assert second.mem is xc.memory
        assert len(xc.cpus) == 2
        assert second.regs.rsp != xc.cpu.regs.rsp  # own stack

    def test_two_vcpus_run_different_programs(self):
        xc = XContainer(CountingServices())
        second = xc.add_vcpu()
        a = loop_binary(39, 10, base=0x400000)
        b = loop_binary(102, 10, base=0x500000)
        xc.load(a)
        xc.load(b)
        xc.run_concurrent([(xc.cpu, a.entry), (second, b.entry)])
        services = xc.libos.services
        assert services.count(39) == 10
        assert services.count(102) == 10

    def test_interleaving_actually_happens(self):
        xc = XContainer(CountingServices())
        second = xc.add_vcpu()
        a = loop_binary(39, 20, base=0x400000)
        b = loop_binary(102, 20, base=0x500000)
        xc.load(a)
        xc.load(b)
        xc.run_concurrent([(xc.cpu, a.entry), (second, b.entry)],
                          quantum=2)
        calls = xc.libos.services.calls
        # With a 2-instruction quantum the two syscall streams interleave.
        first_39 = calls.index(39)
        first_102 = calls.index(102)
        assert abs(first_39 - first_102) < 10
        assert calls.count(39) == 20 and calls.count(102) == 20

    def test_vcpus_racing_on_the_same_text(self):
        """Both vCPUs run the SAME binary: one of them patches each site,
        the other observes either the old or new bytes — semantics must
        hold either way (§4.4 concurrency safety)."""
        xc = XContainer(CountingServices())
        second = xc.add_vcpu()
        shared = loop_binary(39, 25, base=0x400000)
        xc.load(shared)
        xc.run_concurrent(
            [(xc.cpu, shared.entry), (second, shared.entry)], quantum=3
        )
        assert xc.libos.services.count(39) == 50
        # The site was patched exactly once despite two racing vCPUUs.
        assert xc.abom_stats.total_patches == 1

    def test_bad_quantum_rejected(self):
        xc = XContainer(CountingServices())
        with pytest.raises(ValueError):
            xc.run_concurrent([], quantum=0)

    @given(st.integers(1, 9), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_total_work_independent_of_quantum(self, quantum, vcpus):
        """Property: scheduling granularity never changes the syscall
        totals."""
        xc = XContainer(CountingServices())
        cpus = [xc.cpu] + [xc.add_vcpu() for _ in range(vcpus - 1)]
        programs = []
        for index, cpu in enumerate(cpus):
            binary = loop_binary(
                30 + index, 8, base=0x400000 + index * 0x100000
            )
            xc.load(binary)
            programs.append((cpu, binary.entry))
        xc.run_concurrent(programs, quantum=quantum)
        for index in range(vcpus):
            assert xc.libos.services.count(30 + index) == 8


class TestEventDeliveryDuringExecution:
    def test_pending_events_handled_without_hypercall(self):
        """§4.2: the X-LibOS 'can emulate the interrupt stack frame when
        it sees any pending events and jump directly into interrupt
        handlers without trapping into the X-Kernel first'."""
        from repro.xen.events import EventChannelTable

        xc = XContainer(CountingServices())
        events = EventChannelTable(xc.costs, xc.clock)
        ticks = []
        port = events.bind(lambda: ticks.append(xc.clock.now_ns))
        binary = loop_binary(39, 5, base=0x400000)
        xc.load(binary)
        xc.cpu.regs.rip = binary.entry
        # Interleave execution with event arrivals.
        for _ in range(3):
            xc.step(count=8)
            events.send(port)
            if events.evtchn_upcall_pending:
                events.drain(via_hypercall=False)
        while not xc.cpu.halted:
            xc.cpu.step()
        assert len(ticks) >= 3
        assert events.hypercall_deliveries == 0
        assert xc.libos.services.count(39) == 5
