import pytest

from repro.arch import Assembler, Reg
from repro.core import CountingServices, DockerImage, DockerWrapper, XContainer
from repro.obs import Registry
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


class TestXContainer:
    def test_run_reports_instructions_and_time(self):
        xc = XContainer(CountingServices())
        asm = Assembler()
        asm.nop(5)
        asm.hlt()
        result = xc.run(asm.build())
        assert result.instructions == 6
        assert result.elapsed_ns > 0

    def test_syscall_reduction_metric(self):
        xc = XContainer(CountingServices())
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 10)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert xc.syscall_reduction() == pytest.approx(0.9)

    def test_syscall_reduction_zero_when_idle(self):
        assert XContainer(CountingServices()).syscall_reduction() == 0.0

    def test_shared_clock(self):
        clock = SimClock()
        xc = XContainer(CountingServices(), clock=clock)
        asm = Assembler()
        asm.nop(10)
        asm.hlt()
        xc.run(asm.build())
        assert clock.now_ns > 0
        tel = xc.telemetry()
        assert isinstance(tel, Registry)
        assert tel.spans.clock is xc.clock is clock


class TestDockerWrapper:
    def test_spawn_timing_matches_section_4_5(self):
        """§4.5: X-LibOS boots in 180 ms; the xl toolstack brings total
        instantiation to ~3 s."""
        wrapper = DockerWrapper()
        _, timing = wrapper.spawn(DockerImage("bash"))
        assert timing.boot_ms == pytest.approx(180.0)
        assert timing.total_ms == pytest.approx(3000.0, rel=0.01)

    def test_fast_toolstack_lightvm_style(self):
        wrapper = DockerWrapper(fast_toolstack=True)
        _, timing = wrapper.spawn(DockerImage("bash"))
        assert timing.toolstack_ms == pytest.approx(4.0)
        assert timing.total_ms < 200.0

    def test_spawn_advances_clock(self):
        clock = SimClock()
        wrapper = DockerWrapper(clock=clock)
        wrapper.spawn(DockerImage("redis"))
        assert clock.now_ns == pytest.approx(3000.0e6, rel=0.01)

    def test_container_is_usable_after_spawn(self):
        wrapper = DockerWrapper(fast_toolstack=True)
        container, _ = wrapper.spawn(
            DockerImage("nginx"), services=CountingServices(results={39: 3})
        )
        asm = Assembler()
        asm.syscall_site(39)
        asm.hlt()
        assert container.run(asm.build()).exit_rax == 3

    def test_multi_process_images_cost_more_bootloader_time(self):
        wrapper = DockerWrapper(fast_toolstack=True)
        _, one = wrapper.spawn(DockerImage("nginx", processes=1))
        _, four = wrapper.spawn(DockerImage("nginx", processes=4))
        assert four.bootloader_ms > one.bootloader_ms

    def test_ordinary_vm_much_slower(self):
        wrapper = DockerWrapper()
        _, timing = wrapper.spawn(DockerImage("bash"))
        assert wrapper.ordinary_vm_spawn_ms() > 5 * timing.total_ms
