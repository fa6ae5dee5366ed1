import pytest

from repro.arch.assembler import Assembler
from repro.arch.cpu import Trap, TrapKind
from repro.arch.registers import Reg
from repro.platforms import (
    ClearContainerPlatform,
    DockerPlatform,
    GraphenePlatform,
    GVisorPlatform,
    UnikernelPlatform,
    UnsupportedWorkload,
    XContainerPlatform,
    XenContainerPlatform,
    cloud_configurations,
    get_platform,
    platform_names,
)


class TestRegistry:
    def test_all_platforms_constructible(self):
        for name in platform_names():
            platform = get_platform(name)
            assert platform.syscall_cost_ns() > 0

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            get_platform("podman")

    def test_ten_cloud_configurations(self):
        """§5.1: five platforms, each patched and -unpatched."""
        configs = cloud_configurations()
        assert len(configs) == 10
        assert configs["docker"].patched
        assert not configs["docker-unpatched"].patched


class TestSyscallCosts:
    def test_fig4_cost_ordering(self):
        """The ordering every panel of Fig 4 rests on."""
        x = XContainerPlatform()
        clear = ClearContainerPlatform()
        docker = DockerPlatform()
        docker_unpatched = DockerPlatform(patched=False)
        xen = XenContainerPlatform()
        gvisor = GVisorPlatform()
        assert (
            x.syscall_cost_ns()
            < clear.syscall_cost_ns()
            < docker_unpatched.syscall_cost_ns()
            < docker.syscall_cost_ns()
            < xen.syscall_cost_ns()
            < gvisor.syscall_cost_ns()
        )

    def test_meltdown_patch_does_not_move_x_or_clear(self):
        """§5.4: the patch does not affect X-Containers or Clear
        Containers."""
        assert (
            XContainerPlatform(patched=True).syscall_cost_ns()
            == XContainerPlatform(patched=False).syscall_cost_ns()
        )
        assert (
            ClearContainerPlatform(patched=True).syscall_cost_ns()
            == ClearContainerPlatform(patched=False).syscall_cost_ns()
        )

    def test_meltdown_patch_hurts_docker_xen_gvisor(self):
        for cls in (DockerPlatform, XenContainerPlatform, GVisorPlatform):
            assert (
                cls(patched=True).syscall_cost_ns()
                > cls(patched=False).syscall_cost_ns()
            )

    def test_abom_disabled_x_container_still_beats_xen_pv(self):
        """§4.2: even unconverted syscalls skip the address-space switch."""
        x_no_abom = XContainerPlatform(abom_enabled=False)
        xen = XenContainerPlatform()
        assert x_no_abom.syscall_cost_ns() < xen.syscall_cost_ns()

    def test_converted_fraction_interpolates(self):
        none = XContainerPlatform(converted_fraction=0.0)
        full = XContainerPlatform(converted_fraction=1.0)
        half = XContainerPlatform(converted_fraction=0.5)
        assert none.syscall_cost_ns() > half.syscall_cost_ns() > (
            full.syscall_cost_ns()
        )


class TestCapabilities:
    def test_multicore_processing_flags(self):
        """§2.3's capability matrix."""
        assert DockerPlatform().multicore_processing
        assert XContainerPlatform().multicore_processing
        assert GraphenePlatform().multicore_processing
        assert not GVisorPlatform().multicore_processing
        assert not UnikernelPlatform().multicore_processing

    def test_unikernel_single_process(self):
        unikernel = UnikernelPlatform()
        unikernel.require_processes(1)
        with pytest.raises(UnsupportedWorkload):
            unikernel.require_processes(4)

    def test_kernel_module_support(self):
        """§5.7: X-Containers can load modules, Docker/gVisor cannot."""
        assert XContainerPlatform().supports_kernel_modules
        assert XenContainerPlatform().supports_kernel_modules
        assert not DockerPlatform().supports_kernel_modules
        assert not GVisorPlatform().supports_kernel_modules

    def test_nested_virt_requirement(self):
        assert ClearContainerPlatform().needs_nested_hw_virt
        assert not XContainerPlatform().needs_nested_hw_virt

    def test_graphene_processes_validated(self):
        with pytest.raises(ValueError):
            GraphenePlatform(processes=0)

    def test_graphene_ipc_tax_with_multiple_processes(self):
        one = GraphenePlatform(processes=1)
        four = GraphenePlatform(processes=4)
        assert four.syscall_cost_ns() > one.syscall_cost_ns()


class TestLifecycleCosts:
    def test_x_container_ctx_switch_slower_than_docker_unpatched(self):
        assert (
            XContainerPlatform().ctx_switch_cost_ns(4)
            > DockerPlatform(patched=False).ctx_switch_cost_ns(4)
        )


class TestEmulatedExecution:
    def _loop(self, n=50):
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, n)
        asm.label("loop")
        asm.syscall_site(39, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        return asm.build()

    def test_all_platforms_run_machine_code(self):
        binary = self._loop()
        for name in platform_names():
            run = get_platform(name).run_binary(binary)
            assert run.syscalls == 50
            assert run.elapsed_ns > 0

    def test_x_container_patches_during_run(self):
        binary = self._loop()
        x = XContainerPlatform()
        run = x.run_binary(binary)
        docker_run = DockerPlatform().run_binary(binary)
        assert run.elapsed_ns < docker_run.elapsed_ns

    def test_invalid_opcode_raises(self):
        """``run_binary`` installs a syscall entry and no trap handler,
        so a #UD reaches the caller as a ``Trap``, after the syscalls
        before it were served."""
        asm = Assembler()
        site = asm.syscall_site(39, style="mov_eax")
        asm.label("bad")
        asm.raw(b"\x60\xff")  # the patched-call tail bytes
        binary = asm.build()
        with pytest.raises(Trap) as excinfo:
            DockerPlatform().run_binary(binary)
        assert excinfo.value.kind is TrapKind.INVALID_OPCODE
        assert excinfo.value.rip == binary.symbols["bad"]
        assert site.syscall_addr < excinfo.value.rip

    def test_elapsed_scales_with_syscall_cost(self):
        binary = self._loop()
        gvisor = GVisorPlatform().run_binary(binary)
        docker = DockerPlatform().run_binary(binary)
        assert gvisor.elapsed_ns > 5 * docker.elapsed_ns
