import pytest

from repro.arch import CPU
from repro.experiments import fig4_syscall
from repro.guest.kernel import GuestKernel
from repro.platforms import (
    DockerPlatform,
    XContainerPlatform,
    XenContainerPlatform,
)
from repro.workloads import unixbench
from repro.workloads.iperf import iperf_bench
from repro.workloads.unixbench import build_syscall_bench


#: What the System Call loop's five syscalls return, in loop order
#: (dup, close, getpid, getuid, umask).  The loop never sets ``rdi``, so
#: it runs ``close(0)`` and drops the fd ``dup(0)`` returned: from the
#: second iteration on fd 0 is gone, and ``dup`` and ``close`` both fail
#: with -EBADF (UnixBench's loop is ``close(dup(0))``).  ``umask(0)``
#: returns 0o22 once, then 0.
FIRST_ITERATION = [(32, 3), (3, 0), (39, 1), (102, 0), (95, 0o22)]
LATER_ITERATIONS = [(32, -9), (3, -9), (39, 1), (102, 0), (95, 0)]
#: Past ``HOT_THRESHOLD`` (50): the loop compiles into a trace.
ITERATIONS = 60


def _set_tracecache(patch, tracecache):
    """Build every ``run_binary`` CPU with the trace cache on or off;
    returns the list the CPUs are appended to."""
    cpus = []

    def make_cpu(*args, **kwargs):
        kwargs["tracecache"] = tracecache
        cpus.append(CPU(*args, **kwargs))
        return cpus[-1]

    patch.setattr("repro.platforms.base.CPU", make_cpu)
    patch.setattr("repro.core.xcontainer.CPU", make_cpu)
    return cpus


def _syscall_loop(platform, tracecache, monkeypatch):
    """Run the loop on ``platform`` with the trace cache on or off;
    returns the run, each syscall's ``(nr, result)`` and the CPU."""
    calls = []
    invoke = GuestKernel.invoke

    def recording(self, nr, cpu):
        result = invoke(self, nr, cpu)
        calls.append((nr, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(GuestKernel, "invoke", recording)
        cpus = _set_tracecache(patch, tracecache)
        run = platform.run_binary(build_syscall_bench(ITERATIONS))
    (cpu,) = cpus
    return run, calls, cpu


class TestSyscallLoopTraceNeutral:
    """The Fig 4 loop gives the same results with its syscalls compiled
    into a trace as interpreted one at a time."""

    @pytest.mark.parametrize("platform", [DockerPlatform, XContainerPlatform])
    def test_results_counts_and_time(self, monkeypatch, platform):
        traced, traced_calls, traced_cpu = _syscall_loop(
            platform(), True, monkeypatch
        )
        plain, plain_calls, plain_cpu = _syscall_loop(
            platform(), False, monkeypatch
        )
        expected = FIRST_ITERATION + LATER_ITERATIONS * (ITERATIONS - 1)
        assert traced_calls == plain_calls == expected
        # mov ebx, then 12 per iteration (5 x mov + syscall, dec, jne),
        # then hlt.
        assert traced.instructions == plain.instructions == 12 * ITERATIONS + 2
        assert traced.syscalls == plain.syscalls == 5 * ITERATIONS
        assert traced_cpu.trace_stats.instructions > 0
        assert plain_cpu._tracecache is None
        # A trace charges n instructions as one ``n * instruction_ns``
        # where the interpreter adds ``instruction_ns`` n times: each
        # retired instruction may add at most one rounding error.
        bound = traced.instructions * 2**-52 * plain.elapsed_ns
        assert abs(traced.elapsed_ns - plain.elapsed_ns) <= bound

    def test_fig4_cells(self, monkeypatch):
        monkeypatch.setattr(fig4_syscall, "ITERATIONS", ITERATIONS)
        tables = []
        for tracecache in (True, False):
            with monkeypatch.context() as patch:
                cpus = _set_tracecache(patch, tracecache)
                tables.append(fig4_syscall.run().format_table())
            assert len(cpus) == 36
        assert tables[0] == tables[1]


class TestSyscallBench:
    def test_binary_contains_both_patch_shapes(self):
        binary = build_syscall_bench(10)
        patterns = {site.pattern.value for site in binary.sites}
        assert "mov_eax_imm" in patterns
        assert "mov_rax_imm" in patterns

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            build_syscall_bench(0)

    def test_x_container_much_faster_than_docker(self):
        docker = unixbench.syscall_bench(DockerPlatform(), iterations=200)
        x = unixbench.syscall_bench(XContainerPlatform(), iterations=200)
        assert x.iterations_per_s > 10 * docker.iterations_per_s

    def test_concurrency_penalizes_patched_docker_only(self):
        docker_1 = unixbench.syscall_bench(
            DockerPlatform(), iterations=100, concurrency=1
        )
        docker_4 = unixbench.syscall_bench(
            DockerPlatform(), iterations=100, concurrency=4
        )
        assert docker_4.iterations_per_s < docker_1.iterations_per_s
        x_1 = unixbench.syscall_bench(
            XContainerPlatform(), iterations=100, concurrency=1
        )
        x_4 = unixbench.syscall_bench(
            XContainerPlatform(), iterations=100, concurrency=4
        )
        assert x_4.iterations_per_s == pytest.approx(x_1.iterations_per_s)


class TestLifecycleBenches:
    def test_process_creation_docker_beats_x(self):
        """§5.4: X-Containers lose Process Creation."""
        docker = unixbench.process_creation_bench(
            DockerPlatform(), iterations=20
        )
        x = unixbench.process_creation_bench(
            XContainerPlatform(), iterations=20
        )
        assert docker.iterations_per_s > x.iterations_per_s

    def test_context_switching_docker_unpatched_beats_x(self):
        docker = unixbench.context_switch_bench(
            DockerPlatform(patched=False), iterations=50
        )
        x = unixbench.context_switch_bench(
            XContainerPlatform(), iterations=50
        )
        assert docker.iterations_per_s > x.iterations_per_s

    def test_file_copy_x_beats_docker(self):
        """Syscall-bound 1KB-buffer copy: conversion wins."""
        docker = unixbench.file_copy_bench(DockerPlatform(), file_kb=32)
        x = unixbench.file_copy_bench(XContainerPlatform(), file_kb=32)
        assert x.iterations_per_s > 1.5 * docker.iterations_per_s

    def test_pipe_x_beats_docker(self):
        docker = unixbench.pipe_bench(DockerPlatform(), iterations=100)
        x = unixbench.pipe_bench(XContainerPlatform(), iterations=100)
        assert x.iterations_per_s > 1.5 * docker.iterations_per_s

    def test_execl_x_beats_patched_docker(self):
        docker = unixbench.execl_bench(DockerPlatform(), iterations=10)
        x = unixbench.execl_bench(XContainerPlatform(), iterations=10)
        assert x.iterations_per_s > docker.iterations_per_s

    def test_xen_container_worst_at_pipe(self):
        xen = unixbench.pipe_bench(XenContainerPlatform(), iterations=100)
        docker = unixbench.pipe_bench(DockerPlatform(), iterations=100)
        assert xen.iterations_per_s < docker.iterations_per_s


class TestIperf:
    def test_near_line_rate_for_native_and_x(self):
        """Fig 5: iperf is roughly flat across Docker/Xen/X."""
        docker = iperf_bench(DockerPlatform(), transfer_mb=32)
        x = iperf_bench(XContainerPlatform(), transfer_mb=32)
        ratio = x.gbits_per_s / docker.gbits_per_s
        assert 0.8 < ratio < 1.3

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            iperf_bench(DockerPlatform(), transfer_mb=0)

    def test_result_labels_unpatched(self):
        result = iperf_bench(DockerPlatform(patched=False), transfer_mb=16)
        assert result.platform.endswith("-unpatched")
