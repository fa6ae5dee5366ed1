import errno

import pytest

from repro.guest.config import KernelConfig
from repro.guest.kernel import SYS, GuestKernel, HypercallMmu, NativeMmu
from repro.guest.process import ProcessState
from repro.guest.vfs import O_CREAT, O_RDWR, VfsError
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


def make_kernel(**kwargs):
    clock = SimClock()
    kernel = GuestKernel(clock=clock, **kwargs)
    return kernel, clock


class TestProcessLifecycle:
    def test_spawn(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("init")
        assert proc.pid == 1
        assert list(kernel._procs) == [1]

    def test_fork_clones(self):
        kernel, _ = make_kernel()
        parent = kernel.spawn("nginx")
        child = kernel.fork(parent.pid)
        assert child.ppid == parent.pid
        assert child.name == "nginx"
        assert child.pid in parent.children
        assert child.aspace.asid != parent.aspace.asid
        assert child.aspace.pt_pages == parent.aspace.pt_pages

    def test_fork_shares_fd_table_snapshot(self):
        kernel, _ = make_kernel()
        parent = kernel.spawn("p")
        fd = kernel.open(parent.pid, "/f", O_RDWR | O_CREAT)
        child = kernel.fork(parent.pid)
        kernel.write(child.pid, fd, b"from child")
        handle = parent.fds[fd]
        assert handle.inode.data == bytearray(b"from child")

    def test_fork_charges_base_plus_pt_pages(self):
        costs = CostModel()
        # A kernel built without a clock makes one and hands it to its MMU.
        for kernel in (make_kernel()[0], GuestKernel()):
            assert kernel.mmu.clock is kernel.clock
            parent = kernel.spawn("p")
            before = kernel.clock.now_ns
            kernel.fork(parent.pid)
            expected = (
                costs.fork_base_ns
                + parent.aspace.pt_pages * costs.fork_per_pt_page_ns
            )
            assert kernel.clock.now_ns - before == pytest.approx(expected)

    def test_exec_rebuilds_address_space(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("sh")
        old_asid = proc.aspace.asid
        kernel.execve(proc.pid, "ls")
        assert proc.name == "ls"
        assert proc.aspace.asid != old_asid
        assert kernel.stats.execs == 1

    def test_exit_and_wait(self):
        kernel, _ = make_kernel()
        parent = kernel.spawn("p")
        child = kernel.fork(parent.pid)
        kernel.exit(child.pid, 7)
        assert child.state is ProcessState.ZOMBIE
        assert kernel.waitpid(parent.pid, child.pid) == 7
        assert list(kernel._procs) == [parent.pid]

    def test_wait_for_running_child_eagain(self):
        kernel, _ = make_kernel()
        parent = kernel.spawn("p")
        child = kernel.fork(parent.pid)
        with pytest.raises(VfsError) as excinfo:
            kernel.waitpid(parent.pid, child.pid)
        assert excinfo.value.errno == errno.EAGAIN

    def test_wait_for_non_child_echild(self):
        kernel, _ = make_kernel()
        a = kernel.spawn("a")
        b = kernel.spawn("b")
        with pytest.raises(VfsError):
            kernel.waitpid(a.pid, b.pid)

    def test_unknown_pid(self):
        kernel, _ = make_kernel()
        with pytest.raises(KeyError):
            kernel.process(42)


class TestMmuBackends:
    def test_hypercall_mmu_costs_more(self):
        """§5.4: PT updates through the hypervisor make fork slower."""
        costs = CostModel()
        clock_n, clock_h = SimClock(), SimClock()
        native = GuestKernel(
            costs=costs, clock=clock_n, mmu=NativeMmu(costs, clock_n)
        )
        hyper = GuestKernel(
            costs=costs, clock=clock_h, mmu=HypercallMmu(costs, clock_h)
        )
        for kernel in (native, hyper):
            parent = kernel.spawn("p")
            kernel.fork(parent.pid)
        assert clock_h.now_ns > clock_n.now_ns

    def test_hypercall_mmu_hook_forwards(self):
        seen = []
        costs = CostModel()
        mmu = HypercallMmu(costs, mmu_update=seen.append)
        mmu.pt_update(5)
        assert seen == [5]
        assert mmu.updates == 5

    def test_runqueue_knows_about_hypercall_mmu(self):
        costs = CostModel()
        hyper = GuestKernel(costs=costs, mmu=HypercallMmu(costs))
        native = GuestKernel(costs=costs, mmu=NativeMmu(costs))
        assert (
            hyper.runqueue.switch_cost_ns(4)
            > native.runqueue.switch_cost_ns(4)
        )


class TestFileSyscalls:
    def test_open_read_write_close(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("p")
        fd = kernel.open(proc.pid, "/data", O_RDWR | O_CREAT)
        assert kernel.write(proc.pid, fd, b"abc") == 3
        handle = proc.fds[fd]
        handle.offset = 0
        assert kernel.read(proc.pid, fd, 3) == b"abc"
        kernel.close(proc.pid, fd)
        with pytest.raises(VfsError):
            kernel.read(proc.pid, fd, 1)

    def test_dup_shares_offset(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("p")
        fd = kernel.open(proc.pid, "/d", O_RDWR | O_CREAT)
        dup = kernel.dup(proc.pid, fd)
        kernel.write(proc.pid, fd, b"xy")
        assert proc.fds[dup].offset == 2  # same open-file description

    def test_pipe_between_processes(self):
        kernel, _ = make_kernel()
        parent = kernel.spawn("p")
        rfd, wfd = kernel.pipe(parent.pid)
        child = kernel.fork(parent.pid)
        kernel.write(child.pid, wfd, b"ping")
        assert kernel.read(parent.pid, rfd, 4) == b"ping"

    def test_pipe_direction_enforced(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("p")
        rfd, wfd = kernel.pipe(proc.pid)
        with pytest.raises(VfsError):
            kernel.write(proc.pid, rfd, b"x")
        with pytest.raises(VfsError):
            kernel.read(proc.pid, wfd, 1)

    def test_umask(self):
        kernel, _ = make_kernel()
        proc = kernel.spawn("p")
        old = kernel.umask(proc.pid, 0o077)
        assert old == 0o022
        assert proc.umask == 0o077

    def test_io_charges_copy_costs(self):
        kernel, clock = make_kernel()
        proc = kernel.spawn("p")
        fd = kernel.open(proc.pid, "/big", O_RDWR | O_CREAT)
        before = clock.now_ns
        kernel.write(proc.pid, fd, b"z" * 10000)
        assert clock.now_ns - before >= 10000 * CostModel().copy_per_byte_ns


class TestEmulatorServices:
    class FakeCpu:
        def __init__(self):
            from repro.arch.registers import RegisterFile

            self.regs = RegisterFile()
            self.halted = False

    def test_getpid_getuid(self):
        kernel, _ = make_kernel()
        cpu = self.FakeCpu()
        pid = kernel.invoke(SYS["getpid"], cpu)
        assert pid >= 1
        assert kernel.invoke(SYS["getuid"], cpu) == 0

    def test_dup_close_cycle(self):
        kernel, _ = make_kernel()
        cpu = self.FakeCpu()
        cpu.regs.write64(7, 0)  # rdi = fd 0
        new_fd = kernel.invoke(SYS["dup"], cpu)
        assert new_fd > 2
        cpu.regs.write64(7, new_fd)
        assert kernel.invoke(SYS["close"], cpu) == 0
        assert kernel.invoke(SYS["close"], cpu) == -errno.EBADF

    def test_exit_halts_cpu(self):
        kernel, _ = make_kernel()
        cpu = self.FakeCpu()
        cpu.regs.write64(7, 3)
        assert kernel.invoke(SYS["exit"], cpu) == 3
        assert cpu.halted

    def test_unknown_syscall_is_counted_noop(self):
        kernel, _ = make_kernel()
        cpu = self.FakeCpu()
        assert kernel.invoke(300, cpu) == 0
        assert kernel.stats.syscalls == 1

    def test_bare_rt_sigreturn_returns_zero_and_charges_nothing(self):
        kernel, clock = make_kernel()
        cpu = self.FakeCpu()
        kernel.invoke(SYS["getpid"], cpu)  # boot the emulator process
        before = clock.now_ns
        assert kernel.invoke(SYS["rt_sigreturn"], cpu) == 0
        # Not the accounted no-op path, which charges 0.2 x vfs_op_ns.
        assert clock.now_ns == before

    def test_fork_via_emulator(self):
        kernel, _ = make_kernel()
        cpu = self.FakeCpu()
        child_pid = kernel.invoke(SYS["fork"], cpu)
        assert child_pid == 2


class TestEmulatorPid:
    """``invoke`` serves machine code as the first process in the table;
    the pid is cached, and fork and waitpid keep that pick."""

    def test_fork_and_waitpid_keep_the_first_process(self):
        kernel, _ = make_kernel()
        cpu = TestEmulatorServices.FakeCpu()
        first = kernel.invoke(SYS["getpid"], cpu)
        child = kernel.invoke(SYS["fork"], cpu)
        assert kernel.invoke(SYS["getpid"], cpu) == first
        kernel.exit(child)
        kernel.waitpid(first, child)
        assert kernel.invoke(SYS["getpid"], cpu) == first
        assert list(kernel._procs) == [first]

    def test_cache_follows_the_first_entry(self):
        kernel, _ = make_kernel()
        cpu = TestEmulatorServices.FakeCpu()
        parent = kernel.spawn("init")
        child = kernel.fork(parent.pid)
        assert kernel.invoke(SYS["getpid"], cpu) == parent.pid
        # Reaping a process that is first in the table (a test-only
        # reparenting: the child becomes the parent's parent) moves the
        # pick to the next entry, as ``next(iter(_procs))`` would.
        parent.ppid = child.pid
        child.children.append(parent.pid)
        kernel.exit(parent.pid)
        kernel.waitpid(child.pid, parent.pid)
        assert kernel.invoke(SYS["getpid"], cpu) == child.pid
