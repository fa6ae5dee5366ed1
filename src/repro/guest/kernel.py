"""The guest kernel: process lifecycle, file descriptors, syscall services.

One :class:`GuestKernel` instance plays whichever role the platform needs —
shared host kernel, per-VM guest kernel, or X-LibOS backend.  Two interfaces
are exposed:

* a **Python-level API** (``fork`` / ``execve`` / ``open`` / ``pipe`` /...)
  used by the workload models and the UnixBench profiles; it charges
  *kernel work* to the clock (crossing costs are the platform's job);
* the **emulator services interface** (:meth:`invoke`), making the kernel a
  valid backend for :class:`repro.core.xlibos.XLibOS` so machine code can
  issue real syscalls against it.

Page-table manipulation goes through a pluggable MMU backend: native
(direct writes) for host kernels, hypercall-mediated for PV guests and
X-LibOS — the §5.4 reason X-Containers lose the Process Creation and
Context Switching microbenchmarks.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Protocol

from repro.guest.config import KernelConfig
from repro.guest.modules import ModuleRegistry
from repro.guest.netstack import NetDevice, NetStack
from repro.guest.pipe import Pipe, PipeEnd
from repro.guest.process import AddressSpace, Process, ProcessState
from repro.guest.sched import RunQueue
from repro.guest.vfs import O_CREAT, O_RDONLY, OpenFile, RamFS, VfsError
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

#: x86-64 syscall numbers used across the repository.
SYS = {
    "read": 0,
    "write": 1,
    "open": 2,
    "close": 3,
    "rt_sigreturn": 15,
    "pipe": 22,
    "dup": 32,
    "getpid": 39,
    "fork": 57,
    "execve": 59,
    "exit": 60,
    "wait4": 61,
    "umask": 95,
    "getuid": 102,
}
#: The UnixBench System Call loop's five (Fig 4): :meth:`GuestKernel.invoke`
#: serves them first.
_NR_DUP = SYS["dup"]
_NR_CLOSE = SYS["close"]
_NR_GETPID = SYS["getpid"]
_NR_GETUID = SYS["getuid"]
_NR_UMASK = SYS["umask"]


class MmuBackend(Protocol):
    """Who applies page-table updates, and at what cost."""

    def pt_update(self, entries: int) -> float:
        """Apply ``entries`` page-table updates; returns cost in ns."""


class NativeMmu:
    """Direct page-table writes (a kernel running in ring 0)."""

    def __init__(self, costs: CostModel, clock: SimClock | None = None) -> None:
        self.costs = costs
        self.clock = clock if clock is not None else SimClock()
        self.updates = 0

    def pt_update(self, entries: int) -> float:
        self.updates += entries
        cost = entries * self.costs.fork_per_pt_page_ns
        self.clock.advance(cost)
        return cost


class HypercallMmu:
    """Page-table updates validated by the hypervisor (PV / X-Kernel)."""

    def __init__(
        self,
        costs: CostModel,
        clock: SimClock | None = None,
        mmu_update=None,
    ) -> None:
        self.costs = costs
        self.clock = clock if clock is not None else SimClock()
        #: Optional hook into an :class:`repro.core.xkernel.XKernel` so its
        #: hypercall counters see these updates too.
        self._mmu_update = mmu_update
        self.updates = 0

    def pt_update(self, entries: int) -> float:
        self.updates += entries
        if self._mmu_update is not None:
            self._mmu_update(entries)
            return entries * self.costs.pt_update_hypercall_ns
        cost = entries * self.costs.pt_update_hypercall_ns
        self.clock.advance(cost)
        return cost


@dataclass
class KernelStats:
    forks: int = 0
    execs: int = 0
    exits: int = 0
    syscalls: int = 0


class GuestKernel:
    """A Linux-like kernel instance."""

    def __init__(
        self,
        config: KernelConfig | None = None,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        mmu: MmuBackend | None = None,
        net_device: NetDevice = NetDevice.BRIDGE,
    ) -> None:
        self.config = config or KernelConfig()
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        self.mmu = mmu or NativeMmu(self.costs, self.clock)
        self.vfs = RamFS()
        self.modules = ModuleRegistry(allowed=self.config.modules_allowed)
        self.netstack = NetStack(self.costs, self.config, net_device)
        self.runqueue = RunQueue(
            self.costs,
            kpti=self.config.kpti,
            global_kernel_mappings=self.config.single_concern_tuned,
            mmu_hypercall_ns=(
                # CR3 install + validated PT update both go through the
                # hypervisor (§5.4).
                self.costs.pt_update_hypercall_ns + self.costs.hypercall_ns
                if isinstance(self.mmu, HypercallMmu)
                else 0.0
            ),
        )
        self.stats = KernelStats()
        self._procs: dict[int, Process] = {}
        self._next_pid = 1
        self._next_asid = 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def process(self, pid: int) -> Process:
        proc = self._procs.get(pid)
        if proc is None:
            raise KeyError(f"no such process {pid}")
        return proc

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, name: str, pt_pages: int | None = None) -> Process:
        """Create an initial process (what the bootloader does, §4.5)."""
        aspace = AddressSpace(
            self._next_asid,
            pt_pages if pt_pages is not None else self.costs.default_pt_pages,
            kernel_global_mappings=self.config.single_concern_tuned,
        )
        self._next_asid += 1
        proc = Process(self._next_pid, 0, name, aspace)
        self._next_pid += 1
        self._procs[proc.pid] = proc
        self.runqueue.add(proc)
        return proc

    def fork(self, parent_pid: int) -> Process:
        """fork(2): COW-clone the parent."""
        parent = self.process(parent_pid)
        self.stats.forks += 1
        # The generic kernel work of fork scales with the kernel's tuning;
        # the page-table component below does not (it is mechanical).
        self.clock.advance(
            self.costs.fork_base_ns * self.config.kernel_work_factor()
        )
        self.mmu.pt_update(parent.aspace.pt_pages)
        child_aspace = parent.aspace.cow_clone(self._next_asid)
        self._next_asid += 1
        child = Process(
            self._next_pid, parent.pid, parent.name, child_aspace,
            umask=parent.umask, uid=parent.uid,
        )
        self._next_pid += 1
        # fd table is shared by reference semantics of dup-on-fork.
        child.fds = dict(parent.fds)
        parent.children.append(child.pid)
        self._procs[child.pid] = child
        self.runqueue.add(child)
        return child

    def execve(self, pid: int, name: str) -> None:
        """execve(2): overlay a new image (the Execl benchmark, Fig 5)."""
        proc = self.process(pid)
        self.stats.execs += 1
        self.clock.advance(
            self.costs.exec_base_ns * self.config.kernel_work_factor()
        )
        # Tear down and rebuild the address space.
        self.mmu.pt_update(proc.aspace.pt_pages)
        proc.name = name
        proc.aspace = AddressSpace(
            self._next_asid,
            self.costs.default_pt_pages,
            kernel_global_mappings=self.config.single_concern_tuned,
        )
        self._next_asid += 1

    def exit(self, pid: int, code: int = 0) -> None:
        proc = self.process(pid)
        self.stats.exits += 1
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        self.mmu.pt_update(proc.aspace.pt_pages // 2)

    def waitpid(self, parent_pid: int, child_pid: int) -> int:
        parent = self.process(parent_pid)
        child = self.process(child_pid)
        if child.ppid != parent.pid:
            raise VfsError(errno.ECHILD)
        if child.state is not ProcessState.ZOMBIE:
            raise VfsError(errno.EAGAIN)
        code = child.exit_code or 0
        self.runqueue.remove(child)
        del self._procs[child.pid]
        parent.children.remove(child.pid)
        return code

    def context_switch(self) -> float:
        """One process context switch on this kernel's runqueue."""
        return self.runqueue.context_switch(self.clock)

    # ------------------------------------------------------------------
    # File & pipe syscalls (Python-level)
    # ------------------------------------------------------------------
    def open(self, pid: int, path: str, flags: int = O_RDONLY) -> int:
        proc = self.process(pid)
        self.clock.advance(self.costs.vfs_op_ns)
        handle = self.vfs.open(path, flags, umask=proc.umask)
        return proc.install_fd(handle)

    def read(self, pid: int, fd: int, count: int) -> bytes:
        proc = self.process(pid)
        obj = self._fd(proc, fd)
        if isinstance(obj, OpenFile):
            data = self.vfs.read(obj, count)
        elif isinstance(obj, PipeEnd):
            if obj.writable:
                raise VfsError(errno.EBADF)
            data = obj.pipe.read(count)
            self.clock.advance(self.costs.pipe_op_ns)
        else:
            raise VfsError(errno.EBADF)
        self.clock.advance(len(data) * self.costs.copy_per_byte_ns)
        return data

    def write(self, pid: int, fd: int, data: bytes) -> int:
        proc = self.process(pid)
        obj = self._fd(proc, fd)
        if isinstance(obj, OpenFile):
            written = self.vfs.write(obj, data)
        elif isinstance(obj, PipeEnd):
            if not obj.writable:
                raise VfsError(errno.EBADF)
            written = obj.pipe.write(data)
            self.clock.advance(self.costs.pipe_op_ns)
        else:
            raise VfsError(errno.EBADF)
        self.clock.advance(written * self.costs.copy_per_byte_ns)
        return written

    def close(self, pid: int, fd: int) -> None:
        if self.process(pid).fds.pop(fd, None) is None:
            raise VfsError(errno.EBADF)

    def dup(self, pid: int, fd: int) -> int:
        proc = self.process(pid)
        obj = self._fd(proc, fd)
        return proc.install_fd(obj)

    def pipe(self, pid: int) -> tuple[int, int]:
        proc = self.process(pid)
        self.clock.advance(self.costs.vfs_op_ns)
        pipe = Pipe()
        rfd = proc.install_fd(PipeEnd(pipe, writable=False))
        wfd = proc.install_fd(PipeEnd(pipe, writable=True))
        return rfd, wfd

    def umask(self, pid: int, mask: int) -> int:
        proc = self.process(pid)
        old = proc.umask
        proc.umask = mask & 0o777
        return old

    @staticmethod
    def _fd(proc: Process, fd: int):
        obj = proc.fds.get(fd)
        if obj is None:
            raise VfsError(errno.EBADF)
        return obj

    # ------------------------------------------------------------------
    # Emulator services interface (SyscallServices)
    # ------------------------------------------------------------------
    def invoke(self, nr: int, cpu) -> int:
        """Serve a syscall issued by machine code on the interpreter.

        Arguments follow the x86-64 ABI: rdi, rsi, rdx.  Unknown syscall
        numbers are accepted as accounted no-ops so synthetic per-app
        traces (Table 1) can use realistic number mixes.

        Every executed syscall comes through here, so the hot numbers
        read the register list directly, and a bad fd in ``dup`` or
        ``close`` returns ``-EBADF`` without raising :class:`VfsError`.
        """
        self.stats.syscalls += 1
        regs = cpu.regs if cpu is not None else None
        R = regs._regs if regs is not None else None
        procs = self._procs
        pid = next(iter(procs)) if procs else self._spawn_emulator_process()
        if nr == _NR_DUP or nr == _NR_CLOSE:
            fd = R[7] if R is not None else 0
            if fd not in procs[pid].fds:
                return -errno.EBADF
            if nr == _NR_DUP:
                return self.dup(pid, fd)
            self.close(pid, fd)
            return 0
        if nr == _NR_GETPID:
            return pid
        if nr == _NR_GETUID:
            return procs[pid].uid
        if nr == _NR_UMASK:
            return self.umask(pid, R[7] if R is not None else 0o22)
        try:
            if nr == SYS["exit"]:
                if cpu is not None:
                    cpu.halted = True
                return regs.read64(7) if regs else 0
            if nr == SYS["rt_sigreturn"]:
                # Signals are not modelled, so no handler frame is ever
                # live: a bare sigreturn returns 0 and charges nothing.
                return 0
            if nr == SYS["fork"]:
                return self.fork(pid).pid
            if nr == SYS["pipe"]:
                rfd, wfd = self.pipe(pid)
                return rfd | (wfd << 32)
            if nr == SYS["read"] and regs is not None:
                fd = regs.read64(7)
                buf = regs.read64(6)
                count = regs.read64(2)
                data = self.read(pid, fd, min(count, 1 << 20))
                if data:
                    cpu.mem.write(buf, data)
                return len(data)
            if nr == SYS["write"] and regs is not None:
                fd = regs.read64(7)
                buf = regs.read64(6)
                count = regs.read64(2)
                data = cpu.mem.read(buf, min(count, 1 << 20))
                return self.write(pid, fd, data)
            if nr == SYS["open"] and regs is not None:
                # The path is a NUL-terminated string in guest memory.
                addr = regs.read64(7)
                path = bytearray()
                for offset in range(256):
                    byte = cpu.mem.read(addr + offset, 1)
                    if byte == b"\x00":
                        break
                    path += byte
                name = path.decode("ascii", errors="replace")
                return self.open(pid, name, regs.read64(6))
        except VfsError as exc:
            return -exc.errno
        # Accounted no-op for anything else.
        self.clock.advance(self.costs.vfs_op_ns * 0.2)
        return 0

    def _spawn_emulator_process(self) -> int:
        """Create the process machine code runs as (on the first
        syscall into a kernel with no process)."""
        proc = self.spawn("emulated")
        # stdin/stdout/stderr stand-ins so dup(0)/close() work.
        stdio = self.vfs.open("/dev/null", O_RDONLY | O_CREAT)
        proc.fds[0] = stdio
        proc.fds[1] = stdio
        proc.fds[2] = stdio
        return proc.pid
