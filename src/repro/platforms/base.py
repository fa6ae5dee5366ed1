"""Platform abstraction: one model per container runtime under test.

A :class:`Platform` answers, for its runtime, the cost questions every
experiment asks:

* what does one syscall cost (the heart of Fig 4)?
* how is per-request *kernel work* scaled (shared vs dedicated/tuned vs
  reimplemented kernels, §3.2)?
* what does the network path add per request (bridge vs split driver vs
  user-space netstack vs nested virtio, plus DNAT port forwarding)?
* what do context switches and process lifecycle ops cost (Fig 5)?
* can it load kernel modules / run multiple processes (Figs 6 and 9)?

Platforms also build an *emulated runtime* — a CPU interpreter wired with
the platform's trap costs — so the syscall microbenchmarks execute real
machine code down the real paths.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.arch.binary import Binary
from repro.arch.cpu import CPU, Trap, TrapKind
from repro.arch.memory import PagedMemory, PageFlags
from repro.arch.registers import MASK64
from repro.guest.kernel import GuestKernel
from repro.guest.netstack import NetDevice, NetStack
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


@dataclass
class EmulatedRun:
    instructions: int
    elapsed_ns: float
    syscalls: int


class Platform(abc.ABC):
    """Base class for all runtime models."""

    #: Human-readable runtime name ("Docker", "X-Container", ...).
    name: str = "platform"
    #: Whether multiple processes can run concurrently (§2.3: gVisor/UML
    #: spawn processes but cannot run them concurrently; Unikernel cannot
    #: spawn at all).
    multicore_processing: bool = True
    max_processes: int | None = None
    supports_kernel_modules: bool = False
    #: Platforms needing nested hardware virtualization (Clear Containers)
    #: cannot run on EC2 (§1, §5.1).
    needs_nested_hw_virt: bool = False

    def __init__(
        self,
        costs: CostModel | None = None,
        patched: bool = True,
    ) -> None:
        self.costs = costs or CostModel()
        #: Meltdown patch state of the *relevant* kernel (§5.1 runs every
        #: configuration patched and -unpatched).
        self.patched = patched

    # ------------------------------------------------------------------
    # Cost questions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def syscall_cost_ns(self) -> float:
        """CPU cost of one syscall on this runtime's syscall path."""

    @abc.abstractmethod
    def kernel_work_factor(self) -> float:
        """Multiplier applied to a workload's per-request kernel work."""

    @abc.abstractmethod
    def net_device(self) -> NetDevice:
        """How server packets traverse into this runtime."""

    def make_netstack(self, kernel: GuestKernel | None = None) -> NetStack:
        from repro.guest.config import KernelConfig

        config = kernel.config if kernel else KernelConfig.host_default()
        return NetStack(self.costs, config, self.net_device())

    def net_request_extra_ns(self) -> float:
        """Forwarding cost outside the serving kernel (DNAT in the host /
        Domain-0, §5.3)."""
        return self.costs.iptables_dnat_ns

    def ctx_switch_cost_ns(self, nr_running: int = 2) -> float:
        """Process context switch on this runtime."""
        kernel = self.make_kernel()
        return kernel.runqueue.switch_cost_ns(nr_running)

    @abc.abstractmethod
    def make_kernel(self, clock: SimClock | None = None) -> GuestKernel:
        """A kernel instance configured the way this runtime configures it."""

    # ------------------------------------------------------------------
    # Emulated execution (Fig 4 and Table 1 run real machine code)
    # ------------------------------------------------------------------
    def run_binary(
        self, binary: Binary, clock: SimClock | None = None
    ) -> EmulatedRun:
        """Execute ``binary`` with this platform's syscall path."""
        clock = clock if clock is not None else SimClock()
        kernel = self.make_kernel(clock)
        memory = PagedMemory()
        binary.load(memory)
        memory.map_region(
            0x7FF000, 0x10000, PageFlags.USER | PageFlags.WRITABLE
        )
        cpu = CPU(memory, clock, self.costs.instruction_ns)
        cpu.regs.rip = binary.entry
        cpu.regs.rsp = 0x7FF000 + 0x10000 - 256
        syscalls = 0
        per_syscall = self.syscall_cost_ns()
        regs = cpu.regs
        R = regs._regs

        def handler(cpu: CPU, trap: Trap) -> None:
            nonlocal syscalls
            if trap.kind is not TrapKind.SYSCALL:
                raise trap
            syscalls += 1
            clock.advance(per_syscall)
            R[0] = kernel.invoke(R[0] & 0xFFFFFFFF, cpu) & MASK64
            regs.rip = trap.rip + 2

        cpu.trap_handler = handler
        start = clock.now_ns
        retired = cpu.run()
        return EmulatedRun(retired, clock.now_ns - start, syscalls)
