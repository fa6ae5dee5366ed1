"""X-LibOS — the guest Linux kernel turned library OS (§4.2–4.4).

The X-LibOS is mapped into the top half of every process's address space at
the same privilege level as user code.  System calls reach it two ways:

* **lightweight path** — patched binaries ``callq`` through the vsyscall
  entry table straight into a LibOS entry stub (:meth:`XLibOS.
  lightweight_entry`); no kernel crossing at all;
* **forwarded path** — unpatched ``syscall`` instructions trap into the
  X-Kernel, which immediately transfers control to
  :meth:`XLibOS.forwarded_entry` (same address space, no page-table switch).

The lightweight entry implements the 9-byte-patch contract from §4.4: if the
instruction at the return address is the original (now dead) ``syscall`` or
the ``jmp`` that phase 2 put in its place, the return address is advanced
past it.

Actual syscall *semantics* are delegated to a pluggable services backend —
the full guest kernel (:class:`repro.guest.kernel.GuestKernel`) in the real
platform, or :class:`CountingServices` in unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory
from repro.core.vsyscall import VsyscallPage
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

_SYSCALL = b"\x0f\x05"
_JMP_BACK = b"\xeb\xf7"


class SyscallServices(Protocol):
    """What the X-LibOS needs from its kernel-services backend."""

    def invoke(self, nr: int, cpu: CPU) -> int:
        """Execute syscall ``nr`` for the caller and return its result."""


@dataclass
class CountingServices:
    """Test/benchmark backend: counts invocations, returns canned results."""

    results: dict[int, int] = field(default_factory=dict)
    default_result: int = 0
    calls: list[int] = field(default_factory=list)

    def invoke(self, nr: int, cpu: CPU) -> int:
        self.calls.append(nr)
        return self.results.get(nr, self.default_result)

    def count(self, nr: int) -> int:
        return sum(1 for call in self.calls if call == nr)


@dataclass
class LibOsStats:
    lightweight_syscalls: int = 0
    forwarded_syscalls: int = 0
    return_address_skips: int = 0
    user_mode_irets: int = 0
    events_delivered: int = 0

    @property
    def total_syscalls(self) -> int:
        return self.lightweight_syscalls + self.forwarded_syscalls


class XLibOS:
    """The library OS half of the X-Containers platform."""

    def __init__(
        self,
        memory: PagedMemory,
        services: SyscallServices,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.memory = memory
        self.services = services
        self.costs = costs or CostModel()
        self.clock = clock
        self.stats = LibOsStats()
        self.vsyscall = VsyscallPage(memory)
        self.vsyscall.install()
        #: Optional :class:`repro.obs.TraceRecorder` (instant events).
        self.tracer = None

    def attach(self, cpu: CPU) -> None:
        """Register this LibOS's entry stubs on ``cpu``."""
        self.vsyscall.attach(cpu, self.lightweight_entry)

    # ------------------------------------------------------------------
    # Syscall entries
    # ------------------------------------------------------------------
    def lightweight_entry(self, cpu: CPU, nr: int) -> None:
        """Handle a function-call syscall arriving via the entry table.

        On entry the return address pushed by the patched ``call`` is on
        top of the stack.
        """
        self._charge(self.costs.xc_func_call_syscall_ns)
        if self.tracer is not None:
            self.tracer.emit("syscall", "lightweight", nr=nr)
        ret_addr = cpu.mem.read_u64(cpu.regs.rsp)
        result = self.services.invoke(nr, cpu)
        cpu.regs.rax = result
        ret_addr = self._maybe_skip_dead_instruction(ret_addr)
        cpu.regs.rsp += 8
        cpu.regs.rip = ret_addr
        self.stats.lightweight_syscalls += 1

    def forwarded_entry(self, cpu: CPU, syscall_addr: int) -> None:
        """Handle a trapped ``syscall`` handed over by the X-Kernel."""
        nr = cpu.regs.rax & 0xFFFFFFFF
        result = self.services.invoke(nr, cpu)
        cpu.regs.rax = result
        cpu.regs.rip = syscall_addr + 2
        self.stats.forwarded_syscalls += 1

    def _maybe_skip_dead_instruction(self, ret_addr: int) -> int:
        """§4.4: skip a trailing ``syscall`` or ``jmp -9`` after the call.

        Both shapes are left behind by the 9-byte patch: phase 1 leaves the
        original ``syscall``; phase 2 turns it into a ``jmp`` back to the
        call.  Either would re-issue the syscall if returned to.
        """
        if not (
            self.memory.is_mapped(ret_addr)
            and self.memory.is_mapped(ret_addr + 1)
        ):
            return ret_addr
        tail = self.memory.read(ret_addr, 2)
        if tail == _SYSCALL or tail == _JMP_BACK:
            self.stats.return_address_skips += 1
            return ret_addr + 2
        return ret_addr

    # ------------------------------------------------------------------
    # User-mode iret / event delivery (§4.2)
    # ------------------------------------------------------------------
    def user_mode_iret(self, cpu: CPU, frame: dict[str, int]) -> None:
        """Return from an interrupt handler without a hypercall.

        Implements the §4.2 technique: the saved context is staged on the
        kernel stack and resumed with an ordinary ``ret`` — here the frame
        is applied directly, but the cost charged is the user-mode variant
        (a handful of pushes plus a ret) rather than Xen's iret hypercall.
        """
        cpu.regs.rip = frame["rip"]
        cpu.regs.rsp = frame["rsp"]
        if "rax" in frame:
            cpu.regs.rax = frame["rax"]
        self.stats.user_mode_irets += 1
        # ~8 register pushes/pops and a ret instead of a hypercall.
        self._charge(10 * self.costs.instruction_ns)

    def deliver_pending_events(self, pending: list) -> int:
        """Emulate the interrupt stack frame and run handlers directly.

        In stock Xen PV the guest issues a hypercall to have pending events
        delivered; the X-LibOS jumps straight into its handlers (§4.2).
        Each ``pending`` item is a zero-argument callable.
        """
        for handler in pending:
            handler()
            self.stats.events_delivered += 1
        return len(pending)

    def _charge(self, ns: float) -> None:
        if self.clock is not None:
            self.clock.advance(ns)
