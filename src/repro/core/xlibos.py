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
from repro.arch.memory import PAGE_SHIFT, PAGE_SIZE, PagedMemory
from repro.arch.registers import MASK64
from repro.core.vsyscall import VsyscallPage
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


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
        self.clock = clock if clock is not None else SimClock()
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
        top of the stack.  Every converted syscall runs this, so it works
        on the register list and finds the dead tail with one page lookup
        (a tail that spans a page boundary takes the general check).
        """
        self.clock.advance(self.costs.xc_func_call_syscall_ns)
        if self.tracer is not None:
            self.tracer.emit("syscall", "lightweight", nr=nr)
        regs = cpu.regs
        R = regs._regs
        ret_addr = cpu.mem.read_u64(R[4])
        R[0] = self.services.invoke(nr, cpu) & MASK64
        # §4.4: skip a trailing ``syscall`` or ``jmp -9`` after the call.
        # Both are left behind by the 9-byte patch (phase 1 leaves the
        # original ``syscall``, phase 2 a ``jmp`` back to the call), and
        # either would re-issue the syscall if returned to.
        page = self.memory._pages.get(ret_addr >> PAGE_SHIFT)
        offset = ret_addr & (PAGE_SIZE - 1)
        if page is not None and offset < PAGE_SIZE - 1:
            data = page.data
            first, second = data[offset], data[offset + 1]
        elif page is not None and self.memory.is_mapped(ret_addr + 1):
            first, second = self.memory.read(ret_addr, 2)  # spans two pages
        else:
            first = second = None
        # ``0f 05`` is the dead ``syscall``, ``eb f7`` the ``jmp -9``.
        if (first == 0x0F and second == 0x05) or (
            first == 0xEB and second == 0xF7
        ):
            self.stats.return_address_skips += 1
            ret_addr += 2
        R[4] = (R[4] + 8) & MASK64
        regs.rip = ret_addr
        self.stats.lightweight_syscalls += 1

    def forwarded_entry(self, cpu: CPU, syscall_addr: int) -> None:
        """Handle a trapped ``syscall`` handed over by the X-Kernel."""
        nr = cpu.regs.rax & 0xFFFFFFFF
        result = self.services.invoke(nr, cpu)
        cpu.regs.rax = result
        cpu.regs.rip = syscall_addr + 2
        self.stats.forwarded_syscalls += 1
