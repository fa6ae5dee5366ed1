"""The X-Container runtime object.

An :class:`XContainer` bundles one address space, one X-LibOS, a virtual
CPU, and the shared X-Kernel, and can load and run program binaries on the
interpreter.  It is the executable heart of the platform: the ABOM
evaluation (Table 1) and the syscall microbenchmarks (Fig 4) run real
machine code through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.binary import Binary
from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory, PageFlags
from repro.core.xkernel import XKernel
from repro.core.xlibos import SyscallServices, XLibOS
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel

#: Default user stack placement (top of the lower half).
STACK_TOP = 0x7FFF_FFFF_F000
STACK_SIZE = 64 * 1024
#: Gap between per-vCPU stacks.
STACK_STRIDE = 2 * 1024 * 1024


@dataclass
class RunResult:
    """Outcome of executing a binary inside the container."""

    instructions: int
    elapsed_ns: float
    exit_rax: int


class XContainer:
    """One container: address space + X-LibOS + vCPU over the X-Kernel."""

    def __init__(
        self,
        services: SyscallServices,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        abom_enabled: bool = True,
        name: str = "xc0",
        vcpus: int = 1,
        memory_mb: int = 128,
        icache: bool = True,
        tracecache: bool = True,
        faults=None,
        telemetry: bool = True,
        sanitizers=None,
    ) -> None:
        self.name = name
        self.vcpus = vcpus
        self.memory_mb = memory_mb
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        self.memory = PagedMemory()
        self.icache_enabled = icache
        self.tracecache_enabled = tracecache
        #: Optional :class:`repro.faults.plan.FaultEngine` (chaos runs).
        self.faults = faults
        self.xkernel = XKernel(
            self.memory,
            self.costs,
            self.clock,
            abom_enabled=abom_enabled,
            faults=faults,
        )
        self.libos = XLibOS(self.memory, services, self.costs, self.clock)
        self.cpu = CPU(
            self.memory,
            self.clock,
            instruction_ns=self.costs.instruction_ns,
            icache=icache,
            tracecache=tracecache,
        )
        self.cpus: list[CPU] = [self.cpu]
        self.xkernel.attach(self.cpu, self.libos)
        self._setup_stack(self.cpu, index=0)
        #: name -> split driver (SplitNetDriver / SplitBlockDriver) whose
        #: ring counters :meth:`telemetry` surfaces.
        self._io_drivers: dict[str, object] = {}
        #: Lazily-built :class:`repro.obs.Telemetry` (see :meth:`telemetry`).
        self._telemetry = None
        self._telemetry_enabled = telemetry
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`.
        self.sanitizers = None
        if sanitizers is not None:
            self.attach_sanitizers(sanitizers)

    def attach_sanitizers(self, suite) -> None:
        """Wire a :class:`repro.sanitize.suite.SanitizerSuite` into this
        container: memory write/LOCK observers plus per-vCPU exec hooks.
        The suite sees every vCPU under the ``<name>/vcpuN`` actor."""
        self.sanitizers = suite
        suite.attach_memory(self.memory)
        for index, cpu in enumerate(self.cpus):
            cpu.sanitizer = suite
            cpu.actor = f"{self.name}/vcpu{index}"

    def _setup_stack(self, cpu: CPU, index: int) -> None:
        top = STACK_TOP - index * STACK_STRIDE
        self.memory.map_region(
            top - STACK_SIZE,
            STACK_SIZE,
            PageFlags.USER | PageFlags.WRITABLE,
        )
        cpu.regs.rsp = top - 256

    # ------------------------------------------------------------------
    # Multicore processing (§4.3): extra vCPUs share the address space,
    # the LibOS entry stubs, and the X-Kernel trap handlers.
    # ------------------------------------------------------------------
    def add_vcpu(self) -> CPU:
        """Bring up another vCPU in this container."""
        cpu = CPU(
            self.memory,
            self.clock,
            instruction_ns=self.costs.instruction_ns,
            icache=self.icache_enabled,
            tracecache=self.tracecache_enabled,
        )
        if cpu._tracecache is not None:
            cpu._tracecache.tracer = self.xkernel.tracer
        self.xkernel.attach(cpu, self.libos)
        self._setup_stack(cpu, index=len(self.cpus))
        if self.sanitizers is not None:
            cpu.sanitizer = self.sanitizers
            cpu.actor = f"{self.name}/vcpu{len(self.cpus)}"
        self.cpus.append(cpu)
        if len(self.cpus) > self.vcpus:
            self.vcpus = len(self.cpus)
        if self._telemetry is not None:
            from repro.obs import wire

            wire.wire_cpu(
                self._telemetry.registry, cpu, index=len(self.cpus) - 1
            )
        return cpu

    def run_concurrent(
        self,
        programs: list[tuple[CPU, int]],
        quantum: int = 16,
        max_instructions: int = 50_000_000,
    ) -> int:
        """Interleave execution of ``(cpu, entry)`` pairs round-robin.

        Models multiple vCPUs of one container executing concurrently on
        shared text — the situation ABOM's atomic patching must survive
        (§4.4).  Returns total instructions retired.
        """
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1: {quantum}")
        for cpu, entry in programs:
            cpu.halted = False
            cpu.regs.rip = entry
        retired = 0
        live = [cpu for cpu, _ in programs]
        sanitizers = self.sanitizers
        while live and retired < max_instructions:
            for cpu in list(live):
                if sanitizers is not None:
                    # Memory-observer accesses during this quantum belong
                    # to this vCPU.
                    sanitizers.current_actor = cpu.actor
                for _ in range(quantum):
                    if cpu.halted:
                        break
                    cpu.step()
                    retired += 1
                if cpu.halted:
                    live.remove(cpu)
        if live:
            raise RuntimeError(
                f"instruction budget exhausted ({max_instructions})"
            )
        return retired

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def load(self, binary: Binary) -> None:
        binary.load(self.memory)

    def run(self, binary: Binary, max_instructions: int = 50_000_000) -> RunResult:
        """Load and run ``binary`` to completion (hlt or exit)."""
        self.load(binary)
        return self.run_loaded(binary.entry, max_instructions)

    def run_loaded(
        self, entry: int, max_instructions: int = 50_000_000
    ) -> RunResult:
        """Run already-loaded code starting at ``entry``."""
        self.cpu.halted = False
        self.cpu.regs.rip = entry
        if self.sanitizers is not None:
            self.sanitizers.current_actor = self.cpu.actor
        start_ns = self.clock.now_ns
        retired = self.cpu.run(max_instructions)
        return RunResult(
            instructions=retired,
            elapsed_ns=self.clock.now_ns - start_ns,
            exit_rax=self.cpu.regs.rax,
        )

    def attach_tracer(self, tracer) -> None:
        """Point the X-Kernel, ABOM, X-LibOS, every vCPU's trace cache and
        (when attached) the fault engine at one
        :class:`repro.obs.TraceRecorder`; each emits instant events."""
        self.xkernel.tracer = tracer
        self.xkernel.abom.tracer = tracer
        self.libos.tracer = tracer
        for cpu in self.cpus:
            if cpu._tracecache is not None:
                cpu._tracecache.tracer = tracer
        if self.faults is not None:
            self.faults.tracer = tracer

    def step(self, count: int = 1) -> int:
        """Execute up to ``count`` instructions; returns how many ran."""
        executed = 0
        if self.sanitizers is not None:
            self.sanitizers.current_actor = self.cpu.actor
        while executed < count and not self.cpu.halted:
            self.cpu.step()
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Checkpoint / restore (§3.3: "mature technologies in Xen's
    # ecosystem ... checkpoint/restore, which are hard to implement with
    # traditional containers")
    # ------------------------------------------------------------------
    def checkpoint(self, name: str = "ckpt"):
        """Snapshot this container's memory and vCPU state."""
        from repro.xen.migration import checkpoint_memory

        registers = self.cpu.regs.snapshot()
        registers["__zf"] = int(self.cpu.regs.zf)
        registers["__sf"] = int(self.cpu.regs.sf)
        registers["__cf"] = int(self.cpu.regs.cf)
        registers["__halted"] = int(self.cpu.halted)
        return checkpoint_memory(self.memory, registers, name)

    @classmethod
    def restore(
        cls,
        checkpoint,
        services: SyscallServices,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        abom_enabled: bool = True,
        name: str | None = None,
    ) -> "XContainer":
        """Materialize a container from a checkpoint and let it resume.

        The restored instance shares nothing with the original: fresh
        memory pages, fresh vCPU — only the checkpointed bytes carry over
        (including any ABOM patches already applied to the text).
        """
        from repro.arch.memory import PageFlags, _Page
        from repro.arch.registers import Reg as _Reg

        xc = cls(
            services,
            costs,
            clock,
            abom_enabled=abom_enabled,
            name=name or f"{checkpoint.name}-restored",
        )
        xc.memory._pages.clear()
        for index, data in checkpoint.pages.items():
            page = _Page(PageFlags(checkpoint.page_flags[index]))
            page.data = bytearray(data)
            xc.memory._pages[index] = page
        xc.memory.wp_enabled = checkpoint.wp_enabled
        regs = checkpoint.registers
        for reg in _Reg:
            xc.cpu.regs.write64(reg, regs[reg.name.lower()])
        xc.cpu.regs.rip = regs["rip"]
        xc.cpu.regs.zf = bool(regs.get("__zf", 0))
        xc.cpu.regs.sf = bool(regs.get("__sf", 0))
        xc.cpu.regs.cf = bool(regs.get("__cf", 0))
        xc.cpu.halted = bool(regs.get("__halted", 0))
        return xc

    def resume(self, max_instructions: int = 50_000_000) -> RunResult:
        """Continue execution from the current (restored) state."""
        if self.sanitizers is not None:
            self.sanitizers.current_actor = self.cpu.actor
        start_ns = self.clock.now_ns
        retired = self.cpu.run(max_instructions)
        return RunResult(
            instructions=retired,
            elapsed_ns=self.clock.now_ns - start_ns,
            exit_rax=self.cpu.regs.rax,
        )

    # ------------------------------------------------------------------
    # Introspection used by the experiments
    # ------------------------------------------------------------------
    @property
    def abom_stats(self):
        return self.xkernel.abom.stats

    @property
    def libos_stats(self):
        return self.libos.stats

    def telemetry(self):
        """This container's :class:`repro.obs.Telemetry` facade.

        One registry behind every counter: icache, X-Kernel traps and
        hypercalls, ABOM patch phases, LibOS syscall paths, attached
        split-driver rings, and (when a fault engine is attached) the
        fault-injection lifecycle.  Built lazily on first call — all
        bindings read the substrate structs at collection time, so
        enabling telemetry never changes simulated bytes or costs.
        """
        if not self._telemetry_enabled:
            raise RuntimeError(
                f"telemetry disabled for container {self.name!r} "
                f"(constructed with telemetry=False)"
            )
        if self._telemetry is None:
            from repro.obs import wire
            from repro.obs.facade import Telemetry

            tel = Telemetry(clock=self.clock, domain=self.name)
            registry = tel.registry
            for index, cpu in enumerate(self.cpus):
                wire.wire_cpu(registry, cpu, index=index)
            wire.wire_xkernel(registry, self.xkernel)
            wire.wire_abom(registry, self.xkernel.abom)
            wire.wire_libos(registry, self.libos)
            if self.faults is not None:
                wire.wire_faults(registry, self.faults)
            for name, driver in self._io_drivers.items():
                wire.wire_ring_driver(registry, name, driver)
            self._telemetry = tel
        return self._telemetry

    def attach_io_driver(self, name: str, driver) -> None:
        """Register a split I/O driver so its ring counters surface in
        :meth:`telemetry` (``xen_ring_*`` metrics, ``driver`` label).

        ``driver`` is anything whose ``stats`` has an ``as_dict()`` —
        :class:`~repro.xen.drivers.SplitNetDriver` and
        :class:`~repro.xen.blkdev.SplitBlockDriver` both qualify.
        """
        if name in self._io_drivers:
            raise ValueError(f"I/O driver {name!r} already attached")
        self._io_drivers[name] = driver
        if self._telemetry is not None:
            from repro.obs import wire

            wire.wire_ring_driver(self._telemetry.registry, name, driver)

    def syscall_reduction(self) -> float:
        """Fraction of syscall invocations served without a kernel crossing.

        This is the Table 1 metric: with ABOM enabled, the counter in the
        X-Kernel sees only the unconverted invocations.
        """
        total = self.libos.stats.total_syscalls
        if total == 0:
            return 0.0
        return self.libos.stats.lightweight_syscalls / total
