"""Trace cache: compilation, guards, fuel, invalidation, toggles.

The trace cache must be invisible except for speed: compiled superblocks
retire the same architectural state, counts, and faults as the
interpreter, and every guard failure re-enters the interpreter at the
architecturally exact RIP.  See ``docs/interpreter_performance.md``.
"""

import pytest

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.encoding import enc_call_abs_ind, enc_push_r64
from repro.arch.memory import PageFault, PageFlags
from repro.arch.tracecache import HOT_THRESHOLD, MIN_LINEAR_OPS

BASE = 0x400000
STACK_BASE = 0x7F0000


def fresh_cpu(binary, icache=True, tracecache=True, stack_pages=0x10000):
    mem = PagedMemory()
    binary.load(mem)
    mem.map_region(STACK_BASE, stack_pages, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem, icache=icache, tracecache=tracecache)
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + stack_pages - 256
    return cpu


def counting_loop(iterations):
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RAX, Reg.RAX)
    asm.label("loop")
    asm.inc(Reg.RAX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


def final_state(cpu):
    return (
        cpu.regs.rip,
        cpu.regs.snapshot(),
        (cpu.regs.zf, cpu.regs.sf, cpu.regs.cf),
        cpu.instructions_retired,
    )


class TestToggles:
    def test_disabled_by_constructor_flag(self):
        cpu = fresh_cpu(counting_loop(500), tracecache=False)
        cpu.run()
        assert cpu._tracecache is None
        assert cpu.trace_stats.compiles == 0
        assert cpu.regs.rax == 500

    def test_requires_icache(self):
        """The profiler lives in the icache hit path, so icache=False
        implies no trace cache even when requested."""
        cpu = fresh_cpu(counting_loop(100), icache=False, tracecache=True)
        cpu.run()
        assert cpu._tracecache is None
        assert cpu.regs.rax == 100

    def test_enabled_by_default(self):
        cpu = fresh_cpu(counting_loop(500))
        cpu.run()
        assert cpu.trace_stats.compiles >= 1
        assert cpu.trace_stats.executions >= 1
        assert cpu.regs.rax == 500

    def test_stats_always_present_and_integral(self):
        cpu = fresh_cpu(counting_loop(500))
        cpu.run()
        d = cpu.trace_stats.as_dict()
        assert set(d) == {
            "compiles",
            "aborts",
            "executions",
            "instructions",
            "guard_exits",
            "invalidations",
            "code_bytes",
        }
        assert all(isinstance(v, int) for v in d.values())


class TestCompilation:
    def test_loop_compiles_once_and_dominates(self):
        cpu = fresh_cpu(counting_loop(1000))
        cpu.run()
        stats = cpu.trace_stats
        assert stats.compiles == 1
        # Warmup is HOT_THRESHOLD loop iterations; everything after runs
        # inside the trace.
        assert stats.instructions >= (1000 - HOT_THRESHOLD - 1) * 3
        assert stats.code_bytes > 0

    def test_call_into_guest_code_ends_the_trace(self):
        """Only a ``call *slot`` into a native stub is followed; one into
        guest code ends the trace with an exit before the call."""
        slot = 0x7E0000
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, 100)
        asm.label("loop")
        for _ in range(MIN_LINEAR_OPS):
            asm.inc(Reg.RAX)
        asm.raw(enc_call_abs_ind(slot))
        asm.label("body")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        binary = asm.build()
        states = []
        for tracecache in (True, False):
            cpu = fresh_cpu(binary, tracecache=tracecache)
            cpu.mem.map_region(slot, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            cpu.mem.write_u64(slot, binary.symbols["body"])
            cpu.run()
            states.append(final_state(cpu))
            if tracecache:
                trace = cpu._tracecache.traces[binary.symbols["loop"]]
                assert not trace.loop
                assert trace.ops == MIN_LINEAR_OPS
                assert cpu.trace_stats.instructions > 0
        assert states[0] == states[1]
        assert states[0][1]["rax"] == 100 * MIN_LINEAR_OPS

    def test_short_linear_chain_aborts_once(self):
        asm = Assembler(base=BASE)
        asm.inc(Reg.RAX)
        asm.inc(Reg.RAX)
        asm.hlt()
        binary = asm.build()
        assert 3 < MIN_LINEAR_OPS
        cpu = fresh_cpu(binary)
        tc = cpu._tracecache
        tc.hot_threshold = 2
        for _ in range(6):
            cpu.halted = False
            cpu.regs.rip = binary.entry
            cpu.run()
        assert cpu.trace_stats.compiles == 0
        # Rejected once, blacklisted after: no per-entry recompile storms.
        assert cpu.trace_stats.aborts == 1
        assert tc.failed

    def test_code_memo_amortizes_identical_programs(self):
        from repro.arch import tracecache as m

        binary = counting_loop(300)
        first = fresh_cpu(binary)
        first.run()
        memo_size = len(m._CODE_MEMO)
        second = fresh_cpu(binary)
        second.run()
        # Same text, same generated source: compile() ran once.
        assert len(m._CODE_MEMO) == memo_size
        assert second.trace_stats.compiles == 1

    def test_one_generated_trace_serves_every_instruction_cost(
        self, monkeypatch
    ):
        """The per-instruction cost is bound in the trace's namespace,
        not written into its source: CPUs with different cost models
        share one generated trace, and each charges its own cost."""
        from repro.arch import tracecache as m

        monkeypatch.setattr(m, "_CODE_MEMO", {})
        generated = []
        generate = m._generate

        def counting(*args):
            generated.append(args[0])
            return generate(*args)

        monkeypatch.setattr(m, "_generate", counting)
        binary = counting_loop(300)
        charged = []
        for ns in (0.25, 0.5):
            mem = PagedMemory()
            binary.load(mem)
            cpu = CPU(mem, instruction_ns=ns)
            cpu.regs.rip = binary.entry
            cpu.run()
            assert cpu.trace_stats.compiles == 1
            # Binary fractions: every summation order is exact.
            charged.append(cpu.clock.now_ns / cpu.instructions_retired)
        assert len(generated) == 1
        assert charged == [0.25, 0.5]


class TestGuardsAndFuel:
    def test_loop_exit_lands_on_exact_rip(self):
        """The branch guard exits at the architectural successor: the
        instruction after the loop retires exactly once."""
        traced = fresh_cpu(counting_loop(300))
        traced.run()
        plain = fresh_cpu(counting_loop(300), tracecache=False)
        plain.run()
        assert final_state(traced) == final_state(plain)
        assert traced.trace_stats.guard_exits >= 1

    def test_budget_exhaustion_matches_interpreter(self):
        """run(max_instructions=N) retires exactly N in both modes: the
        trace's fuel accounting never overshoots the budget."""
        budget = 1000
        traced = fresh_cpu(counting_loop(5000))
        with pytest.raises(RuntimeError, match="budget"):
            traced.run(max_instructions=budget)
        plain = fresh_cpu(counting_loop(5000), tracecache=False)
        with pytest.raises(RuntimeError, match="budget"):
            plain.run(max_instructions=budget)
        assert traced.instructions_retired == budget
        assert plain.instructions_retired == budget
        assert final_state(traced) == final_state(plain)

    def test_zero_fuel_entry_returns_without_progress(self):
        cpu = fresh_cpu(counting_loop(300))
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        before = cpu.instructions_retired
        assert tc.execute(head, 0) == 0
        assert cpu.instructions_retired == before

    def test_partial_fuel_runs_bounded_iterations(self):
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        cpu.halted = False
        cpu.regs.rip = binary.entry
        cpu.regs.write64(Reg.RBX, 1 << 20)  # effectively endless loop
        cpu.regs.rip = head
        retired = tc.execute(head, 10)
        assert 0 < retired <= 10
        # The trace left RIP at its head: the interpreter (or the next
        # trace entry) can continue seamlessly.
        assert cpu.regs.rip == head

    def test_page_fault_inside_trace_matches_interpreter(self):
        """A store that faults mid-trace spills the exact pre-fault
        state: same RIP (the faulting op), same registers, same count."""

        def pusher(iterations):
            asm = Assembler(base=BASE)
            asm.mov_imm32(Reg.RBX, iterations)
            asm.label("loop")
            asm.raw(enc_push_r64(Reg.RBX))
            asm.dec(Reg.RBX)
            asm.jne("loop")
            asm.hlt()
            return asm.build()

        binary = pusher(5000)  # overruns the one mapped stack page
        results = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem)
            mem.map_region(STACK_BASE, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            cpu = CPU(mem, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x1000
            with pytest.raises(PageFault):
                cpu.run()
            results.append(final_state(cpu))
        assert results[0] == results[1]


class Boom(Exception):
    """Raised by a trap handler mid-trace."""


def syscall_loop(iterations):
    """A hot loop with a raw ``syscall``; ``away`` is an alternative
    resume point that rejoins the loop after the syscall."""
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RCX, Reg.RCX)
    asm.jmp("loop")
    asm.label("away")
    asm.inc(Reg.RDX)
    asm.jmp("after")
    asm.label("loop")
    asm.mov_imm32(Reg.RAX, 39)
    asm.raw_syscall()
    asm.label("after")
    asm.inc(Reg.RCX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestSyscallInTrace:
    """A ``syscall`` compiles into the trace as a call to the trap
    handler.  Whatever the handler does (resume after the syscall, halt,
    move RIP, raise, write the trace's own text), the trace leaves the
    state the interpreter leaves, and the handler sees the registers,
    flags, RIP, retired count and clock the interpreter shows it."""

    ITERATIONS = 120
    #: The 60th syscall: the loop has been running in its trace.
    LATE_CALL = 60

    def run_both(self, make_handler, binary=None):
        binary = binary or syscall_loop(self.ITERATIONS)
        outcomes = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem, writable_text=True)
            mem.map_region(STACK_BASE, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            # 0.5 ns sums exactly in any order, so the clock compares
            # exactly across the two modes.
            cpu = CPU(mem, instruction_ns=0.5, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x1000 - 256
            seen = []
            handle = make_handler(binary)

            def handler(cpu, trap, handle=handle, seen=seen):
                regs = cpu.regs
                seen.append((
                    trap.kind, trap.rip, regs.rip, regs.snapshot(),
                    (regs.zf, regs.sf, regs.cf),
                    cpu.instructions_retired, cpu.clock.now_ns,
                ))
                cpu.clock.advance(7.0)
                regs.rax = len(seen)
                regs.rip = trap.rip + 2
                handle(cpu, len(seen))

            cpu.trap_handler = handler
            raised = None
            try:
                # A trace that loses the loop counter spins until this
                # budget (about 8x the program) runs out.
                cpu.run(max_instructions=5_000)
            except Boom as exc:
                raised = str(exc)
            outcomes.append((
                final_state(cpu), cpu.halted, cpu.clock.now_ns, seen, raised
            ))
            if tracecache:
                traced = cpu
        assert outcomes[0] == outcomes[1]
        return traced, outcomes[0]

    def test_resume_after_syscall_stays_in_trace(self):
        cpu, (*_, seen, _) = self.run_both(lambda binary: lambda cpu, k: None)
        assert len(seen) == self.ITERATIONS
        assert cpu.regs.read64(Reg.RCX) == self.ITERATIONS
        # Everything after warm-up ran in one trace, syscalls included
        # (five instructions an iteration).
        stats = cpu.trace_stats
        assert stats.instructions >= (self.ITERATIONS - HOT_THRESHOLD - 1) * 5
        assert stats.guard_exits <= 2

    def test_syscall_at_the_loop_head(self):
        """The loop body starts with the ``syscall``: each iteration
        syncs the previous one's tail before the handler runs."""
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, self.ITERATIONS)
        # Enter the loop by a jump, so its head block is entered every
        # iteration and turns hot first.
        asm.jmp("loop")
        asm.label("loop")
        asm.raw_syscall()
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        binary = asm.build()
        cpu, (_, _, _, seen, _) = self.run_both(
            lambda binary: lambda cpu, k: None, binary
        )
        assert len(seen) == self.ITERATIONS
        assert binary.symbols["loop"] in cpu._tracecache.traces
        assert cpu.trace_stats.instructions >= (self.ITERATIONS - HOT_THRESHOLD - 1) * 3

    def test_handler_halts_cpu(self):
        def make(binary):
            def handle(cpu, k):
                if k == self.LATE_CALL:
                    cpu.halted = True

            return handle

        cpu, (_, halted, _, seen, _) = self.run_both(make)
        assert halted
        assert len(seen) == self.LATE_CALL
        assert cpu.trace_stats.instructions > 0

    def test_handler_moves_rip_elsewhere(self):
        def make(binary):
            away = binary.symbols["away"]

            def handle(cpu, k):
                if k % 7 == 0:
                    cpu.regs.rip = away

            return handle

        cpu, (_, _, _, seen, _) = self.run_both(make)
        assert len(seen) == self.ITERATIONS
        assert cpu.regs.read64(Reg.RDX) == self.ITERATIONS // 7
        assert cpu.trace_stats.guard_exits >= self.ITERATIONS // 7 - 10

    def test_handler_raises(self):
        def make(binary):
            def handle(cpu, k):
                if k == self.LATE_CALL:
                    raise Boom(f"call {k}")

            return handle

        cpu, (_, _, _, seen, raised) = self.run_both(make)
        assert raised == f"call {self.LATE_CALL}"
        assert len(seen) == self.LATE_CALL
        # The raise came out of a trace (which then counts no retired
        # instructions), with the syscall unretired in both modes.
        assert cpu.trace_stats.executions == 1
        assert cpu.trace_stats.instructions == 0

    def test_handler_writes_the_trace_text(self):
        """The handler rewrites ``inc rcx`` into ``inc rdx`` in the
        running trace's own page: the trace leaves through its liveness
        guard and the interpreter runs the new bytes."""

        def make(binary):
            after = binary.symbols["after"]

            def handle(cpu, k):
                if k == self.LATE_CALL:
                    cpu.mem.write(after, b"\x48\xff\xc2")

            return handle

        cpu, (_, _, _, seen, _) = self.run_both(make)
        assert len(seen) == self.ITERATIONS
        assert cpu.regs.read64(Reg.RCX) == self.LATE_CALL - 1
        assert cpu.regs.read64(Reg.RDX) == self.ITERATIONS - self.LATE_CALL + 1
        assert cpu.trace_stats.invalidations >= 1


class TestInvalidation:
    def test_store_to_trace_text_evicts_and_retraces(self):
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        assert tc.traces
        # Patch inc rax -> dec rax in the loop body (supervisor store).
        text = cpu.mem.read(BASE, 64)
        off = text.index(b"\x48\xff\xc0")
        cpu.mem.wp_enabled = False
        cpu.mem.write(BASE + off, b"\x48\xff\xc8")
        cpu.mem.wp_enabled = True
        assert not tc.traces
        assert cpu.trace_stats.invalidations >= 1
        cpu.halted = False
        cpu.regs.rip = binary.entry
        cpu.run()
        # The rerun trace-compiled the *patched* loop: rax counted down.
        assert cpu.regs.rax == (0 - 300) % (1 << 64)
        assert cpu.trace_stats.compiles >= 2

    def test_stale_generation_caught_at_entry_without_observer(self):
        """A trace can go stale with no write observed by this CPU (the
        SMP attach-later situation): entry stamps are the ground truth."""
        binary = counting_loop(300)
        cpu = fresh_cpu(binary)
        cpu.run()
        tc = cpu._tracecache
        (head,) = tc.traces
        trace = tc.traces[head]
        # Forge a stale stamp instead of routing a write through the
        # observer protocol.
        trace.pages = tuple((index, stamp - 1) for index, stamp in trace.pages)
        assert tc.execute(head, 1000) == 0
        assert not tc.traces
        assert cpu.trace_stats.invalidations >= 1

    def test_self_modifying_loop_bails_mid_trace(self):
        """A loop that stores to its own text page: the write-observer
        flips the live cell and the trace exits before running another
        instruction from stale bytes, every iteration, with no
        divergence from the interpreter."""

        def smc_loop(iterations):
            asm = Assembler(base=BASE)
            asm.mov_imm32(Reg.RBX, iterations)
            asm.label("loop")
            asm.inc(Reg.RAX)
            asm.store_rsp64(0, Reg.RCX)  # store lands on this very page
            asm.dec(Reg.RBX)
            asm.jne("loop")
            asm.hlt()
            return asm.build()

        binary = smc_loop(120)
        states = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem, writable_text=True)
            cpu = CPU(mem, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            # RSP aims at padding at the end of the text page; RCX holds
            # the bytes already there, so the store is architecturally a
            # no-op but still bumps the page generation every iteration.
            target = BASE + 0xF00
            cpu.regs.rsp = target
            cpu.regs.write64(Reg.RCX, int.from_bytes(mem.read(target, 8), "little"))
            cpu.run()
            states.append(final_state(cpu))
            if tracecache:
                assert cpu.trace_stats.invalidations >= 1
        assert states[0] == states[1]
