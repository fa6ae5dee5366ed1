"""Trace cache: compilation, guards, fuel, invalidation, toggles.

The trace cache must be invisible except for speed: compiled superblocks
retire the same architectural state, counts, and faults as the
interpreter, and every guard failure re-enters the interpreter at the
architecturally exact RIP.  See ``docs/interpreter_performance.md``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, CPU, PagedMemory, Reg, Trap
from repro.arch.encoding import enc_call_abs_ind, enc_pop_r64, enc_push_r64
from repro.arch.memory import PAGE_SHIFT, PageFault, PageFlags
from repro.arch.tracecache import HOT_THRESHOLD, MIN_LINEAR_OPS
from repro.workloads.unixbench import build_syscall_bench
from repro.xen.migration import checkpoint_memory, restore_memory

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
    """A ``syscall`` compiles into the trace as a call to the CPU's
    syscall entry.  Whatever the entry does (resume after the syscall,
    halt, move RIP, raise, write the trace's own text), the trace leaves
    the state the interpreter leaves, and the entry sees the registers,
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

            def entry(cpu, rip, handle=handle, seen=seen):
                regs = cpu.regs
                seen.append((
                    rip, regs.rip, regs.snapshot(),
                    (regs.zf, regs.sf, regs.cf),
                    cpu.instructions_retired, cpu.clock.now_ns,
                ))
                cpu.clock.advance(7.0)
                regs.rax = len(seen)
                regs.rip = rip + 2
                handle(cpu, len(seen))

            cpu.syscall_entry = entry
            raised = None
            try:
                # A trace that loses the loop counter spins until this
                # budget (about 8x the program) runs out.
                cpu.run(max_instructions=5_000)
            except (Boom, Trap) as exc:
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

    def test_entry_uninstalled_mid_trace(self):
        """With no syscall entry, the next ``syscall`` raises
        ``Trap(SYSCALL)`` from inside the trace, unretired, with the
        state the interpreter leaves."""

        def make(binary):
            def handle(cpu, k):
                if k == self.LATE_CALL:
                    cpu.syscall_entry = None

            return handle

        cpu, (_, _, _, seen, raised) = self.run_both(make)
        loop = syscall_loop(self.ITERATIONS).symbols["loop"]
        # mov eax, 39 is five bytes; the syscall follows it.
        assert raised == f"syscall at {loop + 5:#x}"
        assert len(seen) == self.LATE_CALL
        assert cpu.regs.rip == loop + 5
        assert cpu.trace_stats.executions == 1

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


SLOT = 0x7E0008
#: Two native stubs (never fetched as bytes, like the LibOS entry stubs).
STUB_A = 0xFFFFFFFFFF610000
STUB_B = STUB_A + 16


def slot_loop(iterations):
    """A hot loop calling through the vsyscall-style ``SLOT``, then
    making a raw ``syscall``."""
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    asm.raw(enc_call_abs_ind(SLOT))
    asm.inc(Reg.RCX)
    asm.mov_imm32(Reg.RAX, 39)
    asm.raw_syscall()
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestStubSlot:
    """A ``call *slot`` into a native stub is compiled without reading
    the slot: the slot's page is in the trace's stamps, so re-pointing
    it evicts the trace as a text write does.  Either way, the trace
    cache on and off leave the same registers, flags, RIP, retired
    count, clock and stub- and entry-visible state."""

    ITERATIONS = 120
    #: The 60th call: the loop has been running in its trace.
    LATE_CALL = 60

    def run_both(self, by):
        binary = slot_loop(self.ITERATIONS)
        outcomes = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem)
            mem.map_region(STACK_BASE, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            # Read-only, like the vsyscall page: only a supervisor store
            # (write protect off) re-points the slot.
            mem.map_region(SLOT & ~0xFFF, 0x1000, PageFlags.USER)
            mem.wp_enabled = False
            mem.write_u64(SLOT, STUB_A)
            mem.wp_enabled = True
            # 0.5 ns sums exactly in any order.
            cpu = CPU(mem, instruction_ns=0.5, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x800
            seen = []
            calls = {"stub": 0, "entry": 0}

            def repoint(cpu, who):
                calls[who] += 1
                if who != by or calls[who] != self.LATE_CALL:
                    return
                cpu.mem.wp_enabled = False
                cpu.mem.write_u64(SLOT, STUB_B)
                cpu.mem.wp_enabled = True

            def make_stub(name, step, seen=seen):
                def stub(cpu):
                    regs = cpu.regs
                    seen.append((
                        name, regs.rip, regs.snapshot(),
                        cpu.instructions_retired, cpu.clock.now_ns,
                    ))
                    cpu.clock.advance(3.0)
                    regs.write64(Reg.RDX, regs.read64(Reg.RDX) + step)
                    # ``ret``: resume at the pushed return address.
                    regs.rip = cpu.mem.read_u64(regs.rsp)
                    regs.rsp = regs.rsp + 8
                    repoint(cpu, "stub")

                return stub

            def entry(cpu, rip, seen=seen):
                seen.append(("entry", rip, cpu.regs.snapshot(),
                             cpu.instructions_retired, cpu.clock.now_ns))
                cpu.clock.advance(7.0)
                cpu.regs.rip = rip + 2
                repoint(cpu, "entry")

            cpu.native_stubs[STUB_A] = make_stub("A", 1)
            cpu.native_stubs[STUB_B] = make_stub("B", 100)
            cpu.syscall_entry = entry
            cpu.run(max_instructions=5_000)
            outcomes.append((final_state(cpu), cpu.clock.now_ns, seen))
            if tracecache:
                traced = cpu
        assert outcomes[0] == outcomes[1]
        return traced, outcomes[0]

    @pytest.mark.parametrize("by", ["stub", "entry"])
    def test_slot_repointed_mid_trace(self, by):
        cpu, (_, _, seen) = self.run_both(by)
        stubs = [record[0] for record in seen if record[0] != "entry"]
        assert stubs == ["A"] * self.LATE_CALL + ["B"] * (
            self.ITERATIONS - self.LATE_CALL
        )
        assert cpu.regs.read64(Reg.RDX) == self.LATE_CALL + 100 * (
            self.ITERATIONS - self.LATE_CALL
        )
        stats = cpu.trace_stats
        # The store to the slot page evicted the loop's three rotations
        # (each calls through the slot), the running one among them; the
        # loop re-traced through the new target and ran to its exit.
        assert stats.invalidations == 3
        assert stats.compiles == 2
        assert stats.instructions > (self.ITERATIONS - self.LATE_CALL) * 5

    def test_slot_page_is_stamped(self):
        cpu, _ = self.run_both("stub")
        (trace,) = [t for t in cpu._tracecache.traces.values() if t.fn]
        assert SLOT >> PAGE_SHIFT in dict(trace.pages)
        assert trace.head in cpu._tracecache.page_traces[SLOT >> PAGE_SHIFT]


class TestBuildOnFirstEntry:
    """A trace is recorded when its head turns hot, and generated,
    compiled and bound to its CPU on its first entry."""

    @staticmethod
    def fig4_cpu(tracecache):
        binary = build_syscall_bench(200)
        cpu = fresh_cpu(binary, tracecache=tracecache)

        def entry(cpu, rip):
            cpu.regs.rax = 0
            cpu.regs.rip = rip + 2

        cpu.syscall_entry = entry
        return cpu

    def test_rotation_never_entered_is_never_generated(self, monkeypatch):
        from repro.arch import tracecache as m

        monkeypatch.setattr(m, "_CODE_MEMO", {})
        generated = []
        generate = m._generate

        def counting(head, *rest):
            generated.append(head)
            return generate(head, *rest)

        monkeypatch.setattr(m, "_generate", counting)
        traced = self.fig4_cpu(True)
        traced.run()
        plain = self.fig4_cpu(False)
        plain.run()
        assert final_state(traced) == final_state(plain)
        tc = traced._tracecache
        # The Fig 4 loop's five syscalls split it into six rotations,
        # each hot; the one entered first is the only one built.
        assert len(tc.traces) == 6
        built = [head for head, t in tc.traces.items() if t.fn is not None]
        assert generated == built
        assert len(built) == 1
        assert traced.trace_stats.compiles == 1
        assert len(m._CODE_MEMO) == 6
        assert sum(shape.code is not None for shape in m._CODE_MEMO.values()) == 1

    def test_page_change_before_first_entry_evicts_unbuilt(self):
        """A checkpoint restore swaps the text page without a store, so
        no write observer sees it.  The trace recorded from the old text
        fails its stamps at its first entry and is evicted unbuilt."""
        binary = counting_loop(300)
        head = binary.symbols["loop"]
        states = []
        steps = None
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem)
            patched = checkpoint_memory(mem, {})
            text = bytearray(patched.pages[BASE >> PAGE_SHIFT])
            off = text.index(b"\x48\xff\xc0")  # inc rax -> dec rax
            text[off : off + 3] = b"\x48\xff\xc8"
            patched.pages[BASE >> PAGE_SHIFT] = bytes(text)
            cpu = CPU(mem, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            if tracecache:
                tc = cpu._tracecache
                steps = 0
                while head not in tc.traces:
                    cpu.step()
                    steps += 1
                first = tc.traces[head]
                assert first.fn is None
            else:
                for _ in range(steps):
                    cpu.step()
            restore_memory(patched, mem)
            cpu.run()
            states.append(final_state(cpu))
            if tracecache:
                traced = cpu
        assert states[0] == states[1]
        assert first.fn is None and not first.live[0]
        stats = traced.trace_stats
        assert stats.invalidations == 1
        # Re-recorded from the new text, built at its first entry.
        assert stats.compiles == 1
        assert traced._tracecache.traces[head].fn is not None


class _ReferenceMemory(PagedMemory):
    """64-bit loads and stores as byte reads and writes."""

    def read_u64(self, addr):
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr, value):
        self.write(addr, (value & (1 << 64) - 1).to_bytes(8, "little"))


def memory_state(mem):
    return [
        (index, bytes(page.data), page.flags, page.generation)
        for index, page in sorted(mem._pages.items())
    ]


class TestInlinedLoadsAndStores:
    """A trace inlines the one-page case of ``read_u64``/``write_u64``
    with the same ``struct`` calls.  Run against an interpreter whose
    loads and stores are ``read(addr, 8)``/``write(addr, bytes)``, it
    must leave the same registers, count, fault, bytes, flags,
    generations and observer calls, across a page boundary, into a
    read-only or unmapped page, with write protection on or off."""

    UPPER = 0x11000  # writable; the stack descends from here

    @staticmethod
    def program(iterations, store_disp, load_disp):
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, iterations)
        asm.label("loop")
        asm.raw(enc_push_r64(Reg.RBX))
        asm.raw(enc_pop_r64(Reg.RDX))
        asm.raw(enc_push_r64(Reg.RDX))
        asm.store_rsp64(store_disp, Reg.RCX)
        asm.load_rsp64(Reg.RAX, load_disp)
        asm.inc(Reg.RCX)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        return asm.build()

    @settings(max_examples=60, deadline=None)
    @given(
        lower=st.sampled_from(["rw", "ro", "unmapped"]),
        wp=st.booleans(),
        misalign=st.integers(0, 7),
        crossing=st.integers(HOT_THRESHOLD + 4, 110),
        store_disp=st.sampled_from([0, 8, 16, -8]),
        load_disp=st.sampled_from([0, 8, 24, 4]),
    )
    def test_matches_byte_reference(
        self, lower, wp, misalign, crossing, store_disp, load_disp
    ):
        binary = self.program(120, store_disp, load_disp)
        outcomes = []
        for memory_type, tracecache in (
            (PagedMemory, True), (_ReferenceMemory, False)
        ):
            mem = memory_type()
            binary.load(mem)
            mem.map_region(self.UPPER, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            if lower != "unmapped":
                flags = PageFlags.USER
                if lower == "rw":
                    flags |= PageFlags.WRITABLE
                mem.map_region(self.UPPER - 0x1000, 0x1000, flags)
            cpu = CPU(mem, tracecache=tracecache)
            calls = []
            mem.add_write_observer(lambda addr, size: calls.append((addr, size)))
            mem.wp_enabled = wp
            cpu.regs.rip = binary.entry
            # The stack drops 8 bytes an iteration and crosses into the
            # lower page at about iteration ``crossing``, inside the trace.
            cpu.regs.rsp = self.UPPER + 8 * crossing + misalign
            raised = None
            try:
                cpu.run(max_instructions=5_000)
            except PageFault as exc:
                raised = str(exc)
            outcomes.append(
                (final_state(cpu), raised, memory_state(mem), calls)
            )
            if tracecache:
                traced = cpu
        assert outcomes[0] == outcomes[1]
        # The crossing (and any fault) came while the trace ran.
        assert traced.trace_stats.executions >= 1


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


def nested_loops(outer, inner, prefix=(), suffix=(), later=False):
    """An outer countdown (``rbx``) around an inner one (``rcx``).

    ``prefix`` and ``suffix`` are callables that emit outer-body code
    before and after the inner loop; ``later`` puts the inner loop in a
    block of its own, reached by a ``jmp`` from the head block.
    """
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, outer)
    asm.label("outer")
    if later:
        asm.inc(Reg.RSI)
        asm.jmp("body")
        asm.label("body")
    asm.mov_imm32(Reg.RCX, inner)
    for emit in prefix:
        emit(asm)
    asm.label("spin")
    asm.inc(Reg.RDX)
    asm.dec(Reg.RCX)
    asm.jne("spin")
    for emit in suffix:
        emit(asm)
    asm.dec(Reg.RBX)
    asm.jne("outer")
    asm.hlt()
    return asm.build()


def fill_and_drain(outer, inner):
    """Two inner loops per outer pass: ``fill`` pushes a sentinel 1 and
    ``inner`` zeros (a ``jne`` back-edge); ``drain`` pops while it reads
    zero (a ``je`` back-edge), so it leaves on the sentinel."""
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, outer)
    asm.label("outer")
    asm.mov_imm32(Reg.RAX, 1)
    asm.raw(enc_push_r64(Reg.RAX))
    asm.xor(Reg.RAX, Reg.RAX)
    asm.mov_imm32(Reg.RCX, inner)
    asm.label("fill")
    asm.raw(enc_push_r64(Reg.RAX))
    asm.dec(Reg.RCX)
    asm.jne("fill")
    asm.label("drain")
    asm.inc(Reg.RDX)
    asm.raw(enc_pop_r64(Reg.RSI))
    asm.cmp(Reg.RSI, 0)
    asm.je("drain")
    asm.dec(Reg.RBX)
    asm.jne("outer")
    asm.hlt()
    return asm.build()


class TestInnerLoops:
    """A branch back to an earlier step of the chain compiles into a
    nested loop.  The trace cache on and off must leave the same
    registers, flags, RIP, retired count and clock, and the inner loop
    must run inside the trace."""

    @pytest.fixture(autouse=True)
    def recorded(self, monkeypatch):
        from repro.arch import tracecache as m

        self.steps = {}
        record = m.TraceCache._record

        def capture(tc, head, *rest):
            steps, *more = record(tc, head, *rest)
            self.steps[head] = list(steps)
            return (steps, *more)

        monkeypatch.setattr(m.TraceCache, "_record", capture)

    def run_both(self, binary, budget=None, writable_text=False, rsp=None):
        states = []
        for tracecache in (True, False):
            mem = PagedMemory()
            binary.load(mem, writable_text=writable_text)
            mem.map_region(STACK_BASE, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
            # 0.5 ns sums exactly in any order, so clocks compare exactly.
            cpu = CPU(mem, instruction_ns=0.5, tracecache=tracecache)
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = rsp if rsp is not None else STACK_BASE + 0x800
            seen = []

            def entry(cpu, rip, seen=seen):
                # Record what the entry sees, charge it, resume after.
                seen.append((cpu.regs.snapshot(), cpu.instructions_retired,
                             cpu.clock.now_ns))
                cpu.clock.advance(7.0)
                cpu.regs.rip = rip + 2

            cpu.syscall_entry = entry
            if budget is None:
                cpu.run()
            else:
                with pytest.raises(RuntimeError, match="budget"):
                    cpu.run(max_instructions=budget)
                assert cpu.instructions_retired == budget
            states.append((final_state(cpu), cpu.clock.now_ns, seen))
            if tracecache:
                traced = cpu
        assert states[0] == states[1]
        return traced

    def inner_loops(self, head):
        steps = self.steps[head]
        return [(s[3], i) for i, s in enumerate(steps) if s[0] == "loop_to"]

    def test_jne_back_edge(self):
        binary = nested_loops(200, 24)
        cpu = self.run_both(binary)
        assert cpu.regs.read64(Reg.RDX) == 200 * 24
        assert self.inner_loops(binary.symbols["outer"])
        stats = cpu.trace_stats
        # Until the outer head turns hot, the spin loop's own trace runs
        # once per outer pass and leaves through its branch guard; after
        # that, the rest of the nest is one more entry and guard exit.
        assert stats.executions <= HOT_THRESHOLD + 1
        assert stats.guard_exits <= HOT_THRESHOLD + 1
        assert stats.instructions > 0.9 * cpu.instructions_retired

    def test_je_back_edge(self):
        """A ``je`` back-edge leaves on ZF clear; here it is the second
        of two inner loops in one outer pass."""
        binary = fill_and_drain(300, 6)
        cpu = self.run_both(binary)
        assert cpu.regs.read64(Reg.RDX) == 300 * 7
        steps = self.steps[binary.symbols["outer"]]
        loops = self.inner_loops(binary.symbols["outer"])
        assert [steps[start][1] for start, _ in loops] == [
            binary.symbols["fill"], binary.symbols["drain"],
        ]
        assert [steps[end][2] for _, end in loops] == ["jne_rel8", "je_rel8"]
        # Warm-up runs each inner loop's own trace once per outer pass;
        # then the whole nest is one entry.
        assert cpu.trace_stats.guard_exits <= 2 * HOT_THRESHOLD + 1
        assert cpu.trace_stats.instructions > 0.9 * cpu.instructions_retired

    def test_inner_loop_in_the_head_block(self):
        binary = nested_loops(120, 8)
        self.run_both(binary)
        steps = self.steps[binary.symbols["outer"]]
        (start, _), = self.inner_loops(binary.symbols["outer"])
        # mov ecx, then the loop: no block transfer before it.
        assert start == 1
        assert all(s[0] == "op" for s in steps[:start])

    def test_inner_loop_in_a_later_block(self):
        binary = nested_loops(120, 8, later=True)
        cpu = self.run_both(binary)
        assert cpu.regs.read64(Reg.RSI) == 120
        steps = self.steps[binary.symbols["outer"]]
        (start, _), = self.inner_loops(binary.symbols["outer"])
        assert any(s[0] == "jmp" for s in steps[:start])

    def test_outer_body_stores_to_the_stack(self):
        binary = nested_loops(
            150, 8,
            prefix=[lambda asm: asm.store_rsp64(8, Reg.RBX)],
            suffix=[lambda asm: asm.store_rsp64(16, Reg.RDX)],
        )
        cpu = self.run_both(binary)
        assert cpu.mem.read_u64(cpu.regs.rsp + 16) == 150 * 8
        assert self.inner_loops(binary.symbols["outer"])
        assert cpu.trace_stats.invalidations == 0

    def test_outer_body_stores_to_its_own_text(self):
        """Each outer pass stores the bytes already there to padding on
        the trace's own text page: the trace leaves through its
        liveness guard and is re-installed, with no divergence."""
        target = BASE + 0xF00
        binary = nested_loops(
            120, 8, suffix=[lambda asm: asm.store_rsp64(0, Reg.RDI)]
        )
        mem = PagedMemory()
        binary.load(mem)
        # rdi is never written: it stores the zero padding's own bytes.
        assert mem.read(target, 8) == bytes(8)
        cpu = self.run_both(binary, writable_text=True, rsp=target)
        assert cpu.regs.read64(Reg.RDX) == 120 * 8
        assert cpu.trace_stats.invalidations >= 1

    def test_outer_body_makes_syscalls(self):
        """A ``syscall`` before and after the inner loop: the handler
        sees the count and clock the interpreter shows it, in and out
        of the trace."""
        binary = nested_loops(
            150, 6,
            prefix=[lambda asm: asm.raw_syscall()],
            suffix=[lambda asm: asm.raw_syscall()],
        )
        cpu = self.run_both(binary)
        assert cpu.regs.read64(Reg.RDX) == 150 * 6
        assert self.inner_loops(binary.symbols["outer"])
        # Warm-up exits only: both syscalls resume inside the trace.
        assert cpu.trace_stats.guard_exits <= HOT_THRESHOLD + 1
        # The inner top's exit after a synced syscall still flushes the
        # passes run since.
        for budget in range(2000, 2024):
            self.run_both(binary, budget=budget)

    def test_budget_runs_out_inside_the_inner_loop(self):
        """run(max_instructions=N) raises at exactly N wherever N falls:
        inside the inner loop, at its top, or between the loops.  The
        prefix ``xor`` sets ZF and the inner ``inc`` redefines it before
        any guard, so only the inner top's exit observes the ``xor``'s
        flags."""
        binary = nested_loops(
            400, 5,
            prefix=[lambda asm: asm.xor(Reg.RAX, Reg.RAX)],
            suffix=[lambda asm: asm.cmp(Reg.RCX, 1)],
        )
        for budget in range(3000, 3032):
            cpu = self.run_both(binary, budget=budget)
            assert cpu.trace_stats.instructions > 0
        assert self.inner_loops(binary.symbols["outer"])
