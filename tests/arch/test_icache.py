"""Basic-block decode cache: hits, misses, invalidation, equivalence.

The cache must be invisible except for speed: ``icache=True`` and
``icache=False`` CPUs retire identical instruction streams, and any store
to cached text (the ABOM situation, §4.4) is observed before the next
execution of the written bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.cpu import HANDLERS, MAX_BLOCK_INSTRS
from repro.arch.encoding import (
    ALL_MNEMONICS,
    BLOCK_TERMINATORS,
    enc_add_r64_imm8,
    enc_jmp_rel8,
    enc_mov_r64_r64,
    enc_pop_r64,
    enc_push_r64,
    enc_sub_r64_imm8,
)
from repro.arch.memory import PAGE_SIZE, PageFlags

BASE = 0x400000
STACK_BASE = 0x7F0000


def fresh_cpu(binary, icache=True, tracecache=True):
    mem = PagedMemory()
    binary.load(mem)
    mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
    cpu = CPU(mem, icache=icache, tracecache=tracecache)
    cpu.regs.rip = binary.entry
    cpu.regs.rsp = STACK_BASE + 0x10000 - 256
    return cpu


def counting_loop(iterations=50):
    asm = Assembler(base=BASE)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.xor(Reg.RAX, Reg.RAX)
    asm.label("loop")
    asm.inc(Reg.RAX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


class TestDispatchTable:
    def test_handlers_cover_every_mnemonic(self):
        assert set(HANDLERS) == ALL_MNEMONICS

    def test_terminators_are_known_mnemonics(self):
        assert BLOCK_TERMINATORS <= ALL_MNEMONICS


class TestHitMissCounters:
    def test_loop_hits_dominate(self):
        # tracecache=False: a compiled trace would absorb the loop after
        # ~50 iterations and starve the icache hit counter.
        cpu = fresh_cpu(counting_loop(100), tracecache=False)
        cpu.run()
        stats = cpu.icache_stats
        assert cpu.regs.rax == 100
        # The loop body re-executes from the cache: a handful of decodes,
        # hundreds of cached instructions.
        assert stats.misses <= 6
        assert stats.hits > 250
        assert stats.as_dict()["hit_rate"] > 0.9

    def test_straight_line_code_misses_once_per_block(self):
        asm = Assembler(base=BASE)
        for _ in range(10):
            asm.nop()
        asm.hlt()
        cpu = fresh_cpu(asm.build())
        cpu.run()
        assert cpu.icache_stats.misses == 1
        assert cpu.icache_stats.hits == 10  # all but the first instruction

    def test_icache_off_keeps_counters_at_zero(self):
        cpu = fresh_cpu(counting_loop(20), icache=False)
        cpu.run()
        stats = cpu.icache_stats
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 0)
        assert stats.as_dict()["hit_rate"] == 0.0
        assert cpu.regs.rax == 20

    def test_as_dict_shape(self):
        cpu = fresh_cpu(counting_loop(5))
        cpu.run()
        d = cpu.icache_stats.as_dict()
        assert set(d) == {"hits", "misses", "invalidations", "hit_rate"}

    def test_hit_rate_zero_fetches(self):
        """hit_rate must not divide by zero before any instruction runs."""
        cpu = fresh_cpu(counting_loop(5))
        stats = cpu.icache_stats
        assert (stats.hits, stats.misses) == (0, 0)
        assert stats.as_dict()["hit_rate"] == 0.0

    def test_blocks_cap_at_page_boundary(self):
        """A block never spans a decode across its starting page's end
        into a second *block*: execution continues via a new fill."""
        asm = Assembler(base=BASE)
        asm.nop(PAGE_SIZE + 16)
        asm.hlt()
        cpu = fresh_cpu(asm.build())
        cpu.run()
        # At least one fill per page plus the MAX_BLOCK_INSTRS splits.
        expected_min = (PAGE_SIZE + 16) // MAX_BLOCK_INSTRS
        assert cpu.icache_stats.misses >= expected_min


class TestSelfModifyingCode:
    def test_write_to_cached_text_is_observed(self):
        """Rewrite a cached instruction; the next execution must see it."""
        asm = Assembler(base=BASE)
        asm.label("loop")
        asm.mov_imm32(Reg.RCX, 1)
        asm.hlt()
        binary = asm.build()
        cpu = fresh_cpu(binary)
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 1
        # Patch the immediate in place (supervisor store to RO text).
        cpu.mem.wp_enabled = False
        cpu.mem.write(BASE + 1, (99).to_bytes(4, "little"))
        cpu.mem.wp_enabled = True
        assert cpu.icache_stats.invalidations >= 1
        cpu.halted = False
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.regs.read64(Reg.RCX) == 99

    def test_invalidation_only_hits_written_page(self):
        """A store to one text page leaves blocks on other pages cached."""
        asm = Assembler(base=BASE)
        asm.label("loop")
        asm.nop()
        asm.nop()
        asm.hlt()
        binary = asm.build()
        cpu = fresh_cpu(binary)
        cpu.run()
        misses_before = cpu.icache_stats.misses
        # Store to an unrelated page: no eviction.
        cpu.mem.write_u64(STACK_BASE + 64, 7)
        cpu.halted = False
        cpu.regs.rip = BASE
        cpu.run()
        assert cpu.icache_stats.invalidations == 0
        assert cpu.icache_stats.misses == misses_before

    def test_two_cpus_sharing_text_both_invalidate(self):
        """SMP: a store through one vCPU's memory evicts the other's
        cached decode of the same page (shared i-cache coherence)."""
        mem = PagedMemory()
        binary = counting_loop(10)
        binary.load(mem)
        mem.map_region(STACK_BASE, 0x10000, PageFlags.USER | PageFlags.WRITABLE)
        first = CPU(mem)
        second = CPU(mem)
        for cpu in (first, second):
            cpu.regs.rip = binary.entry
            cpu.regs.rsp = STACK_BASE + 0x8000
            cpu.run()
            cpu.halted = False
        assert first.icache_stats.hits > 0
        assert second.icache_stats.hits > 0
        mem.wp_enabled = False
        mem.write(binary.entry, b"\x90")
        mem.wp_enabled = True
        assert first.icache_stats.invalidations >= 1
        assert second.icache_stats.invalidations >= 1


# ----------------------------------------------------------------------
# Property: icache on/off retire identical instruction streams
# ----------------------------------------------------------------------
_REGS = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI]

def _ops(regs):
    return st.one_of(
        st.tuples(st.just("mov_imm32"), st.sampled_from(regs), st.integers(0, 2**31 - 1)),
        st.tuples(st.just("mov_imm64_low"), st.sampled_from(regs), st.integers(-(2**31), 2**31 - 1)),
        st.tuples(st.just("mov_reg"), st.sampled_from(regs), st.sampled_from(regs)),
        st.tuples(st.just("add"), st.sampled_from(regs), st.integers(-128, 127)),
        st.tuples(st.just("sub"), st.sampled_from(regs), st.integers(-128, 127)),
        st.tuples(st.just("cmp"), st.sampled_from(regs), st.integers(-128, 127)),
        st.tuples(st.just("inc"), st.sampled_from(regs)),
        st.tuples(st.just("dec"), st.sampled_from(regs)),
        st.tuples(st.just("xor"), st.sampled_from(regs), st.sampled_from(regs)),
        st.tuples(st.just("push"), st.sampled_from(regs)),
        st.tuples(st.just("pop"), st.sampled_from(regs)),
        st.tuples(st.just("nop")),
        # Forward skip over the next instruction: exercises block exits
        # and re-entry in the middle of decoded regions.
        st.tuples(st.just("skip_next")),
    )


_op = _ops(_REGS)

#: Countdown loops: ``("loop", count, body)``, at most two deep.  The
#: outer counter is rsi, the inner rdi, and loop bodies never name them.
#: Bodies are short enough for the ``jne`` back-edge's rel8.
_LOOP_COUNTERS = (Reg.RSI, Reg.RDI)
_body_op = _ops([Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX])
_inner_loop = st.tuples(
    st.just("loop"), st.integers(1, 6), st.lists(_body_op, max_size=3)
)
_nested_loop = st.builds(
    lambda count, before, inner, after: ("loop", count, before + [inner] + after),
    st.integers(1, 6),
    st.lists(_body_op, max_size=1),
    _inner_loop,
    st.lists(_body_op, max_size=1),
)


def _join(runs, tail):
    program = []
    for run, loop in runs:
        program += run + [loop]
    return program + tail


#: Straight-line runs, each but the last followed by a nested loop.
_program = st.builds(
    _join,
    st.lists(st.tuples(st.lists(_op, max_size=8), _nested_loop), max_size=3),
    st.lists(_op, min_size=1, max_size=30),
)


#: The forms only these programs use have an encoder but no Assembler
#: method.
_ENCODERS = {
    "mov_reg": enc_mov_r64_r64,
    "add": enc_add_r64_imm8,
    "sub": enc_sub_r64_imm8,
}


def _assemble(ops):
    asm = Assembler(base=BASE)
    _emit(asm, ops, depth=0)
    asm.hlt()
    return asm.build()


def _emit(asm, ops, depth):
    """Emit ``ops`` with the stack balanced at the end of the list."""
    pushes = 0
    for op in ops:
        name = op[0]
        if name == "loop":
            _, count, body = op
            counter = _LOOP_COUNTERS[depth]
            asm.mov_imm32(counter, count)
            label = f"loop{asm.here:#x}"
            asm.label(label)
            _emit(asm, body, depth + 1)
            asm.dec(counter)
            asm.jne(label)
        elif name == "push":
            asm.raw(enc_push_r64(op[1]))
            pushes += 1
        elif name == "pop":
            if pushes == 0:
                continue  # keep the stack balanced
            asm.raw(enc_pop_r64(op[1]))
            pushes -= 1
        elif name == "skip_next":
            asm.raw(enc_jmp_rel8(3))
            asm.nop(3)
        elif name == "nop":
            asm.nop()
        elif name in _ENCODERS:
            asm.raw(_ENCODERS[name](*op[1:]))
        else:
            getattr(asm, name)(*op[1:])
    for _ in range(pushes):
        asm.raw(enc_pop_r64(Reg.RAX))


class TestCachedUncachedEquivalence:
    @given(st.lists(_op, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_identical_streams_on_random_programs(self, ops):
        binary = _assemble(ops)
        cached = fresh_cpu(binary, icache=True)
        plain = fresh_cpu(binary, icache=False)
        # Lock-step: after every instruction both CPUs agree on the full
        # architectural state, so the retired streams are identical.
        while not (cached.halted or plain.halted):
            cached.step()
            plain.step()
            assert cached.regs.rip == plain.regs.rip
            assert cached.regs.snapshot() == plain.regs.snapshot()
            assert (cached.regs.zf, cached.regs.sf, cached.regs.cf) == (
                plain.regs.zf,
                plain.regs.sf,
                plain.regs.cf,
            )
        assert cached.halted and plain.halted
        assert cached.instructions_retired == plain.instructions_retired


def _final_state(cpu):
    return (
        cpu.regs.rip,
        cpu.regs.snapshot(),
        (cpu.regs.zf, cpu.regs.sf, cpu.regs.cf),
        cpu.instructions_retired,
    )


class TestTracedEquivalence:
    """Interpreter, icache, and trace-compiled execution are
    indistinguishable except for speed (run-to-halt comparison; traces
    retire whole superblocks per dispatch, so lock-step is meaningless)."""

    @given(_program)
    @settings(max_examples=40, deadline=None)
    def test_three_modes_agree_on_random_programs(self, ops):
        binary = _assemble(ops)
        plain = fresh_cpu(binary, icache=False)
        cached = fresh_cpu(binary, icache=True, tracecache=False)
        traced = fresh_cpu(binary, icache=True, tracecache=True)
        # Straight-line programs only get hot across repeat runs; drop
        # the threshold so traces actually engage within a few passes.
        traced._tracecache.hot_threshold = 2
        for cpu in (plain, cached, traced):
            for _ in range(5):
                cpu.halted = False
                cpu.regs.rip = binary.entry
                cpu.run()
        assert _final_state(plain) == _final_state(cached) == _final_state(traced)

    def test_traces_engage_and_agree_on_hot_loop(self):
        binary = counting_loop(500)
        traced = fresh_cpu(binary)
        traced.run()
        plain = fresh_cpu(binary, icache=False)
        plain.run()
        assert _final_state(traced) == _final_state(plain)
        stats = traced.trace_stats
        assert stats.compiles >= 1
        assert stats.executions >= 1
        # The overwhelming majority of the loop ran inside the trace.
        assert stats.instructions > 1000
