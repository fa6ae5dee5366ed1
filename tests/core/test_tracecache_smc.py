"""Trace cache vs. ABOM: §4.4 patches must evict compiled traces.

The icache SMC suite (``test_icache_smc.py``) proves stores to cached
text are observed at block granularity; this suite proves the same
write-observer protocol reaches compiled superblocks: an ABOM
``cmpxchg`` landing on a page a trace was compiled from evicts it (even
mid-run, even from another vCPU's patcher), rejected chains get a fresh
look once the text changes, and post-patch traces stitch straight
through the patched call into the LibOS stub.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.core.abom import ABOM

BASE = 0x400000


def loop_program(style, nr, iterations, setup=None, base=BASE):
    asm = Assembler(base=base)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    if setup:
        setup(asm)
    site = asm.syscall_site(nr, style=style)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build(), site


def go_setup(nr):
    def setup(asm):
        asm.mov_imm64_low(Reg.RCX, nr)
        asm.store_rsp64(8, Reg.RCX)

    return setup


def trace_stats(xc):
    return xc.cpu.trace_stats


class TestPatchedSiteTraces:
    """After ABOM converts a site, the hot loop around it compiles into
    a trace that calls the LibOS stub inline — dispatch-free syscalls."""

    def test_mov_eax_loop_traces_through_patched_call(self):
        xc = XContainer(CountingServices())
        binary, _ = loop_program("mov_eax", 39, 300)
        xc.run(binary)
        assert xc.libos_stats.forwarded_syscalls == 1
        assert xc.libos_stats.lightweight_syscalls == 299
        stats = trace_stats(xc)
        assert stats.compiles >= 1
        assert stats.executions >= 1
        # The loop body (call + stub + dec + jne) ran inside the trace.
        assert stats.instructions > 500

    def test_mov_rax_loop_folds_dead_tail_skip(self):
        """The 9-byte patch leaves a dead ``jmp -9``/``syscall`` at the
        stub's return address; the recorder folds the LibOS skip into
        the trace, so iterations do not guard-exit on the skipped RIP."""
        xc = XContainer(CountingServices())
        binary, _ = loop_program("mov_rax", 15, 300)
        xc.run(binary)
        assert xc.libos_stats.lightweight_syscalls == 299
        stats = trace_stats(xc)
        assert stats.compiles >= 1
        # One guard exit per loop end, not one per iteration.
        assert stats.guard_exits < 20
        assert stats.instructions > 500

    def test_go_pattern_loop_traces(self):
        xc = XContainer(CountingServices())
        binary, _ = loop_program("go_stack", 7, 300, setup=go_setup(7))
        xc.run(binary)
        assert xc.libos.services.calls == [7] * 300
        assert trace_stats(xc).compiles >= 1

    def test_rejected_chain_retried_after_patch(self):
        """A chain too short to trace (three instructions, then ``hlt``)
        goes on the failed list; a ``cmpxchg`` patch of its text clears
        the blacklist, and the rerun traces the patched, longer chain."""
        asm = Assembler(base=BASE)
        for _ in range(3):
            asm.inc(Reg.RAX)
        stop = asm.here
        asm.hlt()
        for _ in range(5):
            asm.inc(Reg.RAX)
        asm.hlt()
        binary = asm.build()
        xc = XContainer(CountingServices())
        xc.load(binary)
        tc = xc.cpu._tracecache
        tc.hot_threshold = 2
        for _ in range(3):
            xc.run_loaded(binary.entry)
        assert trace_stats(xc).aborts == 1
        assert tc.failed == {binary.entry}
        assert trace_stats(xc).compiles == 0
        # A foreign patcher turns the first ``hlt`` into a ``nop``, the
        # way ABOM stores: the text write clears the blacklist.
        xc.memory.wp_enabled = False
        assert xc.memory.compare_exchange(stop, b"\xf4", b"\x90")
        xc.memory.wp_enabled = True
        assert not tc.failed
        xc.cpu.regs.rax = 0
        for _ in range(2):
            xc.run_loaded(binary.entry)
        assert trace_stats(xc).compiles == 1
        assert trace_stats(xc).instructions == 9  # the second run, to the hlt
        assert xc.cpu.regs.rax == 16

    def test_abom_patch_of_the_running_trace(self):
        """An unpatched site traces as a ``syscall`` step; when a late
        trap from inside that trace makes ABOM patch the site, the
        trace's own page changes under it, and it leaves through its
        liveness guard with the interpreter's state."""
        outcomes = []
        for tracecache in (True, False):
            xc = XContainer(CountingServices(), tracecache=tracecache)
            abom = xc.xkernel.abom
            abom.enabled = False
            deliver = xc.cpu.syscall_entry
            in_trace = []

            def entry(cpu, rip, xc=xc, abom=abom, deliver=deliver):
                if xc.libos_stats.forwarded_syscalls == 59:
                    abom.enabled = True
                    tc = cpu._tracecache
                    in_trace.append(tc is not None and bool(tc.traces))
                deliver(cpu, rip)

            xc.cpu.syscall_entry = entry
            binary, _ = loop_program("mov_eax", 39, 120)
            result = xc.run(binary, max_instructions=5_000)
            outcomes.append(
                (
                    xc.libos.services.calls,
                    xc.libos_stats.lightweight_syscalls,
                    xc.libos_stats.forwarded_syscalls,
                    xc.cpu.regs.snapshot(),
                    (xc.cpu.regs.zf, xc.cpu.regs.sf, xc.cpu.regs.cf),
                    result.instructions,
                )
            )
            if tracecache:
                assert in_trace == [True]
                assert trace_stats(xc).invalidations >= 1
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1:3] == (60, 60)


class TestPatchEvictsInstalledTrace:
    def test_patch_on_trace_page_evicts_mid_run(self):
        """A counting loop on the same page as a syscall site: the loop
        traces first, then the site's first trap patches the page —
        the installed trace must die before its next entry."""
        asm = Assembler(base=BASE)
        # Hot counting loop: compiles into a trace.
        asm.mov_imm32(Reg.RBX, 200)
        asm.xor(Reg.RAX, Reg.RAX)
        asm.label("count")
        asm.inc(Reg.RAX)
        asm.dec(Reg.RBX)
        asm.jne("count")
        # Then a syscall loop on the SAME page: iteration 1 traps and
        # ABOM rewrites text, invalidating the counting trace.
        asm.mov_imm32(Reg.RBX, 60)
        asm.label("sys")
        asm.syscall_site(39, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("sys")
        asm.hlt()
        binary = asm.build()
        xc = XContainer(CountingServices())
        xc.run(binary)
        assert xc.libos.services.count(39) == 60
        stats = trace_stats(xc)
        assert stats.compiles >= 1
        assert stats.invalidations >= 1

    def test_foreign_vcpu_patch_evicts_this_vcpus_trace(self):
        """Cross-vCPU i-cache coherence for traces: a patcher driven by
        another vCPU's ABOM rewrites shared text; this vCPU's compiled
        trace observes it through the shared write-observer protocol."""
        # A hot counting loop followed by a never-executed syscall site
        # on the same page: the loop traces, the site is patch bait.
        asm = Assembler(base=BASE)
        asm.mov_imm32(Reg.RBX, 200)
        asm.xor(Reg.RAX, Reg.RAX)
        asm.label("count")
        asm.inc(Reg.RAX)
        asm.dec(Reg.RBX)
        asm.jne("count")
        asm.hlt()
        site = asm.syscall_site(20, style="mov_rax")
        binary = asm.build()
        xc = XContainer(CountingServices())
        xc.run(binary)
        assert xc.cpu.regs.rax == 200
        assert trace_stats(xc).compiles >= 1
        installed = dict(xc.cpu._tracecache.traces)
        assert installed
        # Foreign patcher (models another vCPU's ABOM) rewrites the page.
        patcher = ABOM(xc.memory)
        assert patcher.try_patch(site.syscall_addr)
        assert trace_stats(xc).invalidations >= 1
        assert not set(installed) & set(xc.cpu._tracecache.traces)
        # Rerun on the patched page: still exact, trace recompiles.
        xc.cpu.halted = False
        xc.run_loaded(binary.entry)
        assert xc.cpu.regs.rax == 200
        assert trace_stats(xc).compiles >= 2


class TestEquivalenceUnderAbom:
    @given(
        style=st.sampled_from(["mov_eax", "mov_rax", "go_stack"]),
        iterations=st.integers(min_value=60, max_value=120),
        threshold=st.sampled_from([5, 50]),
    )
    @settings(max_examples=20, deadline=None)
    def test_traced_and_untraced_streams_agree(
        self, style, iterations, threshold
    ):
        """Hypothesis: for every site style, iteration count, and
        hotness threshold, traced execution produces the identical
        syscall stream, counters, and final state as the interpreter —
        ABOM mid-run patches included."""
        nr = 5 if style == "go_stack" else 39
        setup = go_setup(nr) if style == "go_stack" else None
        outcomes = []
        for tracecache in (True, False):
            xc = XContainer(CountingServices(), tracecache=tracecache)
            binary, _ = loop_program(style, nr, iterations, setup=setup)
            if tracecache:
                xc.cpu._tracecache.hot_threshold = threshold
            result = xc.run(binary)
            outcomes.append(
                (
                    xc.libos.services.calls,
                    xc.libos_stats.lightweight_syscalls,
                    xc.libos_stats.forwarded_syscalls,
                    xc.cpu.regs.snapshot(),
                    result.instructions,
                )
            )
        assert outcomes[0] == outcomes[1]
