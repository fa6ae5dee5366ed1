"""Static predictions vs. online ABOM, diffed."""

import dataclasses

from repro.analysis.differential import run_differential as _run
from repro.analysis.examples import EXAMPLES
from repro.analysis.report import analyze
from repro.arch import Assembler, Reg


def discover_binary_sites(binary):
    return analyze(binary, differential=False).sites


def run_differential(binary, sites=None):
    """Diff against ``sites``, by default a fresh static discovery."""
    if sites is None:
        sites = discover_binary_sites(binary)
    return _run(binary, sites)


class TestDecisionDiff:
    def test_figure2_zero_mismatches(self):
        """Every Figure-2 shape: static and ABOM must agree exactly."""
        result = run_differential(EXAMPLES["figure2"].build())
        assert result.ok
        assert result.decision_mismatches == []
        assert result.byte_mismatches == []
        assert result.unpredicted_patches == []
        # All five sites trapped at least once; three were patchable.
        assert result.traps == 5
        patched = [o for o in result.outcomes if o.abom_patched]
        assert {o.pattern for o in patched} == {
            "mov_eax_imm", "mov_rax_imm", "go_stack",
        }

    def test_all_safe_examples_agree(self):
        for example in EXAMPLES.values():
            if not (example.safe and example.runnable):
                continue
            result = run_differential(example.build())
            assert result.ok, example.name

    def test_unexercised_site_matches_vacuously(self):
        # The site sits on the never-taken fall-through of a branch:
        # statically discovered, never trapped, never patched.
        asm = Assembler(base=0x400000)
        asm.entry()
        asm.xor(Reg.RBX, Reg.RBX)
        asm.cmp(Reg.RBX, 0)
        asm.je("skip")
        asm.syscall_site(0, style="mov_eax", symbol="cold")
        asm.label("skip")
        asm.hlt()
        result = run_differential(asm.build())
        assert result.ok
        assert result.traps == 0
        (outcome,) = result.outcomes
        assert not outcome.executed
        assert outcome.predicted_patch and not outcome.abom_patched
        assert result.unexercised == [outcome]


class TestByteDiff:
    def test_patched_loop_bytes_converge(self):
        result = run_differential(EXAMPLES["patched_loop"].build())
        assert result.ok
        assert result.byte_mismatches == []

    def test_wrong_prediction_is_caught(self):
        binary = EXAMPLES["patched_loop"].build()
        sites = discover_binary_sites(binary)
        doctored = [
            dataclasses.replace(
                site, predicted_bytes=b"\x90" * len(site.predicted_bytes)
            )
            if site.pattern.value == "mov_eax_imm"
            else site
            for site in sites
        ]
        result = run_differential(binary, sites=doctored)
        assert not result.ok
        assert result.byte_mismatches

    def test_wrong_decision_is_caught(self):
        binary = EXAMPLES["patched_loop"].build()
        sites = discover_binary_sites(binary)
        doctored = [
            dataclasses.replace(site, abom_patchable=False)
            if site.pattern.value == "mov_eax_imm"
            else site
            for site in sites
        ]
        result = run_differential(binary, sites=doctored)
        assert not result.ok
        assert result.decision_mismatches


class TestTraceCacheDiff:
    """The trace cache is an optimization, never a semantic change."""

    def test_figure2_identical_with_and_without_trace_cache(self):
        result = run_differential(EXAMPLES["figure2"].build())
        assert result.ok
        assert result.tracecache_trap_mismatches == []
        assert result.tracecache_byte_mismatches == []

    def test_all_safe_examples_cache_neutral(self):
        for example in EXAMPLES.values():
            if not (example.safe and example.runnable):
                continue
            result = run_differential(example.build())
            assert result.tracecache_trap_mismatches == [], example.name
            assert result.tracecache_byte_mismatches == [], example.name

    def test_tracecache_divergence_would_fail_ok(self):
        result = run_differential(EXAMPLES["patched_loop"].build())
        assert result.ok
        doctored = dataclasses.replace(
            result, tracecache_trap_mismatches=[0x400000]
        )
        assert not doctored.ok

    def test_report_dict_carries_tracecache_fields(self):
        from repro.analysis.report import analyze

        report = analyze(EXAMPLES["patched_loop"].build())
        diff = report.as_dict()["differential"]
        assert diff["tracecache_trap_mismatches"] == 0
        assert diff["tracecache_byte_mismatch_regions"] == 0
