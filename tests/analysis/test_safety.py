"""Patch-safety verification: the §4.4 invariants as findings."""

from repro.analysis.cfg import recover_binary_cfg
from repro.analysis.examples import EXAMPLES
from repro.analysis.report import analyze
from repro.analysis.safety import Severity, verify_sites
from repro.analysis.sites import discover_sites
from repro.arch import Assembler, Reg
from repro.arch.encoding import enc_jmp_rel32


def findings_for(binary):
    cfg = recover_binary_cfg(binary)
    sites = discover_sites(cfg, binary.code, binary.base)
    return verify_sites(cfg, sites)


def kinds(findings, severity=None):
    return {
        f.kind for f in findings
        if severity is None or f.severity is severity
    }


class TestCleanPrograms:
    def test_figure2_has_no_errors(self):
        findings = findings_for(EXAMPLES["figure2"].build())
        assert kinds(findings, Severity.ERROR) == set()
        # Every site still gets at least an INFO-level verdict trail.
        assert "unpatchable-site" in kinds(findings)
        assert "offline-patchable" in kinds(findings)

    def test_straight_line_site_no_findings_above_info(self):
        asm = Assembler()
        asm.syscall_site(0, style="mov_eax")
        asm.hlt()
        findings = findings_for(asm.build())
        assert all(f.severity is Severity.INFO for f in findings)


class TestTailJumps:
    def test_tail_jump_is_info_not_error(self):
        findings = findings_for(EXAMPLES["tail_jump"].build())
        assert kinds(findings, Severity.ERROR) == set()
        info = [f for f in findings if f.kind == "ud-fixup-tail"]
        assert len(info) == 1
        assert info[0].severity is Severity.INFO
        assert "#UD" in info[0].message

    def test_9byte_tail_jump_is_info(self):
        # Loop back to the old syscall address of a 9-byte site: the
        # phase-2 jmp -9 re-enters the call, no fixup needed.
        asm = Assembler(base=0x400000)
        asm.entry()
        asm.mov_imm32(Reg.RBX, 2)
        asm.label("loop")
        site = asm.syscall_site(15, style="mov_rax")
        asm.dec(Reg.RBX)
        asm.je("done")
        asm.raw(enc_jmp_rel32(site.syscall_addr - (asm.here + 5)))
        asm.label("done")
        asm.hlt()
        findings = findings_for(asm.build())
        assert kinds(findings, Severity.ERROR) == set()
        tail = [f for f in findings if f.kind == "nine-byte-tail"]
        assert len(tail) == 1
        assert tail[0].severity is Severity.INFO


class TestInteriorTargets:
    def test_interior_jump_is_error(self):
        findings = findings_for(EXAMPLES["interior_jump"].build())
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert len(errors) == 1
        assert errors[0].kind == "interior-target"
        assert "byte 2" in errors[0].message

    def test_interior_jump_report_is_unsafe(self):
        report = analyze(EXAMPLES["interior_jump"].build())
        assert report.has_unsafe
        assert "UNSAFE" in report.render()

    def test_safe_examples_reports_are_safe(self):
        for example in EXAMPLES.values():
            if not example.safe:
                continue
            report = analyze(example.build())
            assert not report.has_unsafe, example.name


class TestOfflineRegions:
    def _wrapper_with_interior_jump(self):
        # A cancellable wrapper whose *interior* (the check between mov
        # and syscall) is also a jump target from elsewhere.
        asm = Assembler(base=0x400000)
        asm.entry()
        asm.jmp("check")          # jumps into the wrapper's interior
        asm.label("wrapper")
        asm.mov_imm32(Reg.RAX, 3)
        asm.label("check")
        asm.nop(2)
        asm.raw_syscall()
        asm.hlt()
        return asm.build("interior_wrapper")

    def test_interior_target_in_wrapper_is_warning(self):
        binary = self._wrapper_with_interior_jump()
        findings = findings_for(binary)
        warn = [f for f in findings if f.kind == "offline-interior-target"]
        assert len(warn) == 1
        assert warn[0].severity is Severity.WARNING
        # A warning is not an ERROR: ABOM forwarding still works.
        assert kinds(findings, Severity.ERROR) == set()


class TestUndecodableBytes:
    def test_reachable_bad_bytes_flagged(self):
        asm = Assembler(base=0x400000)
        asm.entry()
        asm.dec(Reg.RBX)
        asm.je("over")
        asm.raw(b"\x60")          # fall-through path hits this byte
        asm.label("over")
        asm.hlt()
        findings = findings_for(asm.build())
        warn = [f for f in findings if f.kind == "undecodable-bytes"]
        assert len(warn) == 1
        assert warn[0].severity is Severity.WARNING

    def test_jumped_over_data_not_flagged(self):
        findings = findings_for(EXAMPLES["data_in_text"].build())
        assert "undecodable-bytes" not in kinds(findings)
