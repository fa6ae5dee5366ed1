"""Site discovery and classification, incl. the static==dynamic property."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sites import discover_binary_sites
from repro.arch import Assembler, Reg
from repro.arch.binary import SitePattern
from repro.core import CountingServices, XContainer
from repro.core.vsyscall import dynamic_slot_addr, slot_addr
from repro.obs import TraceRecorder


def discover(binary):
    return discover_binary_sites(binary)


class TestClassification:
    def test_mov_eax_site(self):
        asm = Assembler()
        asm.syscall_site(39, style="mov_eax")
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.MOV_EAX_IMM
        assert site.nr == 39
        assert site.abom_patchable
        assert site.window == (site.syscall_addr - 5, 7)
        assert site.predicted_bytes[:3] == b"\xff\x14\x25"
        assert site.predicted_bytes[-2:] == b"\x60\xff"

    def test_mov_rax_site(self):
        asm = Assembler()
        asm.syscall_site(15, style="mov_rax")
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.MOV_RAX_IMM
        assert site.nr == 15
        assert site.abom_patchable
        assert site.window == (site.syscall_addr - 7, 9)
        # Final state: 7-byte call + jmp -9.
        assert len(site.predicted_bytes) == 9
        assert site.predicted_bytes[7:] == b"\xeb\xf7"

    def test_go_stack_site(self):
        asm = Assembler()
        asm.syscall_site(1, style="go_stack")
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.GO_STACK
        assert site.nr is None
        assert site.disp == 8
        assert site.abom_patchable
        slot = dynamic_slot_addr(8)
        assert site.predicted_bytes[3:7] == (
            slot & 0xFFFFFFFF).to_bytes(4, "little")

    def test_go_stack_unknown_disp_not_patchable(self):
        asm = Assembler()
        asm.load_rsp64(Reg.RAX, 12)  # 12 has no dynamic slot
        asm.raw_syscall()
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.GO_STACK
        assert not site.abom_patchable

    def test_out_of_range_number_not_patchable(self):
        asm = Assembler()
        asm.syscall_site(100_000, style="mov_eax")
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.MOV_EAX_IMM
        assert not site.abom_patchable
        assert site.predicted_bytes is None

    def test_cancellable_site(self):
        asm = Assembler()
        declared = asm.syscall_site(3, style="cancellable", cancel_gap=4)
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.CANCELLABLE
        assert site.nr == 3
        assert site.region_start == declared.syscall_addr - 4 - 5
        assert not site.abom_patchable

    def test_bare_site_rax_from_alu(self):
        asm = Assembler()
        asm.xor(Reg.RAX, Reg.RAX)
        asm.raw_syscall()
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.BARE
        assert site.nr is None

    def test_rax_clobber_between_mov_and_syscall_is_bare(self):
        # mov $3,%eax; pop %rax; syscall — the pop kills the wrapper.
        asm = Assembler()
        asm.push(Reg.RCX)
        asm.mov_imm32(Reg.RAX, 3)
        asm.pop(Reg.RAX)
        asm.raw_syscall()
        asm.hlt()
        (site,) = discover(asm.build())
        assert site.pattern is SitePattern.BARE

    def test_predicted_call_slot_matches_vsyscall_table(self):
        asm = Assembler()
        asm.syscall_site(7, style="mov_eax")
        asm.hlt()
        (site,) = discover(asm.build())
        slot = slot_addr(7)
        assert site.predicted_bytes[3:7] == (
            slot & 0xFFFFFFFF).to_bytes(4, "little")


# ----------------------------------------------------------------------
# Property: static discovery == dynamic trap sites
# ----------------------------------------------------------------------
_SITE_STYLES = ("mov_eax", "mov_rax", "go_stack", "cancellable", "bare")

site_specs = st.lists(
    st.tuples(
        st.sampled_from(_SITE_STYLES),
        st.integers(min_value=0, max_value=383),
        st.integers(min_value=1, max_value=6),  # cancel gap
        st.integers(min_value=0, max_value=3),  # filler nops after
    ),
    min_size=0,
    max_size=8,
)


def build_program(specs, junk):
    """A straight-line program executing every site exactly once."""
    asm = Assembler(base=0x400000)
    asm.entry()
    declared = []
    for style, nr, gap, filler in specs:
        if style == "go_stack":
            asm.mov_imm64_low(Reg.RCX, nr)
            asm.store_rsp64(8, Reg.RCX)
        elif style == "bare":
            # %rax set by an ALU op so the site stays genuinely bare.
            asm.xor(Reg.RAX, Reg.RAX)
        declared.append(
            asm.syscall_site(nr, style=style, cancel_gap=gap)
        )
        asm.nop(filler)
    if junk:
        # Data in text, jumped over: must confuse neither side.
        asm.jmp("over")
        asm.raw(junk)
        asm.label("over")
    asm.hlt()
    return asm.build(), declared


@settings(max_examples=60, deadline=None)
@given(
    specs=site_specs,
    junk=st.binary(min_size=0, max_size=12).filter(
        lambda b: b"\x0f\x05" not in b
    ),
)
def test_static_discovery_equals_interpreter_traps(specs, junk):
    binary, declared = build_program(specs, junk)
    discovered = discover(binary)

    # ABOM off: every execution of every site traps to the X-Kernel.
    xc = XContainer(CountingServices(), abom_enabled=False)
    tracer = TraceRecorder(xc.clock, capacity=65536)
    xc.attach_tracer(tracer)
    xc.run(binary)
    trapped = {
        event.detail["rip"]
        for event in tracer.events("syscall", "forwarded")
    }

    assert {site.syscall_addr for site in discovered} == trapped
    # And the static classification agrees with the assembler's intent.
    by_addr = {site.syscall_addr: site for site in discovered}
    for site in declared:
        assert by_addr[site.syscall_addr].pattern is site.pattern
