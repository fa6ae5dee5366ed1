import pytest

from repro.arch import Assembler, Reg
from repro.arch.binary import SitePattern
from repro.arch.encoding import decode


class TestLabels:
    def test_forward_and_backward_jumps_resolve(self):
        asm = Assembler()
        asm.label("start")
        asm.jmp("end")
        asm.label("mid")
        asm.nop()
        asm.je("start")
        asm.label("end")
        asm.hlt()
        binary = asm.build()
        # jmp rel32 at offset 0, target = len 5 + 1 nop + 2 je = offset 8
        instr = decode(binary.code, 0)
        assert instr.mnemonic == "jmp_rel32"
        assert instr.operands[0] == 3  # 8 - (0 + 5)

    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(ValueError):
            asm.label("x")

    def test_undefined_label_rejected(self):
        asm = Assembler()
        asm.jmp("nowhere")
        with pytest.raises(ValueError):
            asm.build()

    def test_rel8_out_of_range_rejected(self):
        asm = Assembler()
        asm.label("start")
        asm.nop(200)
        asm.jne("start")
        with pytest.raises(ValueError):
            asm.build()

    def test_symbols_are_absolute(self):
        asm = Assembler(base=0x400000)
        asm.nop()
        asm.label("fn")
        binary = asm.build()
        assert binary.symbols["fn"] == 0x400001


class TestSyscallSites:
    def test_mov_eax_site_shape(self):
        asm = Assembler(base=0x1000)
        site = asm.syscall_site(39, style="mov_eax", symbol="getpid")
        binary = asm.build()
        assert site.pattern is SitePattern.MOV_EAX_IMM
        assert site.nr == 39
        assert site.syscall_addr == 0x1005
        assert binary.code[:5] == b"\xb8\x27\x00\x00\x00"
        assert binary.code[5:7] == b"\x0f\x05"

    def test_mov_rax_site_shape(self):
        asm = Assembler(base=0x1000)
        site = asm.syscall_site(15, style="mov_rax")
        binary = asm.build()
        assert site.pattern is SitePattern.MOV_RAX_IMM
        assert site.syscall_addr == 0x1007
        assert binary.code[:3] == b"\x48\xc7\xc0"

    def test_go_stack_site_shape(self):
        asm = Assembler(base=0x1000)
        site = asm.syscall_site(1, style="go_stack")
        binary = asm.build()
        assert site.pattern is SitePattern.GO_STACK
        assert site.nr is None
        assert binary.code[:5] == b"\x48\x8b\x44\x24\x08"

    def test_cancellable_site_has_gap(self):
        """The libpthread shape: check instructions between mov and syscall."""
        asm = Assembler(base=0x1000)
        site = asm.syscall_site(0, style="cancellable")
        binary = asm.build()
        assert site.pattern is SitePattern.CANCELLABLE
        # mov(5) + 2 nops, syscall at +7
        assert site.syscall_addr == 0x1007
        assert binary.code[5:7] == b"\x90\x90"

    def test_bare_site(self):
        asm = Assembler()
        site = asm.syscall_site(0, style="bare")
        assert site.pattern is SitePattern.BARE
        assert site.nr is None

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            Assembler().syscall_site(0, style="nonsense")

    def test_site_lookup_by_symbol(self):
        asm = Assembler()
        asm.syscall_site(39, symbol="getpid")
        binary = asm.build()
        assert binary.site_for_symbol("getpid").nr == 39
        with pytest.raises(KeyError):
            binary.site_for_symbol("missing")


class TestBinaryLoading:
    def test_text_mapped_readonly(self):
        from repro.arch.memory import PagedMemory, PageFault

        asm = Assembler(base=0x400000)
        asm.hlt()
        binary = asm.build()
        mem = PagedMemory()
        binary.load(mem)
        assert mem.read(0x400000, 1) == b"\xf4"
        with pytest.raises(PageFault):
            mem.write(0x400000, b"\x90")

    def test_loading_clears_dirty_bits(self):
        from repro.arch.memory import PagedMemory

        asm = Assembler(base=0x400000)
        asm.hlt()
        binary = asm.build()
        mem = PagedMemory()
        binary.load(mem)
        assert mem.dirty_pages() == []

    def test_entry_defaults_to_base(self):
        asm = Assembler(base=0x1234000)
        asm.nop()
        assert asm.build().entry == 0x1234000

    def test_explicit_entry(self):
        asm = Assembler(base=0x1000)
        asm.nop()
        asm.entry()
        asm.hlt()
        assert asm.build().entry == 0x1001
