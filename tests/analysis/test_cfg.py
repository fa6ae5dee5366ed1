"""CFG recovery: blocks, edges, leaders, and undecodable bytes."""

from repro.analysis.cfg import EdgeKind, recover_binary_cfg, recover_cfg
from repro.arch import Assembler, Reg
from repro.arch.encoding import enc_call_abs_ind


def test_straight_line_is_one_block():
    asm = Assembler(base=0x1000)
    asm.nop()
    asm.inc(Reg.RCX)
    asm.dec(Reg.RCX)
    asm.hlt()
    cfg = recover_binary_cfg(asm.build())
    assert len(cfg.blocks) == 1
    block = cfg.blocks[0x1000]
    assert [i.mnemonic for _, i in block.instructions] == [
        "nop", "inc_r64", "dec_r64", "hlt",
    ]
    assert cfg.edges == []


def test_loop_edges():
    asm = Assembler(base=0x1000)
    asm.mov_imm32(Reg.RBX, 3)
    asm.label("loop")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build()
    cfg = recover_binary_cfg(binary)
    loop = binary.symbols["loop"]
    kinds = {(e.dst, e.kind) for e in cfg.edges}
    assert (loop, EdgeKind.BRANCH) in kinds          # jne back-edge
    hlt_addr = loop + 3 + 2
    assert (hlt_addr, EdgeKind.FALLTHROUGH) in kinds  # jne not taken
    # The back-edge target starts a block even mid-run.
    assert loop in cfg.blocks


def test_jump_target_splits_block():
    asm = Assembler(base=0x1000)
    asm.nop()
    asm.label("target")
    asm.inc(Reg.RCX)
    asm.jmp("target")
    cfg = recover_binary_cfg(asm.build())
    target = 0x1001
    assert target in cfg.blocks
    # The nop block falls through into the split-off target block.
    fallthrough = [
        e for e in cfg.edges
        if e.kind is EdgeKind.FALLTHROUGH and e.dst == target
    ]
    assert fallthrough
    assert cfg.blocks[0x1000].end == target


def test_call_edges_and_return_resumption():
    slot = 0xFFFFFFFFFF600008
    asm = Assembler(base=0x1000)
    asm.entry()
    asm.raw(enc_call_abs_ind(slot))
    asm.nop()
    asm.hlt()
    cfg = recover_binary_cfg(asm.build())
    resume = 0x1007  # after the 7-byte call
    kinds = {(e.dst, e.kind) for e in cfg.edges}
    assert (slot, EdgeKind.CALL) in kinds
    assert (resume, EdgeKind.CALL_RETURN) in kinds
    # The call ends its block; execution resumes in a block of its own.
    assert cfg.blocks[0x1000].end == resume
    assert [i.mnemonic for _, i in cfg.blocks[resume].instructions] == [
        "nop", "hlt",
    ]
    # The return point is a landing target; the slot is outside text.
    assert resume in cfg.landing_targets()
    assert slot in cfg.external_targets


def test_syscall_gets_trap_resume_edge():
    asm = Assembler(base=0x1000)
    asm.syscall_site(0, style="mov_eax")
    asm.hlt()
    cfg = recover_binary_cfg(asm.build())
    resume = [e for e in cfg.edges if e.kind is EdgeKind.TRAP_RESUME]
    assert len(resume) == 1
    assert resume[0].src == 0x1005   # the syscall
    assert resume[0].dst == 0x1007   # the hlt after it


def test_indirect_call_target_recorded_external():
    slot = 0xFFFFFFFFFF600008
    code = enc_call_abs_ind(slot) + b"\xf4"
    cfg = recover_cfg(code, 0x1000, [0x1000])
    assert slot in cfg.external_targets
    assert (0x1007, EdgeKind.CALL_RETURN) in {
        (e.dst, e.kind) for e in cfg.edges
    }


def test_reachable_invalid_bytes_recorded():
    # Entry walks straight into a 0x60 byte (invalid in 64-bit mode).
    cfg = recover_cfg(b"\x90\x60\xff", 0x1000, [0x1000])
    assert cfg.invalid_addrs == {0x1001}
    assert 0x1000 in cfg.instructions


def test_unreachable_data_not_decoded():
    asm = Assembler(base=0x1000)
    asm.jmp("over")
    asm.raw(b"\x60\x61\x62\x63")
    asm.label("over")
    asm.hlt()
    cfg = recover_binary_cfg(asm.build())
    assert cfg.invalid_addrs == set()
    assert all(a not in cfg.instructions for a in range(0x1005, 0x1009))


def test_landing_targets_exclude_plain_fallthrough():
    asm = Assembler(base=0x1000)
    asm.mov_imm32(Reg.RBX, 1)
    asm.dec(Reg.RBX)
    asm.jne("done")
    asm.nop()
    asm.label("done")
    asm.hlt()
    binary = asm.build()
    cfg = recover_binary_cfg(binary)
    targets = cfg.landing_targets()
    assert binary.symbols["done"] in targets
    # The nop after the branch is reached only by fall-through.
    nop_addr = binary.symbols["done"] - 1
    assert nop_addr not in targets


def test_instruction_before_walks_one_step():
    asm = Assembler(base=0x1000)
    asm.nop()
    asm.inc(Reg.RCX)
    asm.hlt()
    cfg = recover_binary_cfg(asm.build())
    addr, instr = cfg.instruction_before(0x1001)
    assert (addr, instr.mnemonic) == (0x1000, "nop")
    # Nothing straight-line flows into the entry.
    assert cfg.instruction_before(0x1000) is None
