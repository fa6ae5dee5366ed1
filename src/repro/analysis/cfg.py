"""Recursive-descent CFG recovery over a binary's text bytes.

The §4.4 safety argument for ABOM is a *static* claim: no branch target
may land inside a patched window except the ``0x60 0xff`` tail that the
#UD fixup catches.  Verifying it requires knowing every address control
flow can land on, which is exactly what a control-flow graph gives us.

Recovery runs in two passes:

1. **Instruction discovery** — depth-first decode from the entry points
   (program entry plus every symbol), following direct jumps, branches
   and calls.  Instruction boundaries come from the decoder itself, so
   the graph sees the same bytes the interpreter executes.  Undecodable
   bytes end the path and are recorded (data embedded in text, or the
   ``0x60 0xff`` tail of an already-patched call).
2. **Block construction** — leaders are the entry points plus every
   in-text control-transfer target plus every trap-resume address; the
   decoded instructions are grouped into maximal straight-line runs
   between leaders and terminators.

Indirect control flow in the modeled subset is benign by construction:
``callq *disp32`` names its slot address in the instruction (and in this
platform always targets the vsyscall page, i.e. outside text), and the
subset has no ``ret``.  Slot addresses and undecodable bytes are still
surfaced via :attr:`CFG.external_targets` / :attr:`CFG.invalid_addrs`
so the safety pass can refuse to certify what it cannot see.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.binary import Binary
from repro.arch.encoding import Instruction, InvalidOpcode, decode

#: Mnemonics whose targets are direct (relative) and statically known.
_DIRECT_JUMPS = frozenset({"jmp_rel8", "jmp_rel32"})
_COND_BRANCHES = frozenset({"je_rel8", "jne_rel8"})
#: Mnemonics that never fall through.
_NO_FALLTHROUGH = frozenset({"jmp_rel8", "jmp_rel32", "hlt"})


class EdgeKind(enum.Enum):
    """How control moves from one place to another."""

    FALLTHROUGH = "fallthrough"
    JUMP = "jump"
    BRANCH = "branch"
    CALL = "call"
    #: Where a call resumes after the callee returns.
    CALL_RETURN = "call-return"
    #: Resumption after a trapping instruction (``syscall``).
    TRAP_RESUME = "trap-resume"


@dataclass(frozen=True)
class Edge:
    """One CFG edge: ``src`` is the transferring instruction's address."""

    src: int
    dst: int
    kind: EdgeKind


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int
    instructions: list[tuple[int, Instruction]]

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        addr, instr = self.instructions[-1]
        return addr + instr.length


@dataclass
class CFG:
    """Recovered control-flow graph of one binary's text."""

    base: int
    end: int
    entries: tuple[int, ...]
    #: Every decoded instruction, keyed by address.
    instructions: dict[int, Instruction]
    blocks: dict[int, BasicBlock] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    #: Direct targets outside ``[base, end)`` (e.g. vsyscall slots).
    external_targets: set[int] = field(default_factory=set)
    #: Addresses where decoding failed (data in text, patch tails).
    invalid_addrs: set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def landing_targets(self) -> set[int]:
        """Every in-text address control flow can *land* on non-sequentially.

        This is the set the §4.4 window checks are run against: jump and
        branch targets, call targets, call-return resumption points, and
        trap resumption points.  Sequential fall-through within a block
        cannot land mid-window because instruction boundaries forbid it.
        """
        out = set(self.entries)
        for edge in self.edges:
            if edge.kind is not EdgeKind.FALLTHROUGH:
                out.add(edge.dst)
        return {t for t in out if self.base <= t < self.end}

    def syscall_addrs(self) -> list[int]:
        """Addresses of every reachable ``syscall`` instruction."""
        return sorted(
            addr for addr, instr in self.instructions.items()
            if instr.mnemonic == "syscall"
        )

    def instruction_before(self, addr: int) -> tuple[int, Instruction] | None:
        """The instruction that straight-line flows into ``addr``, if any.

        Returns the unique decoded instruction ending exactly at ``addr``
        that is not a no-fallthrough terminator — i.e. walking backwards
        one step through the CFG.
        """
        for back in range(1, 16):
            prev = self.instructions.get(addr - back)
            if prev is None:
                continue
            if addr - back + prev.length != addr:
                return None
            if prev.mnemonic in _NO_FALLTHROUGH:
                return None
            return addr - back, prev
        return None


def recover_cfg(
    code: bytes, base: int, entries: tuple[int, ...] | list[int]
) -> CFG:
    """Recursive-descent disassembly of ``code`` mapped at ``base``."""
    end = base + len(code)

    def in_text(addr: int) -> bool:
        return base <= addr < end

    entry_list = tuple(sorted({a for a in entries if in_text(a)}))

    instructions: dict[int, Instruction] = {}
    edges: list[Edge] = []
    external: set[int] = set()
    invalid: set[int] = set()
    leaders: set[int] = set(entry_list)

    worklist: list[int] = list(entry_list)
    visited: set[int] = set()

    def transfer(src: int, dst: int, kind: EdgeKind) -> None:
        edges.append(Edge(src, dst, kind))
        if in_text(dst):
            leaders.add(dst)
            worklist.append(dst)
        else:
            external.add(dst)

    while worklist:
        addr = worklist.pop()
        while in_text(addr) and addr not in visited:
            visited.add(addr)
            try:
                instr = decode(code, addr - base)
            except InvalidOpcode:
                invalid.add(addr)
                break
            instructions[addr] = instr
            nxt = addr + instr.length
            name = instr.mnemonic
            if name in _DIRECT_JUMPS:
                transfer(addr, nxt + instr.operands[0], EdgeKind.JUMP)
                break
            if name in _COND_BRANCHES:
                transfer(addr, nxt + instr.operands[0], EdgeKind.BRANCH)
                edges.append(Edge(addr, nxt, EdgeKind.FALLTHROUGH))
                addr = nxt
                continue
            if name == "call_abs_ind":
                # The operand is the *slot* address the target is loaded
                # from; on this platform that is the vsyscall page, i.e.
                # always external to text.
                transfer(addr, instr.operands[0], EdgeKind.CALL)
                transfer(addr, nxt, EdgeKind.CALL_RETURN)
                break
            if name == "syscall":
                transfer(addr, nxt, EdgeKind.TRAP_RESUME)
                break
            if name == "hlt":
                break
            addr = nxt

    cfg = CFG(
        base=base,
        end=end,
        entries=entry_list,
        instructions=instructions,
        edges=edges,
        external_targets=external,
        invalid_addrs=invalid,
    )
    _build_blocks(cfg, leaders)
    return cfg


def _build_blocks(cfg: CFG, leaders: set[int]) -> None:
    """Group decoded instructions into maximal blocks between leaders."""
    addrs = sorted(cfg.instructions)
    current: BasicBlock | None = None
    for addr in addrs:
        instr = cfg.instructions[addr]
        if current is None or addr in leaders or current.end != addr:
            if current is not None:
                cfg.blocks[current.start] = current
            current = BasicBlock(start=addr, instructions=[])
        current.instructions.append((addr, instr))
        ends_block = (
            instr.mnemonic in _NO_FALLTHROUGH
            or instr.mnemonic in _COND_BRANCHES
            or instr.mnemonic in ("call_abs_ind", "syscall")
        )
        if ends_block:
            cfg.blocks[current.start] = current
            current = None
    if current is not None:
        cfg.blocks[current.start] = current
    # A block split by a leader (not by a terminator) falls through into
    # the next block; record that edge so the graph stays complete.
    terminators = (
        _NO_FALLTHROUGH | _COND_BRANCHES
        | {"call_abs_ind", "syscall"}
    )
    for block in cfg.blocks.values():
        last_addr, last = block.instructions[-1]
        if last.mnemonic not in terminators and block.end in cfg.blocks:
            cfg.edges.append(
                Edge(last_addr, block.end, EdgeKind.FALLTHROUGH)
            )


def recover_binary_cfg(binary: Binary) -> CFG:
    """CFG of ``binary`` from its entry point and all symbols."""
    entries = [binary.entry, *binary.symbols.values()]
    return recover_cfg(binary.code, binary.base, entries)
