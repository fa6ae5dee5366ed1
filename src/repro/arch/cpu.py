"""CPU interpreter for the x86-64 subset.

The interpreter executes real machine code from :class:`PagedMemory` and
delivers traps (``syscall``, #UD, page faults) to a pluggable trap
handler — in this reproduction the trap handler is the platform's kernel
model (host Linux, stock Xen PV, the X-Kernel, the gVisor Sentry, ...).

Two hooks make the LibOS integration possible without writing the whole
LibOS in machine code:

* **trap handler** — invoked with a :class:`Trap`; it may mutate CPU state
  (deliver the syscall, fix RIP after a #UD in a patched call tail, ...);
* **native stubs** — addresses that, when reached by RIP, invoke a Python
  callable instead of fetching code.  The X-LibOS maps its syscall-entry
  stubs (the targets of the vsyscall entry table) this way.  A stub is
  responsible for its own ``ret`` semantics.

Decode performance comes from a **basic-block cache**: on the first visit
to an address the interpreter decodes straight-line instructions until a
control transfer, trap instruction, or page boundary, resolves each one's
semantics handler from the dispatch table, and stores the block stamped
with the generation counters of the page(s) it spans.  Later visits
execute the pre-decoded block without touching the decoder.  A write to
any stamped page — including ABOM's ``cmpxchg`` patches landing on live
text (§4.4) — invalidates the block before its next execution, so
self-modifying code is always observed.  On top of the block cache sits
a **trace cache** (:mod:`repro.arch.tracecache`): hot block chains are
stitched into superblocks and compiled into specialized Python functions
dispatched from :meth:`CPU.run`, with guard checks bailing back to the
interpreter at the exact RIP.  See ``docs/interpreter_performance.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.arch.encoding import (
    ALL_MNEMONICS,
    BLOCK_TERMINATORS,
    Instruction,
    InvalidOpcode,
    decode,
)
from repro.arch.memory import PAGE_SHIFT, PAGE_SIZE, PagedMemory, PageFault
from repro.arch.registers import RegisterFile, to_signed64
from repro.arch.tracecache import TraceCache, TraceStats
from repro.perf.clock import SimClock

MASK64 = (1 << 64) - 1
MAX_INSTR_LEN = 15
#: Straight-line decode stops after this many instructions per block.
MAX_BLOCK_INSTRS = 64


class TrapKind(enum.Enum):
    SYSCALL = "syscall"
    INVALID_OPCODE = "invalid_opcode"
    PAGE_FAULT = "page_fault"


class Trap(Exception):
    """An architectural trap delivered to the platform's kernel model.

    Every executed ``syscall`` builds one, so the message is formatted
    only when the trap is printed.
    """

    def __init__(self, kind: TrapKind, rip: int, detail: str = "") -> None:
        self.kind = kind
        self.rip = rip
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.rip:#x} {self.detail}".strip()


class CpuHalted(Exception):
    """Raised by :meth:`CPU.run` when the program halts (hlt / exit)."""


TrapHandler = Callable[["CPU", Trap], None]
NativeStub = Callable[["CPU"], None]


# ----------------------------------------------------------------------
# Semantics handlers (table-driven dispatch)
#
# One function per mnemonic, resolved once at decode time and stored on
# the cached block, replacing the former ~30-arm if/elif chain.  Every
# handler receives the pre-computed fall-through address and is
# responsible for setting ``regs.rip`` (taken branches override it).
# ----------------------------------------------------------------------
def _h_nop(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu.regs.rip = next_rip


def _h_hlt(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    cpu.halted = True


def deliver_syscall(cpu: "CPU", rip: int) -> None:
    """Deliver the ``syscall`` at ``rip`` to ``cpu``'s trap handler.

    The one owner of syscall delivery: the interpreter's ``syscall``
    handler and compiled traces (:mod:`repro.arch.tracecache`) both call
    it, with registers, RIP, the retired count and the clock already in
    their interpreter-visible state.  The caller retires the instruction.
    """
    trap = Trap(TrapKind.SYSCALL, rip)
    handler = cpu.trap_handler
    if handler is None:
        raise trap
    handler(cpu, trap)


def _h_syscall(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    # Deliver BEFORE advancing RIP: handlers (the X-Kernel's ABOM hook in
    # particular) need the syscall instruction's address.
    deliver_syscall(cpu, cpu.regs.rip)


def _h_mov_r32_imm32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    cpu.regs.write32(reg, imm)
    cpu.regs.rip = next_rip


def _h_mov_r64_imm32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    cpu.regs.write64(reg, imm & MASK64)
    cpu.regs.rip = next_rip


def _h_mov_r64_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    cpu.regs.write64(dst, cpu.regs.read64(src))
    cpu.regs.rip = next_rip


def _h_mov_r64_rsp_disp8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, disp = instr.operands
    cpu.regs.write64(reg, cpu.mem.read_u64((cpu.regs.rsp + disp) & MASK64))
    cpu.regs.rip = next_rip


def _h_mov_rsp_disp8_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    disp, reg = instr.operands
    cpu.mem.write_u64((cpu.regs.rsp + disp) & MASK64, cpu.regs.read64(reg))
    cpu.regs.rip = next_rip


def _h_push_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    cpu.push64(cpu.regs.read64(reg))
    cpu.regs.rip = next_rip


def _h_pop_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    regs = cpu.regs
    value = cpu.mem.read_u64(regs.rsp)
    regs.rsp = (regs.rsp + 8) & MASK64
    # pop %rsp: the popped value replaces the incremented pointer.
    regs.write64(reg, value)
    regs.rip = next_rip


def _h_call_abs_ind(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (slot_addr,) = instr.operands
    target = cpu.mem.read_u64(slot_addr)
    cpu.push64(next_rip)
    cpu.regs.rip = target


def _h_jmp_rel(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = (next_rip + rel) & MASK64


def _h_je_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = (next_rip + rel) & MASK64 if cpu.regs.zf else next_rip


def _h_jne_rel8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (rel,) = instr.operands
    cpu.regs.rip = next_rip if cpu.regs.zf else (next_rip + rel) & MASK64


def _h_add_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    result = (cpu.regs.read64(reg) + imm) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_sub_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    result = (cpu.regs.read64(reg) - imm) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_cmp_r64_imm8(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    reg, imm = instr.operands
    value = cpu.regs.read64(reg)
    result = (value - imm) & MASK64
    cpu._set_flags(result)
    cpu.regs.cf = value < (imm & MASK64)
    cpu.regs.rip = next_rip


def _h_inc_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    result = (cpu.regs.read64(reg) + 1) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_dec_r64(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    (reg,) = instr.operands
    result = (cpu.regs.read64(reg) - 1) & MASK64
    cpu.regs.write64(reg, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


def _h_xor_r32_r32(cpu: "CPU", instr: Instruction, next_rip: int) -> None:
    dst, src = instr.operands
    result = cpu.regs.read32(dst) ^ cpu.regs.read32(src)
    cpu.regs.write32(dst, result)
    cpu._set_flags(result)
    cpu.regs.rip = next_rip


InstrHandler = Callable[["CPU", Instruction, int], None]

HANDLERS: dict[str, InstrHandler] = {
    "nop": _h_nop,
    "hlt": _h_hlt,
    "syscall": _h_syscall,
    "mov_r32_imm32": _h_mov_r32_imm32,
    "mov_r64_imm32": _h_mov_r64_imm32,
    "mov_r64_r64": _h_mov_r64_r64,
    "mov_r64_rsp_disp8": _h_mov_r64_rsp_disp8,
    "mov_rsp_disp8_r64": _h_mov_rsp_disp8_r64,
    "push_r64": _h_push_r64,
    "pop_r64": _h_pop_r64,
    "call_abs_ind": _h_call_abs_ind,
    "jmp_rel8": _h_jmp_rel,
    "jmp_rel32": _h_jmp_rel,
    "je_rel8": _h_je_rel8,
    "jne_rel8": _h_jne_rel8,
    "add_r64_imm8": _h_add_r64_imm8,
    "sub_r64_imm8": _h_sub_r64_imm8,
    "cmp_r64_imm8": _h_cmp_r64_imm8,
    "inc_r64": _h_inc_r64,
    "dec_r64": _h_dec_r64,
    "xor_r32_r32": _h_xor_r32_r32,
}

assert set(HANDLERS) == ALL_MNEMONICS, "decoder and executor out of sync"


# ----------------------------------------------------------------------
# Decode cache
# ----------------------------------------------------------------------
@dataclass
class ICacheStats:
    """Decode-cache counters, exposed for benchmarks and perf reporting.

    ``hits`` counts instructions executed from cached blocks, ``misses``
    counts block decodes (cache fills), and ``invalidations`` counts
    blocks dropped because a store (or permission change) touched one of
    the pages they were decoded from.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hits / total if total else 0.0,
        }


class _Block:
    """A decoded straight-line run of instructions.

    ``ops`` holds ``(addr, handler, instr, next_rip)`` tuples; ``pages``
    the ``(page_index, generation)`` stamps of every page the block's
    bytes span.  ``live`` flips to False on eviction so an executing
    cursor holding a reference abandons the block mid-run — the moment an
    ABOM patch lands on the current block, the very next instruction is
    re-fetched from the rewritten bytes.
    """

    __slots__ = ("start", "ops", "pages", "live")

    def __init__(self, start, ops, pages) -> None:
        self.start = start
        self.ops = ops
        self.pages = pages
        self.live = True


class CPU:
    """Interprets the instruction subset over paged memory."""

    def __init__(
        self,
        memory: PagedMemory,
        clock: SimClock | None = None,
        instruction_ns: float = 0.0,
        icache: bool = True,
        tracecache: bool = True,
    ) -> None:
        self.mem = memory
        self.regs = RegisterFile()
        self.clock = clock if clock is not None else SimClock()
        self.instruction_ns = instruction_ns
        self.trap_handler: Optional[TrapHandler] = None
        self.native_stubs: dict[int, NativeStub] = {}
        self.instructions_retired = 0
        self.halted = False
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`; block
        #: decode reports an exec access for the race detector.  ``None``
        #: keeps the hook a single attribute test on the cold decode path.
        self.sanitizer = None
        #: Name this CPU's accesses are attributed to by the sanitizers.
        self.actor = "cpu"
        self.icache_enabled = icache
        self.icache_stats = ICacheStats()
        self.trace_stats = TraceStats()
        #: Cached blocks keyed by start address.
        self._blocks: dict[int, _Block] = {}
        #: page index -> start addresses of blocks decoded from that page.
        self._page_blocks: dict[int, set[int]] = {}
        #: (block, next op index) continuation for straight-line execution.
        self._cursor: Optional[tuple[_Block, int]] = None
        # The trace cache profiles block entries observed by the icache,
        # so it requires the icache to be enabled.
        self._tracecache: Optional[TraceCache] = (
            TraceCache(self, stats=self.trace_stats)
            if icache and tracecache
            else None
        )
        if icache:
            memory.add_write_observer(self._invalidate_written)

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------
    def push64(self, value: int) -> None:
        self.regs.rsp = (self.regs.rsp - 8) & MASK64
        self.mem.write_u64(self.regs.rsp, value)

    # ------------------------------------------------------------------
    # Fetch/decode
    # ------------------------------------------------------------------
    def _fetch_window(self, addr: int, size: int = MAX_INSTR_LEN) -> bytes:
        """Read up to ``size`` executable bytes starting at ``addr``."""
        try:
            window = self.mem.fetch(addr, size)
        except PageFault as exc:
            raise Trap(TrapKind.PAGE_FAULT, addr, exc.reason) from None
        return window

    # ------------------------------------------------------------------
    # Decode cache
    # ------------------------------------------------------------------
    def _cached_op(self, rip: int):
        """The pre-decoded op at ``rip``, or None on a cache miss."""
        cursor = self._cursor
        if cursor is not None:
            block, index = cursor
            if block.live and index < len(block.ops):
                op = block.ops[index]
                if op[0] == rip:
                    self._cursor = (block, index + 1)
                    self.icache_stats.hits += 1
                    return op
            self._cursor = None
        block = self._blocks.get(rip)
        if block is None:
            return None
        # Generation check: the write observer evicts eagerly, but a block
        # can also go stale without an observed store (e.g. this CPU was
        # attached after another mutated the text).  Stamps are the
        # ground truth; the observer is the fast path.
        generation_of = self.mem.page_generation_index
        for index, stamp in block.pages:
            if generation_of(index) != stamp:
                self._evict(block)
                self.icache_stats.invalidations += 1
                return None
        self._cursor = (block, 1)
        self.icache_stats.hits += 1
        tc = self._tracecache
        if tc is not None:
            tc.note_block(rip)
        return block.ops[0]

    def _fill_block(self, rip: int) -> _Block:
        """Decode a basic block starting at ``rip`` and cache it.

        Decoding runs straight-line until a control transfer, trap
        instruction, page boundary, native-stub address, or undecodable
        bytes.  Raises :class:`InvalidOpcode` when the *first* instruction
        is undecodable (the caller delivers #UD) and :class:`Trap` when
        the fetch itself faults.
        """
        self.icache_stats.misses += 1
        mem = self.mem
        page_end = (rip & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        window = self._fetch_window(rip, (page_end - rip) + MAX_INSTR_LEN)
        stubs = self.native_stubs
        ops = []
        offset = 0
        while True:
            addr = rip + offset
            if addr >= page_end:
                break
            if ops and addr in stubs:
                break
            try:
                instr = decode(window, offset)
            except InvalidOpcode:
                if not ops:
                    raise
                break
            offset += instr.length
            ops.append((addr, HANDLERS[instr.mnemonic], instr, rip + offset))
            if instr.mnemonic in BLOCK_TERMINATORS or len(ops) >= MAX_BLOCK_INSTRS:
                break
        first_page = rip >> PAGE_SHIFT
        last_page = (rip + offset - 1) >> PAGE_SHIFT
        pages = tuple(
            (index, mem.page_generation_index(index))
            for index in range(first_page, last_page + 1)
        )
        block = _Block(rip, ops, pages)
        self._blocks[rip] = block
        for index, _ in pages:
            self._page_blocks.setdefault(index, set()).add(rip)
        san = self.sanitizer
        if san is not None:
            # Decode is the moment text bytes are consumed; the exec
            # access synchronizes on the per-page generation channel.
            san.on_exec(self.actor, rip, max(offset, 1))
        return block

    def _evict(self, block: _Block) -> None:
        block.live = False
        self._blocks.pop(block.start, None)
        for index, _ in block.pages:
            starts = self._page_blocks.get(index)
            if starts is not None:
                starts.discard(block.start)
                if not starts:
                    del self._page_blocks[index]

    def _invalidate_written(self, addr: int, size: int) -> None:
        """Write-observer hook: drop blocks decoded from written pages."""
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        page_blocks = self._page_blocks
        tc = self._tracecache
        if (
            first == last
            and first not in page_blocks
            and (tc is None or first not in tc.page_traces)
        ):
            # A data store (a stack push, say): no text to drop.
            return
        if tc is not None and (tc.traces or tc.failed):
            tc.invalidate_range(first, last)
        if not page_blocks:
            return
        for index in range(first, last + 1):
            starts = page_blocks.get(index)
            if not starts:
                continue
            for start in list(starts):
                block = self._blocks.get(start)
                if block is not None:
                    self._evict(block)
                    self.icache_stats.invalidations += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or one native stub)."""
        if self.halted:
            raise CpuHalted()
        rip = self.regs.rip
        stub = self.native_stubs.get(rip)
        if stub is not None:
            stub(self)
            self._charge()
            return
        if self.icache_enabled:
            op = self._cached_op(rip)
            if op is None:
                try:
                    block = self._fill_block(rip)
                except InvalidOpcode as exc:
                    self._deliver(
                        Trap(TrapKind.INVALID_OPCODE, rip, f"byte {exc.byte:#04x}")
                    )
                    self._charge()
                    return
                self._cursor = (block, 1)
                op = block.ops[0]
                tc = self._tracecache
                if tc is not None:
                    tc.note_block(rip)
            op[1](self, op[2], op[3])
            self._charge()
            return
        # The uncached reference path: decode and dispatch every time.
        try:
            instr = decode(self._fetch_window(rip), 0)
        except InvalidOpcode as exc:
            self._deliver(
                Trap(TrapKind.INVALID_OPCODE, rip, f"byte {exc.byte:#04x}")
            )
            self._charge()
            return
        HANDLERS[instr.mnemonic](self, instr, rip + instr.length)
        self._charge()

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until halt; returns instructions retired in this call.

        This is the only dispatch point for compiled traces: ``step()``
        keeps strict one-instruction granularity (``run_concurrent``'s
        quantum interleaving depends on it), while ``run`` may retire a
        whole superblock per iteration.  A trace entry that returns 0
        (stale stamps, insufficient fuel) falls through to ``step()`` so
        forward progress is always made.
        """
        start = self.instructions_retired
        tc = self._tracecache
        while not self.halted:
            executed = self.instructions_retired - start
            if executed >= max_instructions:
                raise RuntimeError(
                    f"instruction budget exhausted ({max_instructions})"
                )
            if tc is not None and tc.traces:
                if tc.execute(self.regs.rip, max_instructions - executed):
                    continue
            self.step()
        return self.instructions_retired - start

    def _charge(self) -> None:
        self.instructions_retired += 1
        if self.instruction_ns:
            self.clock.advance(self.instruction_ns)

    def _deliver(self, trap: Trap) -> None:
        if self.trap_handler is None:
            raise trap
        self.trap_handler(self, trap)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def _set_flags(self, result: int) -> None:
        self.regs.zf = result == 0
        self.regs.sf = to_signed64(result) < 0
