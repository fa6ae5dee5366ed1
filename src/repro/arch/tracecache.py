"""Trace-compiled superblocks over the basic-block decode cache.

The decode cache (``docs/interpreter_performance.md``) removed the
decoder from the hot path but still pays a dict lookup, a tuple unpack,
and a handler call *per instruction*.  This module removes the dispatch
itself: block-entry counts are profiled in the icache hit path, and when
a head crosses :data:`HOT_THRESHOLD` the chain of blocks it leads into
is stitched into a **superblock** and compiled — with Python's own
``compile()`` — into one specialized function:

* handler dispatch is gone — each instruction becomes one or two
  generated statements with its decoded operands folded in as literals;
* the register file is lowered to locals (only registers the trace
  touches are loaded/spilled);
* the single-page ``read/write_u64`` fast paths are inlined;
* chains that close back on their head become ``while True:`` loops, so
  a 2000-iteration guest loop is one host-level call.

Correctness is guard-based, exactly like a hardware trace cache:

* **branch guards** — each conditional branch is compiled in its
  profiled direction; the other direction spills the locals and exits at
  the architecturally exact RIP;
* **value guards** — an indirect call into a native stub checks the
  vsyscall slot still holds the compile-time target;
* **page-generation guards** — every execution validates the generation
  stamps of all pages the trace was compiled from (the same counters the
  icache stamps blocks with), so NX flips and foreign writes are caught
  at entry;
* **liveness guards** — the write-observer protocol that evicts icache
  blocks also flips the trace's ``live`` cell; compiled code re-checks
  it after stores and native-stub calls, so an ABOM §4.4 ``cmpxchg``
  patch landing *mid-trace* (from a trap taken inside the trace, or a
  racing vCPU between quanta) aborts to the interpreter before any
  stale instruction runs.

A ``syscall`` compiles into a guarded call to
:func:`repro.arch.cpu.deliver_syscall`, the function the interpreter's
own ``syscall`` handler calls, so trap delivery keeps one owner; the
trace resumes only if the handler left RIP at the next instruction, the
CPU running and the trace live.  A ``call *slot`` into a native stub is
invoked inline the same way; one into guest code, and ``hlt``, end the
trace.
Instruction accounting and simulated-clock charging are synchronized
before every native-stub call and ``syscall`` and at every exit, so
counters and timestamps observable from Python (stubs, trap handlers)
match interpreted execution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.arch.memory import PageFault
from repro.arch.encoding import InvalidOpcode

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.cpu import CPU, Trap

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1
SIGN64 = 1 << 63

#: Block-entry count at which a head is considered hot and compiled.
#: Module-level so tests can lower it; sized so short diagnostic runs
#: (the obs demo, the SMC suites) stay trace-free and byte-stable.
HOT_THRESHOLD = 50
#: Hard ceilings on superblock size.
MAX_TRACE_OPS = 256
MAX_TRACE_BLOCKS = 32
#: Linear (non-looping) traces shorter than this lose to the icache.
MIN_LINEAR_OPS = 8

#: Recorded trace shape → (compiled code object, source length).  The
#: key is everything the generated source depends on (head, steps, loop,
#: retire total, whether instructions charge the clock), so identical
#: programs (fresh CPUs over the same text, benchmark rounds, every
#: ``CostModel``) share one ``_generate`` and ``compile()`` process-wide.
_CODE_MEMO: dict[tuple, tuple[object, int]] = {}


@dataclass
class TraceStats:
    """Trace-cache counters (wired into ``repro.obs`` as
    ``arch_trace_*``).

    ``compiles`` counts installed traces, ``aborts`` chains rejected by
    the recorder, ``executions`` entries into compiled code,
    ``instructions`` instructions retired inside traces, ``guard_exits``
    bail-outs through any guard (branch direction, slot value, SMC
    liveness), and ``invalidations`` traces evicted by stores or
    page-generation mismatches.  ``code_bytes`` is a gauge: generated
    source bytes currently live.
    """

    compiles: int = 0
    aborts: int = 0
    executions: int = 0
    instructions: int = 0
    guard_exits: int = 0
    invalidations: int = 0
    code_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "compiles": self.compiles,
            "aborts": self.aborts,
            "executions": self.executions,
            "instructions": self.instructions,
            "guard_exits": self.guard_exits,
            "invalidations": self.invalidations,
            "code_bytes": self.code_bytes,
        }


class CompiledTrace:
    """One installed superblock: the generated function plus the
    metadata needed to guard and evict it."""

    __slots__ = ("head", "fn", "pages", "live", "ops", "blocks", "code_size", "loop")

    def __init__(self, head, fn, pages, live, ops, blocks, code_size, loop):
        self.head = head
        self.fn = fn
        #: ``(page_index, generation)`` stamps validated on every entry.
        self.pages = pages
        #: One-cell list shared with the generated code; ``[False]``
        #: after eviction, checked mid-trace after stores and stubs.
        self.live = live
        self.ops = ops
        self.blocks = blocks
        self.code_size = code_size
        self.loop = loop


class _Abort(Exception):
    """Recorder bail-out: the chain is not worth (or not safe) compiling."""


# ----------------------------------------------------------------------
# Recorder: stitch hot block chains into a superblock plan
# ----------------------------------------------------------------------

#: mnemonic -> (registers read/written, flags defined) used for local
#: lowering and dead-flag elimination.
_JCC_USES = {
    "je_rel8": ("zf",),
    "jne_rel8": ("zf",),
}
_FLAG_DEFS = {
    "add_r64_imm8": ("zf", "sf"),
    "sub_r64_imm8": ("zf", "sf"),
    "inc_r64": ("zf", "sf"),
    "dec_r64": ("zf", "sf"),
    "xor_r32_r32": ("zf", "sf"),
    "cmp_r64_imm8": ("zf", "sf", "cf"),
}
#: Steps whose generated code can spill on a fault or exit: any flag is
#: observable there, so upstream definitions must not be eliminated.
_MEM_OPS = {
    "mov_r64_rsp_disp8",
    "mov_rsp_disp8_r64",
    "push_r64",
    "pop_r64",
}


class TraceCache:
    """Per-vCPU trace cache: profiler, recorder, codegen, guards."""

    def __init__(self, cpu: "CPU", stats: Optional[TraceStats] = None) -> None:
        self.cpu = cpu
        self.hot_threshold = HOT_THRESHOLD
        self.stats = stats if stats is not None else TraceStats()
        #: head rip -> :class:`CompiledTrace`.
        self.traces: dict[int, CompiledTrace] = {}
        #: block-entry profile (head rip -> count).
        self.counts: dict[int, int] = {}
        #: heads whose chains were rejected; cleared when text changes.
        self.failed: set[int] = set()
        #: page index -> head rips of traces compiled from that page.
        self.page_traces: dict[int, set[int]] = {}
        #: optional :class:`repro.obs.TraceRecorder` for compile events.
        self.tracer = None

    # -- profiling -----------------------------------------------------
    def note_block(self, rip: int) -> None:
        """Called by the CPU on every block entry (icache hit or fill)."""
        counts = self.counts
        count = counts.get(rip, 0) + 1
        counts[rip] = count
        if (
            count >= self.hot_threshold
            and rip not in self.traces
            and rip not in self.failed
        ):
            self._compile(rip)

    # -- execution -----------------------------------------------------
    def execute(self, rip: int, fuel: int) -> int:
        """Run the trace at ``rip`` if one is installed and still valid.

        Returns instructions retired (0 = no trace ran; the caller must
        fall back to :meth:`CPU.step` to guarantee progress).
        """
        trace = self.traces.get(rip)
        if trace is None:
            return 0
        generation_of = self.cpu.mem.page_generation_index
        for index, stamp in trace.pages:
            if generation_of(index) != stamp:
                self._evict(trace)
                self.stats.invalidations += 1
                return 0
        self.stats.executions += 1
        retired = trace.fn(self.cpu, fuel)
        self.stats.instructions += retired
        return retired

    # -- invalidation (the icache's SMC protocol, extended) ------------
    def invalidate_range(self, first_page: int, last_page: int) -> None:
        """Write-observer hook: evict traces compiled from written pages.

        Also clears the failed-head blacklist when the write touched any
        known text page — an ABOM patch can turn an untraceable chain
        (one ending in ``syscall``) into a traceable one (ending in a
        patched ``call``), so rejected heads get a fresh look.
        """
        text_written = False
        page_traces = self.page_traces
        cpu_text = self.cpu._page_blocks
        for index in range(first_page, last_page + 1):
            if index in cpu_text:
                text_written = True
            heads = page_traces.get(index)
            if not heads:
                continue
            text_written = True
            for head in list(heads):
                trace = self.traces.get(head)
                if trace is not None:
                    self._evict(trace)
                    self.stats.invalidations += 1
        if text_written and self.failed:
            self.failed.clear()

    def _evict(self, trace: CompiledTrace) -> None:
        trace.live[0] = False
        if self.traces.get(trace.head) is trace:
            del self.traces[trace.head]
        self.stats.code_bytes -= trace.code_size
        for index, _ in trace.pages:
            heads = self.page_traces.get(index)
            if heads is not None:
                heads.discard(trace.head)
                if not heads:
                    del self.page_traces[index]

    # -- recording -----------------------------------------------------
    def _compile(self, head: int) -> None:
        # local: avoid import cycle
        from repro.arch.cpu import Trap, deliver_syscall

        instruction_ns = self.cpu.instruction_ns
        charge = bool(instruction_ns)
        try:
            steps, loop, retire_total, page_indexes = self._record(head, Trap)
            key = (head, tuple(steps), loop, retire_total, charge)
            memo = _CODE_MEMO.get(key)
            if memo is None:
                source = _generate(head, steps, loop, retire_total, charge)
                memo = (compile(source, f"<trace {head:#x}>", "exec"), len(source))
                _CODE_MEMO[key] = memo
        except _Abort:
            self.failed.add(head)
            self.stats.aborts += 1
            return
        code, code_size = memo
        live = [True]
        namespace = {
            "PageFault": PageFault,
            "M": MASK64,
            "S": SIGN64,
            "NS": float(instruction_ns),
            "SYSCALL": deliver_syscall,
            "_LIVE": live,
            "_STATS": self.stats,
        }
        exec(code, namespace)
        generation_of = self.cpu.mem.page_generation_index
        pages = tuple(
            (index, generation_of(index)) for index in sorted(page_indexes)
        )
        trace = CompiledTrace(
            head=head,
            fn=namespace["__trace__"],
            pages=pages,
            live=live,
            ops=retire_total,
            blocks=len(page_indexes),
            code_size=code_size,
            loop=loop,
        )
        self.traces[head] = trace
        for index, _ in pages:
            self.page_traces.setdefault(index, set()).add(head)
        self.stats.compiles += 1
        self.stats.code_bytes += code_size
        if self.tracer is not None:
            self.tracer.emit(
                "trace_compile",
                "compile",
                head=f"{head:#x}",
                ops=retire_total,
                loop=loop,
                code_bytes=code_size,
            )

    def _record(self, head: int, Trap) -> tuple[list, bool, int, set[int]]:
        """Follow the hot chain from ``head``; returns (steps, loop, cost).

        Step records (first two fields are always kind and address):

        * ``("op", addr, mnemonic, operands, next_rip)``
        * ``("cc", addr, mnemonic, taken_target, next_rip, predicted_taken)``
        * ``("jmp", addr, target)``
        * ``("stub_call", addr, slot, next_rip, target, resume)`` —
          ``call *slot`` whose target is a native stub, invoked inline
          (retires 2); ``resume`` folds in the LibOS dead-tail skip
        * ``("syscall", addr, next_rip)`` — delivered inline (retires 1);
          the trace goes on at ``next_rip``
        * ``("exit", addr)`` — exit *before* ``addr`` (``hlt``, a
          ``call *slot`` into guest code, unmapped code, size cap);
          retires nothing
        """
        cpu = self.cpu
        mem = cpu.mem
        counts = self.counts
        steps: list[tuple] = []
        visited: set[int] = set()
        page_indexes: set[int] = set()
        retired = 0
        loop = False
        cur = head
        while True:
            if steps and cur == head:
                loop = True
                break
            if (
                cur in visited
                or cur in cpu.native_stubs
                or retired >= MAX_TRACE_OPS
                or len(visited) >= MAX_TRACE_BLOCKS
            ):
                steps.append(("exit", cur))
                break
            visited.add(cur)
            block = cpu._blocks.get(cur)
            if block is None or not block.live:
                try:
                    block = cpu._fill_block(cur)
                except (Trap, InvalidOpcode, PageFault):
                    steps.append(("exit", cur))
                    break
            page_indexes.update(index for index, _ in block.pages)
            transferred = False
            ended = False
            for addr, _handler, instr, next_rip in block.ops:
                mnemonic = instr.mnemonic
                if mnemonic == "syscall":
                    steps.append(("syscall", addr, next_rip))
                    retired += 1
                    cur = next_rip
                    transferred = True
                    break
                if mnemonic == "hlt":
                    steps.append(("exit", addr))
                    ended = True
                    break
                if mnemonic == "call_abs_ind":
                    (slot,) = instr.operands
                    try:
                        target = mem.read_u64(slot)
                    except PageFault:
                        target = None
                    if target not in cpu.native_stubs:
                        # Guest code (or an unmapped slot): end here.
                        steps.append(("exit", addr))
                        ended = True
                        break
                    # The X-LibOS return-address protocol (§4.4) skips a
                    # dead ``syscall``/``jmp -9`` tail at the return
                    # address.  The skip is a pure function of those two
                    # bytes, which our page stamps pin — so the recorder
                    # can predict the resume point exactly.
                    resume = next_rip
                    try:
                        tail = mem.read(next_rip, 2)
                        if tail in (b"\x0f\x05", b"\xeb\xf7"):
                            resume = next_rip + 2
                    except PageFault:
                        pass
                    steps.append(
                        ("stub_call", addr, slot, next_rip, target, resume)
                    )
                    retired += 2  # the call and the stub step
                    cur = resume
                    transferred = True
                    break
                if mnemonic in ("jmp_rel8", "jmp_rel32"):
                    (rel,) = instr.operands
                    target = (next_rip + rel) & MASK64
                    steps.append(("jmp", addr, target))
                    retired += 1
                    cur = target
                    transferred = True
                    break
                if mnemonic in _JCC_USES:
                    (rel,) = instr.operands
                    taken = (next_rip + rel) & MASK64
                    if taken == head:
                        predicted = True
                    elif next_rip == head:
                        predicted = False
                    else:
                        predicted = counts.get(taken, 0) >= counts.get(next_rip, 0)
                    steps.append(("cc", addr, mnemonic, taken, next_rip, predicted))
                    retired += 1
                    cur = taken if predicted else next_rip
                    transferred = True
                    break
                steps.append(("op", addr, mnemonic, instr.operands, next_rip))
                retired += 1
            if ended:
                break
            if not transferred:
                # Block ended without a control transfer (page boundary,
                # decode split): fall through to the next address.
                cur = block.ops[-1][3] if block.ops else cur
                if not block.ops:
                    steps.append(("exit", cur))
                    break
        if retired == 0:
            raise _Abort
        if not loop and retired < MIN_LINEAR_OPS:
            raise _Abort
        return steps, loop, retired, page_indexes


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _regs_of(step) -> tuple[int, ...]:
    kind = step[0]
    if kind == "op":
        mnemonic, operands = step[2], step[3]
        if mnemonic == "nop":
            return ()
        if mnemonic in ("mov_r64_rsp_disp8", "push_r64", "pop_r64"):
            return (int(operands[0]), 4)
        if mnemonic == "mov_rsp_disp8_r64":
            return (int(operands[1]), 4)
        if mnemonic in ("mov_r64_r64", "xor_r32_r32"):
            return (int(operands[0]), int(operands[1]))
        return (int(operands[0]),)
    if kind == "stub_call":
        return (4,)
    return ()


def _flag_live_after(steps, index, flag, loop) -> bool:
    """Is the flag defined at ``steps[index]`` observable downstream?"""
    scan = list(range(index + 1, len(steps)))
    if loop:
        # The loop-top fuel/liveness exit spills every tracked flag.
        scan += [-1] + list(range(0, index + 1))
    for j in scan:
        if j == -1:
            return True
        step = steps[j]
        kind = step[0]
        if kind == "op":
            mnemonic = step[2]
            if mnemonic in _MEM_OPS:
                return True  # fault spill observes flags
            defs = _FLAG_DEFS.get(mnemonic, ())
            if flag in defs:
                return False
            continue
        if kind == "jmp":
            continue  # pure transition, no flag effects
        if kind == "cc":
            return True  # reads flags and/or spills on its guard exit
        return True  # stubs, syscalls and exits all spill
    return True  # linear trace end spills


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.pending = 0  # instructions retired since the last `n +=`
        #: True once a stub or ``syscall`` synced count and clock; with
        #: ``pending == 0`` it means ``n == _sy`` here, nothing to flush.
        self.synced = False

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)


def _generate(head, steps, loop, retire_total, charge) -> str:
    """Generate the trace function source for ``steps``.

    ``charge`` says whether retired instructions advance the clock; the
    per-instruction cost itself is the namespace's ``NS``, so one source
    serves every ``CostModel``.
    """
    tracked: set[int] = set()
    flags: set[str] = set()
    has_mem = False
    has_stub = any(s[0] == "stub_call" for s in steps)
    has_syscall = any(s[0] == "syscall" for s in steps)
    # Stubs and syscalls run foreign Python mid-trace: count and clock
    # are synced up to them (``_sy`` marks how far).
    has_sync = has_stub or has_syscall
    has_store = has_stub or any(
        s[0] == "op" and s[2] in ("mov_rsp_disp8_r64", "push_r64") for s in steps
    )
    for step in steps:
        tracked.update(_regs_of(step))
        kind = step[0]
        if kind == "op":
            flags.update(_FLAG_DEFS.get(step[2], ()))
            if step[2] in _MEM_OPS:
                has_mem = True
        elif kind == "cc":
            flags.update(_JCC_USES[step[2]])
        elif kind == "stub_call":
            has_mem = True
    regs = sorted(tracked)
    flag_list = [f for f in ("zf", "sf", "cf") if f in flags]
    # Mid-trace invalidation is only possible when the trace itself can
    # trigger a write or run foreign Python (a stub or a trap handler).
    live_check = has_store or has_sync

    def spill_lines() -> list[str]:
        out = [f"R[{r}] = r{r}" for r in regs]
        out += [f"regs.{f} = {f}" for f in flag_list]
        return out

    def reload_lines() -> list[str]:
        out = [f"r{r} = R[{r}]" for r in regs]
        out += [f"{f} = regs.{f}" for f in flag_list]
        return out

    def flush_lines(pending) -> list[str]:
        """Sync retired count + clock with the interpreter's view."""
        if not has_sync:
            out = ["cpu.instructions_retired += n"]
            if charge:
                out.append("_adv(n * _ns)")
            return out
        if not pending and em.synced:
            return []
        out = ["cpu.instructions_retired += n - _sy"]
        if charge:
            out.append("_adv((n - _sy) * _ns)")
        return out

    def exit_lines(pending, rip_expr, guard) -> list[str]:
        out = []
        if pending:
            out.append(f"n += {pending}")
        out += flush_lines(pending)
        out += spill_lines()
        out.append(f"regs.rip = {rip_expr}")
        if guard:
            out.append("_STATS.guard_exits += 1")
        out.append("return n")
        return out

    def fault_lines(pending, addr) -> list[str]:
        out = []
        if pending:
            out.append(f"n += {pending}")
        out += flush_lines(pending)
        out += spill_lines()
        out.append(f"regs.rip = {addr:#x}")
        out.append("raise")
        return out

    em = _Emitter()
    em.emit(0, "def __trace__(cpu, fuel):")
    em.emit(1, "regs = cpu.regs")
    em.emit(1, "R = regs._regs")
    em.emit(1, "n = 0")
    if has_sync:
        em.emit(1, "_sy = 0")
    em.emit(1, "_M = M")
    if any(s[0] == "op" and s[2] in _FLAG_DEFS for s in steps):
        em.emit(1, "_S = S")
    if has_mem:
        em.emit(1, "_mem = cpu.mem")
        em.emit(1, "_pget = _mem._pages.get")
        em.emit(1, "_obs = _mem._write_observers")
        em.emit(1, "_r64 = _mem.read_u64")
        em.emit(1, "_w64 = _mem.write_u64")
        em.emit(1, "_ifb = int.from_bytes")
    if has_stub:
        em.emit(1, "_stubs_get = cpu.native_stubs.get")
    if has_syscall:
        em.emit(1, "_sys = SYSCALL")
    if live_check:
        em.emit(1, "_L = _LIVE")
    if charge:
        em.emit(1, "_adv = cpu.clock.advance")
        em.emit(1, "_ns = NS")
    for r in regs:
        em.emit(1, f"r{r} = R[{r}]")
    for f in flag_list:
        em.emit(1, f"{f} = regs.{f}")

    if loop:
        em.emit(1, f"_lim = fuel - {retire_total}")
        em.emit(1, "while True:")
        base = 2
        top_cond = "n > _lim or not _L[0]" if live_check else "n > _lim"
        em.emit(base, f"if {top_cond}:")
        for line in exit_lines(0, f"{head:#x}", guard=False):
            em.emit(base + 1, line)
    else:
        em.emit(1, f"if fuel < {retire_total}:")
        em.emit(2, "return 0")
        base = 1

    def emit_read(ind, dst, addr_var):
        """A 64-bit load, inlined when it sits inside one page."""
        em.emit(ind, f"_pg = _pget({addr_var} >> 12)")
        em.emit(ind, f"_o = {addr_var} & 4095")
        em.emit(ind, "if _pg is not None and _o <= 4088:")
        em.emit(ind + 1, f"{dst} = _ifb(_pg.data[_o:_o + 8], 'little')")
        em.emit(ind, "else:")
        em.emit(ind + 1, f"{dst} = _r64({addr_var})")

    def emit_write(ind, addr_var, val_expr):
        """A 64-bit store, inlined when it sits inside one writable page."""
        em.emit(ind, f"_pg = _pget({addr_var} >> 12)")
        em.emit(ind, f"_o = {addr_var} & 4095")
        em.emit(ind, "if _pg is not None and _o <= 4088 and _pg.flags & 2:")
        em.emit(
            ind + 1,
            f"_pg.data[_o:_o + 8] = ({val_expr}).to_bytes(8, 'little')",
        )
        em.emit(ind + 1, "_pg.generation += 1")
        em.emit(ind + 1, "for _ob in _obs:")
        em.emit(ind + 2, f"_ob({addr_var}, 8)")
        em.emit(ind, "else:")
        em.emit(ind + 1, f"_w64({addr_var}, {val_expr})")

    def emit_fault_guarded(ind, body, pending, addr):
        em.emit(ind, "try:")
        body(ind + 1)
        em.emit(ind, "except PageFault:")
        for line in fault_lines(pending, addr):
            em.emit(ind + 1, line)

    def emit_live_bail(ind, next_addr, pending_after):
        """After a store: if the store hit our own text, stop here."""
        em.emit(ind, "if not _L[0]:")
        for line in exit_lines(pending_after, f"{next_addr:#x}", guard=True):
            em.emit(ind + 1, line)

    def emit_sync(ind):
        """Bring the retired count and the clock up to ``n``."""
        em.emit(ind, "cpu.instructions_retired += n - _sy")
        if charge:
            em.emit(ind, "_adv((n - _sy) * _ns)")
        em.emit(ind, "_sy = n")

    def emit_retire(resume):
        """After foreign Python ran for an instruction: retire it, as
        ``CPU._charge`` would, and go on only if the handler resumed at
        ``resume`` with the CPU running and this trace still live."""
        em.emit(base, "n += 1")
        em.emit(base, "cpu.instructions_retired += 1")
        if charge:
            em.emit(base, "_adv(_ns)")
        em.emit(base, "_sy = n")
        em.emit(base, f"if cpu.halted or regs.rip != {resume:#x} or not _L[0]:")
        em.emit(base + 1, "_STATS.guard_exits += 1")
        em.emit(base + 1, "return n")
        for line in reload_lines():
            em.emit(base, line)
        em.pending = 0
        em.synced = True

    for index, step in enumerate(steps):
        kind = step[0]
        if kind == "op":
            _, addr, mnemonic, operands, next_rip = step
            defs = _FLAG_DEFS.get(mnemonic, ())
            emit_flags = {
                f: _flag_live_after(steps, index, f, loop) for f in defs
            }
            if mnemonic == "nop":
                pass
            elif mnemonic == "mov_r32_imm32":
                reg, imm = operands
                em.emit(base, f"r{int(reg)} = {imm & MASK32:#x}")
            elif mnemonic == "mov_r64_imm32":
                reg, imm = operands
                em.emit(base, f"r{int(reg)} = {imm & MASK64:#x}")
            elif mnemonic == "mov_r64_r64":
                dst, src = operands
                em.emit(base, f"r{int(dst)} = r{int(src)}")
            elif mnemonic in ("add_r64_imm8", "sub_r64_imm8", "inc_r64", "dec_r64"):
                reg = int(operands[0])
                if mnemonic == "add_r64_imm8":
                    expr = f"(r{reg} + {operands[1]}) & _M"
                elif mnemonic == "sub_r64_imm8":
                    expr = f"(r{reg} - {operands[1]}) & _M"
                elif mnemonic == "inc_r64":
                    expr = f"(r{reg} + 1) & _M"
                else:
                    expr = f"(r{reg} - 1) & _M"
                em.emit(base, f"r{reg} = {expr}")
                if emit_flags.get("zf"):
                    em.emit(base, f"zf = r{reg} == 0")
                if emit_flags.get("sf"):
                    em.emit(base, f"sf = r{reg} >= _S")
            elif mnemonic == "cmp_r64_imm8":
                reg, imm = int(operands[0]), operands[1]
                em.emit(base, f"_t = (r{reg} - {imm}) & _M")
                if emit_flags.get("zf"):
                    em.emit(base, "zf = _t == 0")
                if emit_flags.get("sf"):
                    em.emit(base, "sf = _t >= _S")
                if emit_flags.get("cf"):
                    em.emit(base, f"cf = r{reg} < {imm & MASK64:#x}")
            elif mnemonic == "xor_r32_r32":
                dst, src = int(operands[0]), int(operands[1])
                if dst == src:
                    em.emit(base, f"r{dst} = 0")
                    if emit_flags.get("zf"):
                        em.emit(base, "zf = True")
                else:
                    em.emit(
                        base,
                        f"r{dst} = (r{dst} ^ r{src}) & 0xffffffff",
                    )
                    if emit_flags.get("zf"):
                        em.emit(base, f"zf = r{dst} == 0")
                if emit_flags.get("sf"):
                    em.emit(base, "sf = False")
            elif mnemonic == "push_r64":
                reg = int(operands[0])
                # push rsp stores the *pre-decrement* value.
                value = f"r{reg}"
                if reg == 4:
                    em.emit(base, "_v = r4")
                    value = "_v"
                em.emit(base, "r4 = (r4 - 8) & _M")
                emit_fault_guarded(
                    base,
                    lambda ind, v=value: emit_write(ind, "r4", v),
                    em.pending,
                    addr,
                )
                if live_check:
                    emit_live_bail(base, next_rip, em.pending + 1)
            elif mnemonic == "pop_r64":
                reg = int(operands[0])
                # pop rsp: the popped value replaces rsp, overriding the
                # post-read increment (matches the interpreter's
                # write64-after-pop64 ordering).
                dst = "_v" if reg == 4 else f"r{reg}"
                emit_fault_guarded(
                    base,
                    lambda ind, d=dst: emit_read(ind, d, "r4"),
                    em.pending,
                    addr,
                )
                if reg == 4:
                    em.emit(base, "r4 = _v")
                else:
                    em.emit(base, "r4 = (r4 + 8) & _M")
            elif mnemonic == "mov_r64_rsp_disp8":
                reg, disp = int(operands[0]), operands[1]
                em.emit(base, f"_a = (r4 + {disp}) & _M")
                emit_fault_guarded(
                    base,
                    lambda ind, r=reg: emit_read(ind, f"r{r}", "_a"),
                    em.pending,
                    addr,
                )
            elif mnemonic == "mov_rsp_disp8_r64":
                disp, reg = operands[0], int(operands[1])
                em.emit(base, f"_a = (r4 + {disp}) & _M")
                emit_fault_guarded(
                    base,
                    lambda ind, r=reg: emit_write(ind, "_a", f"r{r}"),
                    em.pending,
                    addr,
                )
                if live_check:
                    emit_live_bail(base, next_rip, em.pending + 1)
            else:  # pragma: no cover - recorder filters unknown mnemonics
                raise _Abort
            em.pending += 1
        elif kind == "cc":
            _, addr, mnemonic, taken, fall, predicted = step
            conds = {
                "je_rel8": ("zf", "not zf"),
                "jne_rel8": ("not zf", "zf"),
            }
            branch_cond, inverse = conds[mnemonic]
            exit_cond = inverse if predicted else branch_cond
            exit_rip = fall if predicted else taken
            em.emit(base, f"if {exit_cond}:")
            for line in exit_lines(em.pending + 1, f"{exit_rip:#x}", guard=True):
                em.emit(base + 1, line)
            em.pending += 1
        elif kind == "jmp":
            em.pending += 1
        elif kind == "stub_call":
            _, addr, slot, next_rip, target, resume = step
            emit_fault_guarded(
                base,
                lambda ind, s=slot: emit_read(ind, "_t", f"{s:#x}"),
                em.pending,
                addr,
            )
            em.emit(base, "r4 = (r4 - 8) & _M")
            emit_fault_guarded(
                base,
                lambda ind, v=next_rip: emit_write(ind, "r4", f"{v:#x}"),
                em.pending,
                addr,
            )
            em.emit(base, f"if _t != {target:#x}:")
            for line in exit_lines(em.pending + 1, "_t", guard=True):
                em.emit(base + 1, line)
            # Sync the interpreter-visible state (count, clock, registers,
            # RIP) before handing control to foreign Python: the stub must
            # observe exactly what it would mid-interpretation.
            em.emit(base, f"n += {em.pending + 1}")
            emit_sync(base)
            for line in spill_lines():
                em.emit(base, line)
            em.emit(base, f"regs.rip = {target:#x}")
            em.emit(base, f"_fn = _stubs_get({target:#x})")
            em.emit(base, "if _fn is None:")
            em.emit(base + 1, "_STATS.guard_exits += 1")
            em.emit(base + 1, "return n")
            em.emit(base, "_fn(cpu)")
            emit_retire(resume)
        elif kind == "syscall":
            _, addr, resume = step
            # The same hand-off as a stub: the trap handler sees the
            # state the interpreter would show it at this ``syscall``.
            if em.pending:
                em.emit(base, f"n += {em.pending}")
                emit_sync(base)
            elif loop and not em.synced:
                # Top of the loop body: the previous iteration's tail is
                # unsynced, the first iteration has nothing to sync.
                em.emit(base, "if n != _sy:")
                emit_sync(base + 1)
            for line in spill_lines():
                em.emit(base, line)
            em.emit(base, f"regs.rip = {addr:#x}")
            em.emit(base, f"_sys(cpu, {addr:#x})")
            emit_retire(resume)
        elif kind == "exit":
            _, addr = step
            for line in exit_lines(em.pending, f"{addr:#x}", guard=False):
                em.emit(base, line)
        else:  # pragma: no cover
            raise _Abort
    if loop:
        if em.pending:
            em.emit(base, f"n += {em.pending}")
        em.pending = 0
    return "\n".join(em.lines) + "\n"
