"""The vsyscall page and system-call entry table (§4.4).

    "X-LibOS stores a system call entry table in the vsyscall page, which is
     mapped to a fixed virtual memory address in every process."

The layout is inferred from Figure 2 of the paper:

* ``__read`` (syscall 0) calls through ``0xffffffffff600008`` and
  ``__restore_rt`` (syscall 15) through ``0xffffffffff600080`` — so the slot
  for syscall *n* lives at ``base + 8 * (n + 1)``;
* the Go ``syscall.Syscall`` site (number loaded from ``0x8(%rsp)``) calls
  through ``0xffffffffff600c08`` — a second, *dynamic* table at
  ``base + 0xc00`` indexed by the stack displacement, whose stubs load the
  syscall number from the stack at run time (shifted by 8 because the call
  pushed a return address).

The static table therefore holds 383 slots (syscalls 0–382): slot 383
would be ``base + 0xc00``, the first dynamic slot.  A higher number has no
slot, so ABOM leaves its site trapping.

The page sits at ``0xffffffffff600000`` precisely so every slot address fits
in a sign-extended 32-bit displacement, which is what makes the 7-byte
``callq *disp32`` replacement possible.

Because the table is the same in every process, its bytes are a pure
function of this module's constants: the page image is built once at
import, and installing it is one store.  The stubs the slots point at are
two dispatchers, one static and one dynamic, each registered at all of its
stub addresses; a dispatcher recovers which stub was called from RIP,
which both entry paths (``CPU.step`` and a trace's ``stub_call``) set to
the stub address before the call.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.cpu import CPU
from repro.arch.memory import PagedMemory, PageFlags

VSYSCALL_BASE = 0xFFFFFFFFFF600000
#: Offset of the dynamic (stack-sourced number) slot table.
DYNAMIC_TABLE_OFFSET = 0xC00
#: Number of static slots (syscalls ``0 .. NUM_SYSCALLS - 1``); the static
#: table ends where the dynamic one starts.
NUM_SYSCALLS = 383
#: Stack displacements (multiples of 8) with a dynamic slot.
DYNAMIC_DISPS = tuple(range(0, 0x80, 8))
#: Where the LibOS entry stubs live (arbitrary kernel-half addresses; they
#: are native stubs, never fetched as bytes).
STUB_BASE = 0xFFFFFFFFFF610000
STUB_STRIDE = 16


def slot_addr(nr: int) -> int:
    """Table slot for a statically-known syscall number."""
    if not 0 <= nr < NUM_SYSCALLS:
        raise ValueError(f"syscall number out of table range: {nr}")
    return VSYSCALL_BASE + 8 * (nr + 1)


def dynamic_slot_addr(disp: int) -> int:
    """Table slot for a Go-style site loading the number from rsp+disp."""
    if disp not in DYNAMIC_DISPS:
        raise ValueError(f"no dynamic slot for displacement {disp:#x}")
    return VSYSCALL_BASE + DYNAMIC_TABLE_OFFSET + disp


def stub_addr(nr: int) -> int:
    return STUB_BASE + nr * STUB_STRIDE


def dynamic_stub_addr(disp: int) -> int:
    return STUB_BASE + (NUM_SYSCALLS + disp // 8) * STUB_STRIDE


_STATIC_STUBS = tuple(stub_addr(nr) for nr in range(NUM_SYSCALLS))
_DYNAMIC_STUBS = tuple(dynamic_stub_addr(disp) for disp in DYNAMIC_DISPS)


def _table_image() -> bytes:
    """The page bytes from ``VSYSCALL_BASE`` through the last slot."""
    static = {
        slot_addr(nr) - VSYSCALL_BASE: stub
        for nr, stub in enumerate(_STATIC_STUBS)
    }
    dynamic = {
        dynamic_slot_addr(disp) - VSYSCALL_BASE: stub
        for disp, stub in zip(DYNAMIC_DISPS, _DYNAMIC_STUBS)
    }
    shared = static.keys() & dynamic.keys()
    assert not shared, f"static and dynamic slots alias at {sorted(shared)}"
    image = bytearray(max(dynamic) + 8)
    for offset, stub in (static | dynamic).items():
        image[offset : offset + 8] = stub.to_bytes(8, "little")
    return bytes(image)


_TABLE_IMAGE = _table_image()


class VsyscallPage:
    """Installs the entry table into memory and the stubs onto a CPU.

    ``entry_handler(cpu, nr)`` is the X-LibOS lightweight syscall entry: it
    is invoked with the resolved syscall number for static slots; dynamic
    stubs resolve the number from the stack first.
    """

    def __init__(self, memory: PagedMemory) -> None:
        self.memory = memory
        self._installed = False

    def install(self) -> None:
        """Map the page (kernel-half, GLOBAL, read-only) and fill the table."""
        self.memory.map_region(
            VSYSCALL_BASE,
            0x1000,
            PageFlags.USER | PageFlags.GLOBAL,
        )
        self.memory.wp_enabled = False
        try:
            self.memory.write(VSYSCALL_BASE, _TABLE_IMAGE)
        finally:
            self.memory.wp_enabled = True
        # Installing the table is initialization, not patching: clear the
        # dirty bit the supervisor write set.
        self.memory.set_page_flags(
            VSYSCALL_BASE,
            self.memory.page_flags(VSYSCALL_BASE) & ~PageFlags.DIRTY,
        )
        self._installed = True

    def attach(
        self,
        cpu: CPU,
        entry_handler: Callable[[CPU, int], None],
    ) -> None:
        """Register the LibOS entry stubs on ``cpu``.

        Static stub *n* invokes ``entry_handler(cpu, n)``.  A dynamic stub
        for displacement ``d`` reads the number from ``(rsp + d + 8)`` —
        ``+8`` because the ``call`` has pushed the return address on top of
        what the original code indexed.  Both dispatchers read which stub
        was entered from ``cpu.regs.rip``.
        """
        if not self._installed:
            raise RuntimeError("install() the vsyscall page before attach()")

        def static_stub(cpu: CPU) -> None:
            entry_handler(cpu, (cpu.regs.rip - STUB_BASE) // STUB_STRIDE)

        def dynamic_stub(cpu: CPU) -> None:
            index = (cpu.regs.rip - STUB_BASE) // STUB_STRIDE - NUM_SYSCALLS
            nr = cpu.mem.read_u64(cpu.regs.rsp + index * 8 + 8) & 0xFFFFFFFF
            entry_handler(cpu, nr)

        cpu.native_stubs.update(dict.fromkeys(_STATIC_STUBS, static_stub))
        cpu.native_stubs.update(dict.fromkeys(_DYNAMIC_STUBS, dynamic_stub))
