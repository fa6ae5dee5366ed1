"""Paged memory with permission bits.

A sparse 4 KiB-paged address space.  Pages carry the permission flags ABOM
cares about: text pages are mapped read-only, so the patcher must run with
the write-protect check disabled (the paper's "disables ... the
write-protection bit in the CR-0 register"), and patched pages get their
DIRTY bit set (§4.4: "the page table dirty bit will be set for read-only
pages").

Each page additionally carries a **generation counter**, bumped on every
store that touches it (including the ``cmpxchg`` stores ABOM uses) and on
permission changes.  The CPU's basic-block decode cache stamps cached
blocks with the generations of the pages they were decoded from and drops
a block the moment a stamp goes stale — the software analogue of the
hardware i-cache coherence §4.4's atomic-patch argument relies on.  Write
observers provide the eager push-side of the same protocol.  The trace
cache (``repro.arch.tracecache``) rides the identical stamps and
observers for its compiled superblocks, so one store path keeps every
tier of cached decoded text coherent.
"""

from __future__ import annotations

from enum import IntFlag
from typing import Callable

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_OFFSET_MASK = PAGE_SIZE - 1
_MASK64 = (1 << 64) - 1

#: ``observer(addr, size)`` — called after bytes in ``[addr, addr+size)``
#: change (one call per page chunk of a spanning write).
WriteObserver = Callable[[int, int], None]


class PageFlags(IntFlag):
    PRESENT = 1
    WRITABLE = 2
    EXECUTABLE = 4
    USER = 8
    GLOBAL = 16
    DIRTY = 32


# ``_Page.flags`` holds these bits as a plain int: ``IntFlag`` operators
# build a new enum member per call, which the store and fetch paths cannot
# afford.  ``PageFlags`` stays the public type (``page_flags``,
# ``map_region``, ``set_page_flags``).
_PRESENT = int(PageFlags.PRESENT)
_WRITABLE = int(PageFlags.WRITABLE)
_EXECUTABLE = int(PageFlags.EXECUTABLE)
_DIRTY = int(PageFlags.DIRTY)


class PageFault(Exception):
    """Raised on access to an unmapped page or a forbidden write."""

    def __init__(self, addr: int, reason: str) -> None:
        super().__init__(f"page fault at {addr:#x}: {reason}")
        self.addr = addr
        self.reason = reason


class _Page:
    __slots__ = ("data", "flags", "generation")

    def __init__(self, flags: int) -> None:
        self.data = bytearray(PAGE_SIZE)
        self.flags = flags
        self.generation = 0


class PagedMemory:
    """Sparse 64-bit paged address space.

    ``wp_enabled`` models the CR0.WP bit: while True (the default), writes to
    non-WRITABLE pages fault even from supervisor code.  ABOM clears it
    around a patch and restores it afterwards.
    """

    def __init__(self) -> None:
        self._pages: dict[int, _Page] = {}
        self.wp_enabled = True
        self._write_observers: list[WriteObserver] = []
        self._lock_observers: list[WriteObserver] = []
        #: True while a ``LOCK``-prefixed store (:meth:`compare_exchange`)
        #: is inside :meth:`write`; lets plain write observers skip stores
        #: that a lock observer will report as synchronized.
        self.in_locked_op = False

    # ------------------------------------------------------------------
    # Write observation (decode-cache invalidation hook)
    # ------------------------------------------------------------------
    def add_write_observer(self, observer: WriteObserver) -> None:
        """Call ``observer(addr, size)`` after every store (per page chunk).

        Permission changes notify with page granularity: a re-flagged page
        can gain or lose EXECUTABLE, which cached decodes must observe.
        """
        self._write_observers.append(observer)

    def add_lock_observer(self, observer: WriteObserver) -> None:
        """Call ``observer(addr, size)`` after every *successful*
        ``LOCK``-prefixed store (:meth:`compare_exchange`).  While the
        locked store runs, :attr:`in_locked_op` is True so plain write
        observers can recognize it."""
        self._lock_observers.append(observer)

    def _notify(self, addr: int, size: int) -> None:
        for observer in self._write_observers:
            observer(addr, size)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_region(self, addr: int, size: int, flags: PageFlags) -> None:
        """Map (or re-flag) all pages covering ``[addr, addr + size)``."""
        if size <= 0:
            raise ValueError(f"cannot map region of size {size}")
        bits = int(flags) | _PRESENT
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for index in range(first, last + 1):
            page = self._pages.get(index)
            if page is None:
                self._pages[index] = _Page(bits)
            else:
                page.flags = bits
                page.generation += 1
                self._notify(index << PAGE_SHIFT, PAGE_SIZE)

    def is_mapped(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._pages

    def page_flags(self, addr: int) -> PageFlags:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            raise PageFault(addr, "not mapped")
        return PageFlags(page.flags)

    def set_page_flags(self, addr: int, flags: PageFlags) -> None:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            raise PageFault(addr, "not mapped")
        page.flags = int(flags) | _PRESENT
        page.generation += 1
        self._notify(addr & ~_OFFSET_MASK, PAGE_SIZE)

    def page_generation_index(self, index: int) -> int:
        """Generation of page ``index`` (-1 when unmapped) — cache hot path."""
        page = self._pages.get(index)
        return -1 if page is None else page.generation

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        page = self._pages.get(addr >> PAGE_SHIFT)
        offset = addr & _OFFSET_MASK
        if page is not None and offset + size <= PAGE_SIZE:
            return bytes(page.data[offset : offset + size])
        out = bytearray()
        remaining = size
        cursor = addr
        while remaining > 0:
            page = self._pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                raise PageFault(cursor, "read of unmapped page")
            offset = cursor & _OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page.data[offset : offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def fetch(self, addr: int, size: int) -> bytes:
        """Read up to ``size`` bytes for *instruction fetch*.

        Unlike :meth:`read` this enforces the EXECUTABLE permission: a
        fetch whose first byte lies on an unmapped or non-executable page
        faults.  The window is truncated (never faults) when its tail runs
        into unmapped or non-executable memory, mirroring how a hardware
        fetch of a shorter instruction would simply never touch the next
        page.
        """
        out = b""
        cursor = addr
        remaining = size
        while remaining > 0:
            page = self._pages.get(cursor >> PAGE_SHIFT)
            if page is None or not page.flags & _EXECUTABLE:
                if cursor == addr:
                    reason = (
                        "instruction fetch from unmapped page"
                        if page is None
                        else "instruction fetch from non-executable page"
                    )
                    raise PageFault(addr, reason)
                break
            offset = cursor & _OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            piece = bytes(page.data[offset : offset + chunk])
            out = piece if cursor == addr else out + piece
            cursor += chunk
            remaining -= chunk
        return out

    def write(self, addr: int, data: bytes) -> None:
        remaining = memoryview(data)
        cursor = addr
        while remaining:
            page = self._pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                raise PageFault(cursor, "write to unmapped page")
            if self.wp_enabled and not page.flags & _WRITABLE:
                raise PageFault(cursor, "write to read-only page")
            offset = cursor & _OFFSET_MASK
            chunk = min(len(remaining), PAGE_SIZE - offset)
            page.data[offset : offset + chunk] = remaining[:chunk]
            page.generation += 1
            if not page.flags & _WRITABLE:
                # Supervisor write with WP disabled: hardware still records
                # the store in the dirty bit (§4.4).
                page.flags |= _DIRTY
            # Notify per chunk, not after the loop: a spanning write that
            # faults on a later page must still invalidate what it wrote.
            if self._write_observers:
                self._notify(cursor, chunk)
            cursor += chunk
            remaining = remaining[chunk:]

    def _write_single(self, addr: int, page: _Page, data: bytes) -> None:
        """Store ``data`` entirely inside ``page`` (permissions pre-checked)."""
        offset = addr & _OFFSET_MASK
        page.data[offset : offset + len(data)] = data
        page.generation += 1
        if not page.flags & _WRITABLE:
            page.flags |= _DIRTY
        if self._write_observers:
            self._notify(addr, len(data))

    def read_u64(self, addr: int) -> int:
        page = self._pages.get(addr >> PAGE_SHIFT)
        offset = addr & _OFFSET_MASK
        if page is not None and offset <= PAGE_SIZE - 8:
            return int.from_bytes(page.data[offset : offset + 8], "little")
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if (
            page is not None
            and (addr & _OFFSET_MASK) <= PAGE_SIZE - 8
            and (page.flags & _WRITABLE or not self.wp_enabled)
        ):
            self._write_single(addr, page, (value & _MASK64).to_bytes(8, "little"))
            return
        self.write(addr, (value & _MASK64).to_bytes(8, "little"))

    # ------------------------------------------------------------------
    # Atomic compare-exchange (the patcher's only write primitive)
    # ------------------------------------------------------------------
    def compare_exchange(self, addr: int, expected: bytes, new: bytes) -> bool:
        """Atomically replace ``expected`` with ``new`` at ``addr``.

        Models the ``cmpxchg``-based patching of §4.4: at most eight bytes,
        and the store happens only if the current contents still equal
        ``expected``.  Returns True on success.  Respects ``wp_enabled``
        exactly like :meth:`write`.
        """
        if len(expected) != len(new):
            raise ValueError("compare_exchange operand sizes differ")
        if not 1 <= len(new) <= 8:
            raise ValueError(
                f"cmpxchg can exchange 1..8 bytes, not {len(new)}"
            )
        current = self.read(addr, len(expected))
        if current != expected:
            return False
        if self._lock_observers:
            self.in_locked_op = True
            try:
                self.write(addr, new)
            finally:
                self.in_locked_op = False
            for observer in self._lock_observers:
                observer(addr, len(new))
        else:
            self.write(addr, new)
        return True

    def dirty_pages(self) -> list[int]:
        """Page-aligned addresses of all pages with the DIRTY bit set."""
        return sorted(
            index << PAGE_SHIFT
            for index, page in self._pages.items()
            if page.flags & _DIRTY
        )
