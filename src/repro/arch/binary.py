"""Program images with syscall-site metadata.

A :class:`Binary` is assembled machine code plus the bookkeeping the
experiments need: where each ``syscall`` instruction sits, which source-level
pattern produced it (glibc wrapper, libpthread cancellable wrapper, Go
runtime, hand-rolled), and symbol addresses.  ABOM itself never reads this
metadata — it works purely on bytes — but Table 1 needs it to report
per-pattern outcomes, and the offline patching tool uses it the way a
developer would use symbols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.memory import PagedMemory, PageFlags


class SitePattern(enum.Enum):
    """How the code that issues a syscall is shaped (paper §4.4, Table 1)."""

    #: ``mov $imm32,%eax; syscall`` — the 5+2 byte glibc wrapper shape;
    #: patchable online with a 7-byte replacement (Fig 2, Case 1).
    MOV_EAX_IMM = "mov_eax_imm"
    #: ``mov $imm32,%rax; syscall`` — the 7+2 byte shape; patchable online
    #: with the two-phase 9-byte replacement (Fig 2).
    MOV_RAX_IMM = "mov_rax_imm"
    #: ``mov disp8(%rsp),%eax; syscall`` — the Go ``syscall.Syscall`` shape;
    #: patchable online with a 7-byte replacement (Fig 2, Case 2).
    GO_STACK = "go_stack"
    #: libpthread cancellable wrapper: instructions between the ``mov`` and
    #: the ``syscall`` (cancellation check) — NOT recognized by ABOM; only
    #: the offline tool handles it (the MySQL row of Table 1).
    CANCELLABLE = "cancellable"
    #: ``syscall`` with %rax loaded far away / reached by a jump — never
    #: patchable, always forwarded.
    BARE = "bare"


@dataclass
class SyscallSite:
    """One ``syscall`` instruction in a binary."""

    #: Address of the ``syscall`` instruction itself (not the mov).
    syscall_addr: int
    pattern: SitePattern
    #: Syscall number, when statically known (None for GO_STACK/BARE).
    nr: int | None = None
    symbol: str = ""


@dataclass
class Binary:
    """Assembled code plus metadata, loadable into paged memory."""

    code: bytes
    base: int
    entry: int
    sites: list[SyscallSite] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    name: str = "a.out"

    def validate_sites(self) -> None:
        """Check that every declared site really is a ``syscall``.

        Site metadata is bookkeeping layered over the raw bytes; nothing
        in the tool chain stops a hand-written :class:`SyscallSite` (or a
        drifted test fixture) from pointing somewhere else.  Every
        declared site must decode to ``0f 05`` at its recorded address.
        """
        for site in self.sites:
            offset = site.syscall_addr - self.base
            found = self.code[max(offset, 0) : offset + 2]
            if offset < 0 or found != b"\x0f\x05":
                label = site.symbol or hex(site.syscall_addr)
                detail = (
                    f"found bytes {found.hex(' ')}" if found and offset >= 0
                    else "address is outside the text segment"
                )
                raise ValueError(
                    f"{self.name}: declared syscall site {label} at "
                    f"{site.syscall_addr:#x} does not decode to 'syscall' "
                    f"(expected bytes 0f 05; {detail})"
                )

    def load(self, memory: PagedMemory, writable_text: bool = False) -> None:
        """Map the text segment into ``memory`` at :attr:`base`.

        Text is mapped read-only (+USER +EXEC) by default, which is what
        forces ABOM to drop the write-protect bit to patch it.  Site
        metadata is validated first (:meth:`validate_sites`).
        """
        self.validate_sites()
        flags = PageFlags.USER | PageFlags.EXECUTABLE
        if writable_text:
            flags |= PageFlags.WRITABLE
        memory.map_region(self.base, max(len(self.code), 1), flags)
        memory.wp_enabled = False
        try:
            memory.write(self.base, self.code)
        finally:
            memory.wp_enabled = True
        # Loading is not patching: clear dirty bits introduced by the copy.
        for addr in memory.dirty_pages():
            if self.base <= addr < self.base + len(self.code) + 4096:
                memory.set_page_flags(
                    addr, memory.page_flags(addr) & ~PageFlags.DIRTY
                )

    def site_for_symbol(self, symbol: str) -> SyscallSite:
        for site in self.sites:
            if site.symbol == symbol:
                return site
        raise KeyError(f"no syscall site with symbol {symbol!r}")
