"""End-to-end: machine code doing real file I/O through the X-LibOS.

These integration tests close the loop between the arch substrate and the
guest kernel: a program on the interpreter reads and writes RamFS files
and pipes through (ABOM-patched) syscalls, with buffers living in guest
memory.
"""

import pytest

from repro.arch import Assembler, Reg
from repro.arch.memory import PageFlags
from repro.core import XContainer
from repro.guest.kernel import SYS, GuestKernel
from repro.guest.vfs import O_CREAT, O_RDWR

DATA_BUF = 0x00700000


def make_container():
    kernel = GuestKernel()
    xc = XContainer(kernel)
    xc.memory.map_region(
        DATA_BUF, 0x1000, PageFlags.USER | PageFlags.WRITABLE
    )
    return xc, kernel


def emit_syscall3(asm, nr, rdi, rsi, rdx, style="mov_eax"):
    """nr(rdi, rsi, rdx) with the glibc wrapper shape."""
    asm.mov_imm64_low(Reg.RDI, rdi)
    asm.mov_imm64_low(Reg.RSI, rsi)
    asm.mov_imm64_low(Reg.RDX, rdx)
    return asm.syscall_site(nr, style=style)


class TestMachineCodeFileIO:
    def test_write_then_read_through_real_syscalls(self):
        xc, kernel = make_container()
        # Pre-open a file for the (machine-code) process.
        pid = kernel.invoke(SYS["getpid"], xc.cpu)
        fd = kernel.open(pid, "/data", O_RDWR | O_CREAT)
        # Stage payload bytes in guest memory.
        payload = b"hello from ring 3"
        xc.memory.write(DATA_BUF, payload)

        asm = Assembler()
        emit_syscall3(asm, SYS["write"], fd, DATA_BUF, len(payload))
        asm.hlt()
        result = xc.run(asm.build())
        assert result.exit_rax == len(payload)
        # The bytes really landed in the RamFS.
        handle = kernel.process(pid).fds[fd]
        assert bytes(handle.inode.data) == payload

        # Now read them back into a different buffer, via syscall 0.
        handle.offset = 0
        asm2 = Assembler(base=0x480000)
        emit_syscall3(asm2, SYS["read"], fd, DATA_BUF + 0x100,
                      len(payload))
        asm2.hlt()
        result2 = xc.run(asm2.build())
        assert result2.exit_rax == len(payload)
        assert xc.memory.read(DATA_BUF + 0x100, len(payload)) == payload

    def test_open_by_path_from_guest_memory(self):
        xc, kernel = make_container()
        kernel.invoke(SYS["getpid"], xc.cpu)  # materialize process
        xc.memory.write(DATA_BUF, b"/etc/config\x00")
        asm = Assembler()
        asm.mov_imm64_low(Reg.RDI, DATA_BUF)
        asm.mov_imm64_low(Reg.RSI, O_RDWR | O_CREAT)
        asm.syscall_site(SYS["open"], style="mov_eax")
        asm.hlt()
        result = xc.run(asm.build())
        assert result.exit_rax >= 3
        assert kernel.vfs.exists("/etc/config")

    def test_io_loop_is_abom_patched(self):
        """A read/write loop converts to function calls like anything
        else — File Copy's fast path, end to end."""
        xc, kernel = make_container()
        pid = kernel.invoke(SYS["getpid"], xc.cpu)
        fd = kernel.open(pid, "/sink", O_RDWR | O_CREAT)
        xc.memory.write(DATA_BUF, b"z" * 64)
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 20)
        asm.label("loop")
        emit_syscall3(asm, SYS["write"], fd, DATA_BUF, 64)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert xc.libos.stats.lightweight_syscalls == 19
        assert xc.abom_stats.total_patches == 1
        handle = kernel.process(pid).fds[fd]
        assert len(handle.inode.data) == 20 * 64

    def test_bad_fd_returns_negative_errno(self):
        import errno

        xc, kernel = make_container()
        kernel.invoke(SYS["getpid"], xc.cpu)
        asm = Assembler()
        emit_syscall3(asm, SYS["write"], 99, DATA_BUF, 4)
        asm.hlt()
        result = xc.run(asm.build())
        assert result.exit_rax == (-errno.EBADF) & ((1 << 64) - 1)
