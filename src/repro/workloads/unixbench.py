"""UnixBench microbenchmarks (§5.4, Figs 4 and 5).

Each benchmark mirrors its UnixBench namesake:

* **System Call** — a tight loop of dup/close/getpid/getuid/umask, built as
  a real machine-code binary and executed on the CPU interpreter through
  each platform's syscall path (including real ABOM patching for
  X-Containers);
* **Execl** — repeated ``execve`` overlays;
* **File Copy** — copy a file through a 1 KB buffer;
* **Pipe Throughput** — one process reading and writing a pipe;
* **Context Switching** — two processes ping-ponging over a pipe;
* **Process Creation** — ``fork`` + ``wait``.

All report iterations (or KB) per second of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.assembler import Assembler
from repro.arch.binary import Binary
from repro.arch.registers import Reg
from repro.guest.kernel import SYS
from repro.guest.vfs import O_CREAT, O_RDONLY, O_RDWR
from repro.perf.clock import SimClock
from repro.platforms.base import Platform

def build_syscall_bench(iterations: int, base: int = 0x400000) -> Binary:
    """The UnixBench System Call loop as real machine code.

    getpid/getuid/dup/close use the glibc ``mov %eax`` shape; umask uses
    the ``mov %rax`` 9-byte shape, so the benchmark exercises both ABOM
    patch forms.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1: {iterations}")
    asm = Assembler(base=base)
    asm.mov_imm32(Reg.RBX, iterations)
    asm.label("loop")
    asm.syscall_site(SYS["dup"], style="mov_eax", symbol="dup")
    asm.syscall_site(SYS["close"], style="mov_eax", symbol="close")
    asm.syscall_site(SYS["getpid"], style="mov_eax", symbol="getpid")
    asm.syscall_site(SYS["getuid"], style="mov_eax", symbol="getuid")
    asm.syscall_site(SYS["umask"], style="mov_rax", symbol="umask")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build("unixbench_syscall")


@dataclass
class BenchScore:
    name: str
    iterations_per_s: float


def syscall_bench(
    platform: Platform, iterations: int = 400, concurrency: int = 1
) -> BenchScore:
    """System Call throughput (loops/second of simulated time).

    ``concurrency`` models the §5.4 concurrent runs: on patched kernels,
    concurrent syscall storms contend on the shadow page tables and TLB,
    amplifying the KPTI tax slightly.
    """
    binary = build_syscall_bench(iterations)
    run = platform.run_binary(binary)
    elapsed = run.elapsed_ns
    if concurrency > 1 and platform.patched:
        name = platform.name.lower()
        if "x-container" not in name and "clear" not in name:
            elapsed *= 1.0 + 0.02 * concurrency
    return BenchScore("syscall", iterations / (elapsed / 1e9))


#: Syscalls around one exec: execve itself plus the loader's open/mmap/
#: read/close traffic for the new image.
EXECL_SYSCALLS_PER_ITER = 15


def execl_bench(platform: Platform, iterations: int = 50) -> BenchScore:
    """Execl throughput: repeated binary overlays."""
    clock = SimClock()
    kernel = platform.make_kernel(clock)
    proc = kernel.spawn("execl_bench")
    for i in range(iterations):
        clock.advance(EXECL_SYSCALLS_PER_ITER * platform.syscall_cost_ns())
        kernel.execve(proc.pid, f"image-{i}")
    return BenchScore("execl", iterations / (clock.now_s))


def file_copy_bench(
    platform: Platform,
    file_kb: int = 256,
    buffer_bytes: int = 1024,
) -> BenchScore:
    """File Copy with a 1 KB buffer; reports KB/s of simulated time."""
    clock = SimClock()
    kernel = platform.make_kernel(clock)
    proc = kernel.spawn("fcopy")
    kernel.vfs.create("/tmp/src", b"x" * (file_kb * 1024))
    src = kernel.open(proc.pid, "/tmp/src", O_RDONLY)
    dst = kernel.open(proc.pid, "/tmp/dst", O_RDWR | O_CREAT)
    copied = 0
    while True:
        clock.advance(2 * platform.syscall_cost_ns())  # read + write
        data = kernel.read(proc.pid, src, buffer_bytes)
        if not data:
            break
        kernel.write(proc.pid, dst, data)
        copied += len(data)
    assert copied == file_kb * 1024
    return BenchScore("file_copy", (copied / 1024) / clock.now_s)


def pipe_bench(platform: Platform, iterations: int = 2000) -> BenchScore:
    """Pipe Throughput: one process writing and reading 512 B messages."""
    clock = SimClock()
    kernel = platform.make_kernel(clock)
    proc = kernel.spawn("pipe_bench")
    rfd, wfd = kernel.pipe(proc.pid)
    payload = b"p" * 512
    for _ in range(iterations):
        clock.advance(2 * platform.syscall_cost_ns())
        kernel.write(proc.pid, wfd, payload)
        kernel.read(proc.pid, rfd, len(payload))
    return BenchScore("pipe", iterations / clock.now_s)


def context_switch_bench(
    platform: Platform, iterations: int = 1000
) -> BenchScore:
    """Context Switching: two processes ping-pong over two pipes."""
    clock = SimClock()
    kernel = platform.make_kernel(clock)
    ping = kernel.spawn("ping")
    r1, w1 = kernel.pipe(ping.pid)
    pong = kernel.fork(ping.pid)  # fork after pipe: fds are inherited
    token = b"t"
    for _ in range(iterations):
        # ping writes, switch to pong, pong reads and writes back, switch.
        clock.advance(2 * platform.syscall_cost_ns())
        kernel.write(ping.pid, w1, token)
        kernel.context_switch()
        clock.advance(2 * platform.syscall_cost_ns())
        kernel.read(pong.pid, r1, 1)
        kernel.context_switch()
    return BenchScore("context_switch", iterations / clock.now_s)


def process_creation_bench(
    platform: Platform, iterations: int = 100
) -> BenchScore:
    """Process Creation: fork + exit + wait."""
    clock = SimClock()
    kernel = platform.make_kernel(clock)
    parent = kernel.spawn("forker")
    for _ in range(iterations):
        clock.advance(platform.syscall_cost_ns())  # fork
        child = kernel.fork(parent.pid)
        kernel.exit(child.pid, 0)
        clock.advance(platform.syscall_cost_ns())  # wait4
        kernel.waitpid(parent.pid, child.pid)
    return BenchScore("process_creation", iterations / clock.now_s)
