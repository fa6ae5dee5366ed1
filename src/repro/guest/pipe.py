"""Pipes — back the Pipe Throughput and Context Switching benchmarks
(Fig 5) and fork/exec plumbing."""

from __future__ import annotations

import errno
from collections import deque
from dataclasses import dataclass

PIPE_BUF_CAPACITY = 65536


class PipeError(OSError):
    def __init__(self, err: int) -> None:
        super().__init__(err, errno.errorcode.get(err, str(err)))


class Pipe:
    """A byte pipe with a bounded kernel buffer."""

    def __init__(self, capacity: int = PIPE_BUF_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._buffer = deque()
        self._buffered = 0
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def free_space(self) -> int:
        return self.capacity - self._buffered

    def write(self, data: bytes) -> int:
        """Write up to the free space; returns bytes accepted (0 = would
        block)."""
        accepted = data[: self.free_space]
        if accepted:
            self._buffer.append(bytes(accepted))
            self._buffered += len(accepted)
            self.bytes_written += len(accepted)
        return len(accepted)

    def read(self, count: int) -> bytes:
        """Read up to ``count`` buffered bytes (b"" = empty)."""
        if count < 0:
            raise PipeError(errno.EINVAL)
        out = bytearray()
        while self._buffer and len(out) < count:
            chunk = self._buffer.popleft()
            take = count - len(out)
            out += chunk[:take]
            if take < len(chunk):
                self._buffer.appendleft(chunk[take:])
        self._buffered -= len(out)
        self.bytes_read += len(out)
        return bytes(out)


@dataclass
class PipeEnd:
    """One fd's view of a pipe (installed into a process fd table)."""

    pipe: Pipe
    writable: bool
