"""A RAM filesystem with POSIX-ish file descriptors.

Backs the File Copy microbenchmark (Fig 5), ``open/read/write/close/dup``
syscalls, and the Docker-image contents the workloads serve.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field


class VfsError(OSError):
    def __init__(self, err: int, path: str = "") -> None:
        super().__init__(err, errno.errorcode.get(err, str(err)), path)


O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000


@dataclass
class Inode:
    path: str
    data: bytearray = field(default_factory=bytearray)
    mode: int = 0o644


@dataclass
class OpenFile:
    """One open file description (shared by dup'ed descriptors)."""

    inode: Inode
    flags: int
    offset: int = 0

    @property
    def readable(self) -> bool:
        return (self.flags & 0o3) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & 0o3) in (O_WRONLY, O_RDWR)


class RamFS:
    """Flat-namespace in-memory filesystem."""

    def __init__(self) -> None:
        self._inodes: dict[str, Inode] = {}

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create(self, path: str, data: bytes = b"", mode: int = 0o644) -> Inode:
        inode = Inode(path, bytearray(data), mode)
        self._inodes[path] = inode
        return inode

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def _lookup(self, path: str) -> Inode:
        inode = self._inodes.get(path)
        if inode is None:
            raise VfsError(errno.ENOENT, path)
        return inode

    # ------------------------------------------------------------------
    # File operations (on open-file descriptions)
    # ------------------------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644,
             umask: int = 0o022) -> OpenFile:
        if not self.exists(path):
            if not flags & O_CREAT:
                raise VfsError(errno.ENOENT, path)
            self.create(path, mode=mode & ~umask)
        inode = self._lookup(path)
        handle = OpenFile(inode, flags)
        if flags & O_TRUNC and handle.writable:
            inode.data.clear()
        if flags & O_APPEND:
            handle.offset = len(inode.data)
        return handle

    def read(self, handle: OpenFile, count: int) -> bytes:
        if not handle.readable:
            raise VfsError(errno.EBADF, handle.inode.path)
        if count < 0:
            raise VfsError(errno.EINVAL, handle.inode.path)
        data = bytes(handle.inode.data[handle.offset : handle.offset + count])
        handle.offset += len(data)
        return data

    def write(self, handle: OpenFile, data: bytes) -> int:
        if not handle.writable:
            raise VfsError(errno.EBADF, handle.inode.path)
        end = handle.offset + len(data)
        inode_data = handle.inode.data
        if handle.offset > len(inode_data):
            inode_data.extend(b"\x00" * (handle.offset - len(inode_data)))
        inode_data[handle.offset : end] = data
        handle.offset = end
        return len(data)
