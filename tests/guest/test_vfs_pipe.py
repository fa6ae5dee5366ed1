import errno

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.guest.pipe import Pipe, PipeError
from repro.guest.vfs import O_APPEND, O_CREAT, O_RDWR, O_TRUNC, O_WRONLY, RamFS, VfsError


class TestRamFS:
    def test_create_and_read(self):
        fs = RamFS()
        fs.create("/a", b"hello")
        handle = fs.open("/a")
        assert fs.read(handle, 10) == b"hello"

    def test_missing_file_enoent(self):
        fs = RamFS()
        with pytest.raises(VfsError) as excinfo:
            fs.open("/nope")
        assert excinfo.value.errno == errno.ENOENT

    def test_o_creat_creates(self):
        fs = RamFS()
        fs.open("/new", O_WRONLY | O_CREAT)
        assert fs.exists("/new")

    def test_umask_applied_on_create(self):
        fs = RamFS()
        fs.open("/m", O_WRONLY | O_CREAT, mode=0o666, umask=0o027)
        # mode & ~umask
        handle = fs.open("/m")
        assert handle.inode.mode == 0o640

    def test_truncate(self):
        fs = RamFS()
        fs.create("/t", b"longcontent")
        fs.open("/t", O_RDWR | O_TRUNC)
        assert len(fs._lookup("/t").data) == 0

    def test_append_positions_at_end(self):
        fs = RamFS()
        fs.create("/log", b"abc")
        handle = fs.open("/log", O_WRONLY | O_APPEND)
        fs.write(handle, b"def")
        assert bytes(fs._lookup("/log").data) == b"abcdef"

    def test_read_from_writeonly_ebadf(self):
        fs = RamFS()
        fs.create("/w", b"x")
        handle = fs.open("/w", O_WRONLY)
        with pytest.raises(VfsError) as excinfo:
            fs.read(handle, 1)
        assert excinfo.value.errno == errno.EBADF

    def test_write_to_readonly_ebadf(self):
        fs = RamFS()
        fs.create("/r", b"x")
        handle = fs.open("/r")
        with pytest.raises(VfsError):
            fs.write(handle, b"y")

    def test_offset_advances(self):
        fs = RamFS()
        fs.create("/f", b"abcdef")
        handle = fs.open("/f")
        assert fs.read(handle, 3) == b"abc"
        assert fs.read(handle, 3) == b"def"
        assert fs.read(handle, 3) == b""

    def test_sparse_write_zero_fills(self):
        fs = RamFS()
        handle = fs.open("/s", O_RDWR | O_CREAT)
        handle.offset = 4
        fs.write(handle, b"x")
        assert bytes(fs._lookup("/s").data) == b"\x00\x00\x00\x00x"

    @given(st.binary(max_size=4096), st.integers(1, 512))
    def test_roundtrip_chunked(self, payload, chunk):
        fs = RamFS()
        fs.create("/data", payload)
        handle = fs.open("/data")
        out = bytearray()
        while True:
            piece = fs.read(handle, chunk)
            if not piece:
                break
            out += piece
        assert bytes(out) == payload


class TestPipe:
    def test_write_then_read(self):
        pipe = Pipe()
        assert pipe.write(b"hello") == 5
        assert pipe.read(5) == b"hello"

    def test_capacity_limits_write(self):
        pipe = Pipe(capacity=4)
        assert pipe.write(b"abcdef") == 4
        assert pipe.read(10) == b"abcd"

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Pipe(capacity=0)

    def test_read_more_than_buffered(self):
        pipe = Pipe()
        pipe.write(b"ab")
        assert pipe.read(10) == b"ab"
        assert pipe.read(10) == b""

    def test_partial_chunk_reads(self):
        pipe = Pipe()
        pipe.write(b"abcdef")
        assert pipe.read(2) == b"ab"
        assert pipe.read(2) == b"cd"
        assert pipe.free_space == pipe.capacity - 2

    def test_counters(self):
        pipe = Pipe()
        pipe.write(b"abc")
        pipe.read(2)
        assert pipe.bytes_written == 3
        assert pipe.bytes_read == 2

    @given(st.lists(st.binary(min_size=1, max_size=200), max_size=20))
    def test_fifo_order_preserved(self, chunks):
        pipe = Pipe(capacity=1 << 16)
        expected = bytearray()
        for chunk in chunks:
            accepted = pipe.write(chunk)
            expected += chunk[:accepted]
        out = pipe.read(len(expected) + 10)
        assert out == bytes(expected)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 300)), max_size=40
        )
    )
    def test_interleaved_reads_match_a_byte_queue(self, ops):
        """Reads and writes in any mix (a whole single chunk returned
        as is, split chunks, empty reads) match a plain byte queue."""
        pipe = Pipe(capacity=512)
        queue = bytearray()
        for index, (is_write, size) in enumerate(ops):
            if is_write:
                data = bytes([index % 256]) * size
                accepted = pipe.write(data)
                queue += data[:accepted]
            else:
                out = pipe.read(size)
                assert type(out) is bytes
                assert out == bytes(queue[:size])
                del queue[:size]
            assert pipe.free_space == pipe.capacity - len(queue)
        assert pipe.bytes_written - pipe.bytes_read == len(queue)

    def test_negative_read_is_einval(self):
        with pytest.raises(PipeError) as excinfo:
            Pipe().read(-1)
        assert excinfo.value.errno == errno.EINVAL
        assert excinfo.value.strerror == "EINVAL"
