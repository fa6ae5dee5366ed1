import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory import PAGE_SHIFT, PagedMemory, PageFault, PageFlags

RW = PageFlags.USER | PageFlags.WRITABLE
RO = PageFlags.USER


def generation(mem, addr):
    return mem.page_generation_index(addr >> PAGE_SHIFT)


class TestMapping:
    def test_unmapped_read_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().read(0x1000, 1)

    def test_map_then_read_zeroed(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        assert mem.read(0x1000, 8) == b"\x00" * 8

    def test_map_spans_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1FF0, 0x20, RW)  # crosses a page boundary
        mem.write(0x1FF0, b"A" * 0x20)
        assert mem.read(0x1FF0, 0x20) == b"A" * 0x20

    def test_map_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PagedMemory().map_region(0, 0, RW)

    def test_is_mapped(self):
        mem = PagedMemory()
        mem.map_region(0x2000, 1, RW)
        assert mem.is_mapped(0x2000)
        assert mem.is_mapped(0x2FFF)
        assert not mem.is_mapped(0x3000)


class TestPermissions:
    def test_readonly_write_faults(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.write(0x1000, b"x")

    def test_wp_disable_allows_supervisor_write(self):
        """CR0.WP cleared: ABOM's patching mode (§4.4)."""
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write(0x1000, b"x")
        assert mem.read(0x1000, 1) == b"x"

    def test_wp_bypass_sets_dirty_bit(self):
        """§4.4: "the page table dirty bit will be set for read-only pages"."""
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write(0x1000, b"x")
        assert mem.page_flags(0x1000) & PageFlags.DIRTY
        assert mem.dirty_pages() == [0x1000]

    def test_normal_write_does_not_set_dirty_tracking(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write(0x1000, b"x")
        assert not mem.page_flags(0x1000) & PageFlags.DIRTY

    def test_page_flags_unmapped_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().page_flags(0x0)


class TestScalarAccess:
    def test_u64_roundtrip(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write_u64(0x1008, 0xFFFFFFFFFF600008)
        assert mem.read_u64(0x1008) == 0xFFFFFFFFFF600008

    def test_kernel_half_addresses(self):
        mem = PagedMemory()
        base = 0xFFFFFFFFFF600000
        mem.map_region(base, 4096, RW)
        mem.write_u64(base + 8, 123)
        assert mem.read_u64(base + 8) == 123


class TestGenerationsAndObservers:
    """Per-page generation counters + write observers (decode-cache
    invalidation protocol)."""

    def test_write_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        mem.write(0x1000, b"x")
        assert generation(mem, 0x1000) == before + 1

    def test_read_does_not_bump_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        mem.read(0x1000, 64)
        mem.read_u64(0x1000)
        mem.read_u64(0x1040)
        assert generation(mem, 0x1000) == before

    def test_scalar_writes_bump_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        mem.write_u64(0x1000, 1)
        mem.write_u64(0x1010, 2)
        assert generation(mem, 0x1000) == before + 2

    def test_compare_exchange_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        assert mem.compare_exchange(0x1000, bytes(2), b"ab")
        assert generation(mem, 0x1000) == before + 1

    def test_failed_compare_exchange_does_not_bump(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        assert not mem.compare_exchange(0x1000, b"zz", b"ab")
        assert generation(mem, 0x1000) == before

    def test_spanning_write_bumps_both_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        first = generation(mem, 0x1000)
        second = generation(mem, 0x2000)
        mem.write(0x1FFC, b"ABCDEFGH")
        assert generation(mem, 0x1000) == first + 1
        assert generation(mem, 0x2000) == second + 1

    def test_reflag_bumps_generation(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        before = generation(mem, 0x1000)
        mem.set_page_flags(0x1000, RO)
        mem.map_region(0x1000, 4096, RW)
        assert generation(mem, 0x1000) == before + 2

    def test_generation_of_unmapped_page_is_minus_one(self):
        assert PagedMemory().page_generation_index(5) == -1

    def test_observer_sees_every_store(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        events = []
        mem.add_write_observer(lambda addr, size: events.append((addr, size)))
        mem.write(0x1000, b"abc")
        mem.write_u64(0x1100, 7)
        assert (0x1000, 3) in events
        assert (0x1100, 8) in events

    def test_observer_notified_per_page_chunk(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        events = []
        mem.add_write_observer(lambda addr, size: events.append((addr, size)))
        mem.write(0x1FFE, b"ABCD")  # 2 bytes in each page
        assert events == [(0x1FFE, 2), (0x2000, 2)]


class TestScalarFastPathEdges:
    """The single-page fast paths must agree with the generic loop."""

    def test_u64_across_page_boundary(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, RW)
        mem.write_u64(0x1FFC, 0x1122334455667788)
        assert mem.read_u64(0x1FFC) == 0x1122334455667788

    def test_u64_fast_path_respects_write_protect(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.write_u64(0x1000, 1)

    def test_u64_fast_path_wp_bypass_sets_dirty(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        mem.wp_enabled = False
        mem.write_u64(0x1000, 42)
        mem.wp_enabled = True
        assert mem.read_u64(0x1000) == 42
        assert mem.page_flags(0x1000) & PageFlags.DIRTY

    def test_u64_unmapped_faults(self):
        with pytest.raises(PageFault):
            PagedMemory().read_u64(0x1000)
        with pytest.raises(PageFault):
            PagedMemory().write_u64(0x1000, 1)


class TestFetch:
    def test_fetch_requires_executable(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        with pytest.raises(PageFault) as excinfo:
            mem.fetch(0x1000, 15)
        assert "non-executable" in excinfo.value.reason

    def test_fetch_unmapped_faults(self):
        with pytest.raises(PageFault) as excinfo:
            PagedMemory().fetch(0x1000, 15)
        assert "unmapped" in excinfo.value.reason

    def test_fetch_truncates_at_non_executable_tail(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.map_region(0x2000, 4096, RW)
        mem.wp_enabled = False
        mem.write(0x1FF0, b"\x90" * 16)
        mem.wp_enabled = True
        assert mem.fetch(0x1FF8, 15) == b"\x90" * 8

    def test_fetch_spans_executable_pages(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 2 * 4096, PageFlags.USER | PageFlags.EXECUTABLE)
        mem.wp_enabled = False
        mem.write(0x1FFC, bytes(range(8)))
        mem.wp_enabled = True
        assert mem.fetch(0x1FFC, 8) == bytes(range(8))


class TestCompareExchange:
    def _mem(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RW)
        mem.write(0x1000, bytes(range(16)))
        return mem

    def test_success(self):
        mem = self._mem()
        ok = mem.compare_exchange(0x1000, bytes(range(7)), b"A" * 7)
        assert ok
        assert mem.read(0x1000, 7) == b"A" * 7

    def test_failure_leaves_memory_unchanged(self):
        mem = self._mem()
        ok = mem.compare_exchange(0x1000, b"wrong!!", b"A" * 7)
        assert not ok
        assert mem.read(0x1000, 7) == bytes(range(7))

    def test_more_than_8_bytes_rejected(self):
        """The paper's constraint: cmpxchg handles at most eight bytes."""
        mem = self._mem()
        with pytest.raises(ValueError):
            mem.compare_exchange(0x1000, bytes(9), bytes(9))

    def test_size_mismatch_rejected(self):
        mem = self._mem()
        with pytest.raises(ValueError):
            mem.compare_exchange(0x1000, bytes(4), bytes(5))

    def test_respects_write_protect(self):
        mem = PagedMemory()
        mem.map_region(0x1000, 4096, RO)
        with pytest.raises(PageFault):
            mem.compare_exchange(0x1000, bytes(2), b"ab")


#: Two pages: ``LOW`` (flags vary) then ``HIGH`` (writable); unmapped after.
LOW, HIGH = 0x10000, 0x11000


def _scalar_layout(low_flags, wp):
    mem = PagedMemory()
    if low_flags is not None:
        mem.map_region(LOW, 0x1000, low_flags)
    mem.map_region(HIGH, 0x1000, RW)
    mem.wp_enabled = wp
    calls = []
    mem.add_write_observer(lambda addr, size: calls.append((addr, size)))
    return mem, calls


class TestScalarMatchesByteReference:
    """``read_u64``/``write_u64`` unpack and pack in place; each leaves
    what ``read(addr, 8)``/``write(addr, value.to_bytes(8, "little"))``
    leave: the value or the fault, the bytes, flags (DIRTY), generations
    and observer calls, at offsets 4088-4095 (page-spanning), on
    read-only and unmapped pages, with write protection on or off."""

    @settings(max_examples=150, deadline=None)
    @given(
        low_flags=st.sampled_from([None, RW, RO]),
        wp=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.one_of(
                    st.integers(LOW + 4088, LOW + 4095),
                    st.integers(HIGH + 4088, HIGH + 4095),
                    st.integers(LOW - 8, HIGH + 4088),
                ),
                st.integers(0, (1 << 64) - 1),
            ),
            max_size=24,
        ),
    )
    def test_u64_matches_bytes(self, low_flags, wp, ops):
        fast, fast_calls = _scalar_layout(low_flags, wp)
        ref, ref_calls = _scalar_layout(low_flags, wp)
        for is_write, addr, value in ops:
            outcomes = []
            for mem, scalar in ((fast, True), (ref, False)):
                try:
                    if is_write and scalar:
                        result = mem.write_u64(addr, value)
                    elif is_write:
                        result = mem.write(addr, value.to_bytes(8, "little"))
                    elif scalar:
                        result = mem.read_u64(addr)
                    else:
                        result = int.from_bytes(mem.read(addr, 8), "little")
                except PageFault as exc:
                    result = ("fault", exc.addr, exc.reason)
                outcomes.append(result)
            assert outcomes[0] == outcomes[1]
        assert fast_calls == ref_calls

        def state(mem):
            return [
                (index, bytes(page.data), page.flags, page.generation)
                for index, page in sorted(mem._pages.items())
            ]

        assert state(fast) == state(ref)
