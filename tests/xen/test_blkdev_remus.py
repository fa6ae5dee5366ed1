import pytest

from repro.perf.clock import SimClock
from repro.xen.blkdev import (
    SECTOR_SIZE,
    BlockError,
    BlockStore,
    SplitBlockDriver,
)
from repro.xen.remus import Epoch, FailoverError, RemusReplicator


class TestBlockStore:
    def test_read_unwritten_is_zero(self):
        store = BlockStore(8)
        assert store.read_sector(0) == b"\x00" * SECTOR_SIZE

    def test_write_read_roundtrip(self):
        store = BlockStore(8)
        payload = bytes(range(256)) * 2
        store.write_sector(3, payload)
        assert store.read_sector(3) == payload

    def test_bounds_checked(self):
        store = BlockStore(8)
        with pytest.raises(BlockError):
            store.read_sector(8)
        with pytest.raises(BlockError):
            store.write_sector(-1, b"\x00" * SECTOR_SIZE)

    def test_partial_sector_write_rejected(self):
        with pytest.raises(BlockError):
            BlockStore(8).write_sector(0, b"short")

    def test_allocation_is_sparse(self):
        store = BlockStore(1 << 20)
        store.write_sector(12345, b"\x01" * SECTOR_SIZE)
        assert len(store._sectors) == 1


class TestSplitBlockDriver:
    def test_io_roundtrip_and_stats(self):
        # A driver built without a clock charges its own.
        for driver in (
            SplitBlockDriver(BlockStore(16), clock=SimClock()),
            SplitBlockDriver(BlockStore(16)),
        ):
            driver.write(0, b"X" * SECTOR_SIZE * 2)
            data = driver.read(0, count=2)
            assert data == b"X" * SECTOR_SIZE * 2
            assert driver.stats.reads == 1
            assert driver.stats.writes == 1
            assert driver.stats.bytes_moved == 4 * SECTOR_SIZE
            assert driver.clock.now_ns > 0

    def test_unaligned_write_rejected(self):
        driver = SplitBlockDriver(BlockStore(16))
        with pytest.raises(BlockError):
            driver.write(0, b"odd-sized")

    def test_bad_count_rejected(self):
        with pytest.raises(BlockError):
            SplitBlockDriver(BlockStore(16)).read(0, count=0)


class TestRemus:
    def test_epochs_replicate_and_release_output(self):
        remus = RemusReplicator(epoch_ms=25.0)
        latency = remus.run_epoch(Epoch(0, dirty_pages=100,
                                        output_packets=10))
        assert latency >= 25.0
        assert remus.stats.packets_released == 10
        assert remus.buffered_packets == 0
        assert remus.backup_epoch == 0

    def test_large_dirty_sets_add_output_latency(self):
        remus = RemusReplicator(epoch_ms=25.0, bandwidth_mbps=1000.0)
        small = remus.run_epoch(Epoch(0, 100, 1))
        large = remus.run_epoch(Epoch(1, 2_000_000, 1))
        assert large > small

    def test_failover_resumes_from_replicated_epoch(self):
        remus = RemusReplicator()
        remus.run_epoch(Epoch(0, 50, 5))
        remus.run_epoch(Epoch(1, 50, 5))
        resumed = remus.fail_primary()
        assert resumed == 1
        with pytest.raises(FailoverError):
            remus.run_epoch(Epoch(2, 1, 1))

    def test_failover_without_any_checkpoint_fails(self):
        with pytest.raises(FailoverError):
            RemusReplicator().fail_primary()

    def test_output_commit_invariant(self):
        remus = RemusReplicator()
        for index in range(5):
            remus.run_epoch(Epoch(index, 10, 3))
            assert remus.output_commit_invariant()

    def test_bad_epoch_params_rejected(self):
        with pytest.raises(ValueError):
            RemusReplicator(epoch_ms=0)
        with pytest.raises(ValueError):
            RemusReplicator().run_epoch(Epoch(0, -1, 0))
