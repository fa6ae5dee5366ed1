import pytest

from repro.arch import Assembler, Reg
from repro.arch.memory import PagedMemory, PageFlags
from repro.core import CountingServices, XContainer
from repro.xen.migration import (
    LiveMigration,
    checkpoint_memory,
    restore_memory,
)


class TestCheckpointRestoreMemory:
    def test_roundtrip_preserves_bytes_and_flags(self):
        memory = PagedMemory()
        memory.map_region(0x1000, 4096, PageFlags.USER | PageFlags.WRITABLE)
        memory.map_region(0x5000, 4096, PageFlags.USER)
        memory.write(0x1000, b"state")
        ckpt = checkpoint_memory(memory, {"rip": 0x42}, "t")
        restored = restore_memory(ckpt, PagedMemory())
        assert restored.read(0x1000, 5) == b"state"
        assert restored.page_flags(0x5000) == memory.page_flags(0x5000)

    def test_restore_is_a_deep_copy(self):
        memory = PagedMemory()
        memory.map_region(0x1000, 4096, PageFlags.USER | PageFlags.WRITABLE)
        ckpt = checkpoint_memory(memory, {}, "t")
        restored = restore_memory(ckpt, PagedMemory())
        restored.write(0x1000, b"x")
        assert memory.read(0x1000, 1) == b"\x00"

    def test_memory_bytes_accounting(self):
        memory = PagedMemory()
        memory.map_region(0x1000, 3 * 4096, PageFlags.USER)
        ckpt = checkpoint_memory(memory, {}, "t")
        assert ckpt.memory_bytes == 3 * 4096


class TestXContainerCheckpointRestore:
    def _counting_program(self, iterations):
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, iterations)
        asm.label("loop")
        asm.syscall_site(39, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        return asm.build("counter")

    def test_restored_container_resumes_mid_program(self):
        """A container checkpointed mid-run continues where it stopped —
        including all state in registers and memory."""
        binary = self._counting_program(10)
        xc = XContainer(CountingServices(results={39: 5}), name="orig")
        xc.load(binary)
        xc.cpu.regs.rip = binary.entry
        xc.step(count=30)  # part-way through the loop
        done_before = len(xc.libos.services.calls)
        assert 0 < done_before < 10

        ckpt = xc.checkpoint("mid")
        restored = XContainer.restore(
            ckpt, CountingServices(results={39: 5})
        )
        result = restored.resume()
        assert result.exit_rax == 5
        done_after = len(restored.libos.services.calls)
        assert done_before + done_after == 10

    def test_restored_container_keeps_abom_patches(self):
        """Patched text pages travel with the checkpoint: the restored
        instance never traps for already-patched sites."""
        binary = self._counting_program(5)
        xc = XContainer(CountingServices(), name="orig")
        xc.run(binary)  # patches the site
        ckpt = xc.checkpoint()
        restored = XContainer.restore(ckpt, CountingServices())
        result = restored.run_loaded(binary.entry)
        assert restored.libos.stats.forwarded_syscalls == 0
        assert restored.libos.stats.lightweight_syscalls == 5

    def test_halted_flag_restored(self):
        binary = self._counting_program(1)
        xc = XContainer(CountingServices())
        xc.run(binary)
        assert xc.cpu.halted
        restored = XContainer.restore(xc.checkpoint(), CountingServices())
        assert restored.cpu.halted


class TestLiveMigration:
    def test_idle_guest_converges_in_one_round(self):
        migration = LiveMigration(
            memory_mb=128, dirty_rate_pages_s=0.0
        )
        report = migration.run()
        assert report.converged
        assert report.rounds == 1
        assert report.pages_sent == 128 * 256  # 4 KiB pages

    def test_busy_guest_needs_more_rounds(self):
        idle = LiveMigration(128, dirty_rate_pages_s=0.0).run()
        busy = LiveMigration(
            128, dirty_rate_pages_s=200_000.0, downtime_budget_ms=10.0
        ).run()
        assert busy.rounds > idle.rounds
        assert busy.pages_sent > idle.pages_sent

    def test_downtime_within_budget_when_converged(self):
        migration = LiveMigration(
            512, dirty_rate_pages_s=50_000.0, downtime_budget_ms=300.0
        )
        report = migration.run()
        assert report.converged
        assert report.downtime_ms <= 300.0 * 1.01

    def test_write_storm_does_not_converge(self):
        """Dirtying faster than the link sends: forced stop-and-copy."""
        migration = LiveMigration(
            1024,
            dirty_rate_pages_s=1e9,
            bandwidth_mbps=1000.0,
            max_rounds=5,
        )
        report = migration.run()
        assert not report.converged
        assert report.downtime_ms > 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            LiveMigration(0, 0.0)
        with pytest.raises(ValueError):
            LiveMigration(128, 0.0, bandwidth_mbps=0.0)

    def test_more_bandwidth_less_downtime(self):
        slow = LiveMigration(256, 100_000.0, bandwidth_mbps=1000.0).run()
        fast = LiveMigration(256, 100_000.0, bandwidth_mbps=40000.0).run()
        assert fast.total_ms < slow.total_ms
