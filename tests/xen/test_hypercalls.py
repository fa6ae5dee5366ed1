import pytest

from repro.perf.clock import SimClock
from repro.xen.hypercalls import (
    HYPERCALL_WEIGHTS,
    LINUX_SYSCALL_SURFACE,
    XEN_HYPERCALL_SURFACE,
    HypercallTable,
    UnknownHypercall,
)


class TestHypercallTable:
    def test_known_call_counted(self):
        table = HypercallTable()
        table.call("mmu_update")
        table.call("mmu_update", batch=3)
        assert table.counts["mmu_update"] == 4

    def test_unknown_call_rejected(self):
        with pytest.raises(UnknownHypercall):
            HypercallTable().call("not_a_hypercall")

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            HypercallTable().call("iret", batch=0)

    def test_cost_weighted_and_charged(self):
        clock = SimClock()
        table = HypercallTable(clock=clock)
        cost = table.call("mmu_update")
        expected = table.costs.hypercall_ns * HYPERCALL_WEIGHTS["mmu_update"]
        assert cost == pytest.approx(expected)
        assert clock.now_ns == pytest.approx(expected)

    def test_attack_surface_much_smaller_than_linux(self):
        """§3.4: the X-Kernel's interface is a fraction of Linux's ~350
        syscalls."""
        assert XEN_HYPERCALL_SURFACE < 50
        assert LINUX_SYSCALL_SURFACE / XEN_HYPERCALL_SURFACE > 7
        assert HypercallTable.attack_surface_ratio() > 7
