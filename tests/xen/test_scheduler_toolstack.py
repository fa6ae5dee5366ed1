import pytest

from repro.perf.clock import SimClock
from repro.xen.hypervisor import DomainKind, XenHypervisor
from repro.xen.scheduler import CreditScheduler
from repro.xen.toolstack import Toolstack


class TestCreditScheduler:
    def test_requires_pcpus(self):
        with pytest.raises(ValueError):
            CreditScheduler(0)

    def test_undersubscribed_no_overhead(self):
        sched = CreditScheduler(8)
        for domid in range(4):
            sched.add_vcpu(domid)
        shares = sched.schedule_interval(1e9)
        assert sum(shares.values()) == pytest.approx(4e9)
        assert sched.switches == 0

    def test_oversubscribed_pays_switches(self):
        sched = CreditScheduler(2)
        for domid in range(10):
            sched.add_vcpu(domid)
        shares = sched.schedule_interval(1e9)
        assert sum(shares.values()) < 2e9
        assert sched.switches > 0

    def test_vcpu_share_capped_at_one_pcpu(self):
        sched = CreditScheduler(8)
        sched.add_vcpu(0)
        shares = sched.schedule_interval(1e9)
        assert shares[0] == pytest.approx(1e9)

    def test_weights_respected(self):
        sched = CreditScheduler(1)
        sched.add_vcpu(0, weight=256)
        sched.add_vcpu(1, weight=512)
        shares = sched.schedule_interval(1e9)
        assert shares[1] == pytest.approx(shares[0] * 2, rel=0.01)

    def test_switch_cost_grows_slowly_with_vcpus(self):
        """Hierarchical scheduling's win (Fig 8): the hypervisor's
        per-switch cost is nearly flat in N."""
        small = CreditScheduler(8)
        big = CreditScheduler(8)
        for domid in range(8):
            small.add_vcpu(domid)
        for domid in range(400):
            big.add_vcpu(domid)
        assert big.switch_cost_ns() < small.switch_cost_ns() * 1.5

    def test_remove_domain(self):
        sched = CreditScheduler(2)
        sched.add_vcpu(7)
        sched.remove_domain(7)
        assert sched.schedule_interval(1e9) == {}

    def test_blocked_vcpus_get_nothing(self):
        sched = CreditScheduler(2)
        vcpu = sched.add_vcpu(0)
        vcpu.runnable = False
        assert sched.schedule_interval(1e9) == {}


class TestToolstack:
    def test_stock_xl_domain_creation_is_slow(self):
        """§4.5: ~3 s total with the stock toolstack."""
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)
        creation = stack.create("xc1", full_vm_boot=False)
        assert creation.total_ms == pytest.approx(3000.0, rel=0.01)

    def test_full_vm_boot_much_slower(self):
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)
        vm = stack.create("vm", full_vm_boot=True)
        assert vm.boot_ms > 10 * 1000

    def test_creation_advances_clock_and_registers_domain(self):
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)
        creation = stack.create("d1", kind=DomainKind.DOMU,
                                full_vm_boot=False)
        assert xen.clock.now_ns / 1e6 == pytest.approx(creation.total_ms)
        assert xen._domains[creation.domain.domid].name == "d1"

    def test_destroy(self):
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)
        creation = stack.create("d1", full_vm_boot=False)
        stack.destroy(creation.domain.domid)
        with pytest.raises(KeyError):
            xen._domains[creation.domain.domid]
