import pytest

from repro.perf.clock import SimClock
from repro.xen.hypervisor import DomainKind, XenHypervisor


def make_xen(**kwargs):
    return XenHypervisor(clock=SimClock(), **kwargs)


class TestDomains:
    def test_dom0_exists_at_boot(self):
        xen = make_xen()
        assert xen._domains[0].kind is DomainKind.DOM0
        assert xen._domains[0].name == "Domain-0"

    def test_create_assigns_increasing_domids(self):
        xen = make_xen()
        a = xen.create_domain("a")
        b = xen.create_domain("b")
        assert (a.domid, b.domid) == (1, 2)

    def test_memory_accounting(self):
        xen = make_xen(total_memory_mb=8192)
        xen.create_domain("u", memory_mb=2048)
        assert xen.used_memory_mb == 4096 + 2048
        assert xen.free_memory_mb == 8192 - 4096 - 2048

    def test_create_beyond_memory_fails(self):
        """The Fig 8 boot-failure mechanism: out of host memory."""
        xen = make_xen(total_memory_mb=5120)
        with pytest.raises(MemoryError):
            xen.create_domain("u", memory_mb=2048)

    def test_destroy(self):
        xen = make_xen()
        dom = xen.create_domain("u")
        xen.destroy_domain(dom.domid)
        with pytest.raises(KeyError):
            xen._domains[dom.domid]

    def test_cannot_destroy_dom0(self):
        with pytest.raises(ValueError):
            make_xen().destroy_domain(0)

class TestPvSyscallPath:
    def test_cost_includes_xpti_when_patched(self):
        patched = make_xen(xpti_patched=True)
        unpatched = make_xen(xpti_patched=False)
        assert (
            patched.pv_syscall_cost_ns()
            == unpatched.pv_syscall_cost_ns()
            + patched.costs.xpti_syscall_extra_ns
        )

    def test_pv_syscall_far_more_expensive_than_native(self):
        """§4.1: the x86-64 PV bounce is why 64-bit VMs prefer HVM."""
        xen = make_xen()
        assert xen.pv_syscall_cost_ns() > 10 * xen.costs.native_syscall_ns

    def test_context_switch_includes_vcpu_cost_cross_domain(self):
        xen = make_xen()
        same = xen.context_switch_cost_ns(same_domain=True)
        cross = xen.context_switch_cost_ns(same_domain=False)
        assert cross - same == xen.costs.vcpu_switch_ns
