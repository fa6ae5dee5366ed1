"""Cross-cutting property-based tests on core invariants."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.sched import RunQueue
from repro.perf.costs import CostModel
from repro.xen.scheduler import CreditScheduler


class TestCostModelProperties:
    @given(st.floats(0.1, 10.0))
    def test_scaled_scales_every_time_field(self, factor):
        base = CostModel()
        scaled = base.scaled(factor)
        for field in dataclasses.fields(CostModel):
            original = getattr(base, field.name)
            new = getattr(scaled, field.name)
            if field.name in (
                "default_pt_pages",
                "shared_kernel_efficiency",
                "xlibos_efficiency",
                "xen_guest_efficiency",
                "clear_guest_efficiency",
                "gvisor_efficiency",
                "rumprun_efficiency",
                "graphene_efficiency",
            ):
                assert new == original
            else:
                assert new == pytest.approx(original * factor)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_scaling_composes(self, a, b):
        left = CostModel().scaled(a).scaled(b)
        right = CostModel().scaled(a * b)
        assert left.native_syscall_ns == pytest.approx(
            right.native_syscall_ns
        )


class TestSchedulerProperties:
    @given(
        st.integers(1, 16),
        st.lists(st.integers(1, 1024), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_credit_shares_bounded_and_weight_ordered(self, pcpus, weights):
        sched = CreditScheduler(pcpus)
        for domid, weight in enumerate(weights):
            sched.add_vcpu(domid, weight)
        shares = sched.schedule_interval(1e9)
        # Conservation: never hand out more than the machine has.
        assert sum(shares.values()) <= pcpus * 1e9 * (1 + 1e-9)
        # No vCPU exceeds one pCPU.
        assert all(share <= 1e9 * (1 + 1e-9) for share in shares.values())

    @given(st.integers(2, 4096))
    def test_runqueue_switch_cost_monotone(self, n):
        rq = RunQueue()
        assert rq.switch_cost_ns(n + 1) >= rq.switch_cost_ns(n)

    @given(st.integers(1, 5000), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_effective_capacity_bounded(self, tasks, cpus):
        rq = RunQueue()
        capacity = rq.effective_capacity(1e9, cpus, nr_running=tasks)
        assert 0.0 <= capacity <= cpus * 1e9
