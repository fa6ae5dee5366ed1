import pytest

from repro.guest.process import AddressSpace, Process, ProcessState
from repro.guest.sched import RunQueue
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


def make_proc(pid):
    return Process(pid, 0, f"p{pid}", AddressSpace(pid))


class TestSwitchCost:
    def test_grows_with_queue_depth(self):
        rq = RunQueue()
        assert rq.switch_cost_ns(400) > rq.switch_cost_ns(4)

    def test_kpti_adds_cost(self):
        assert (
            RunQueue(kpti=True).switch_cost_ns(4)
            > RunQueue(kpti=False).switch_cost_ns(4)
        )

    def test_global_mappings_spare_kernel_refill(self):
        """§4.3: the global bit keeps kernel TLB entries across
        intra-container switches."""
        costs = CostModel()
        with_global = RunQueue(costs, global_kernel_mappings=True)
        without = RunQueue(costs, global_kernel_mappings=False)
        diff = without.switch_cost_ns(4) - with_global.switch_cost_ns(4)
        assert diff == pytest.approx(costs.tlb_kernel_refill_ns)

    def test_mmu_hypercall_component(self):
        costs = CostModel()
        rq = RunQueue(costs, mmu_hypercall_ns=1350.0)
        breakdown = rq.switch_cost(4)
        assert breakdown.mmu_ns == 1350.0

    def test_cache_pollution_linear_in_tasks(self):
        costs = CostModel()
        rq = RunQueue(costs)
        b100 = rq.switch_cost(100)
        b200 = rq.switch_cost(200)
        assert b200.cache_ns == pytest.approx(2 * b100.cache_ns)

    def test_context_switch_charges_clock(self):
        clock = SimClock()
        rq = RunQueue()
        rq.add(make_proc(1))
        rq.add(make_proc(2))
        cost = rq.context_switch(clock)
        assert clock.now_ns == pytest.approx(cost)
        assert rq.switches == 1


class TestEffectiveCapacity:
    def test_undersubscribed_full_capacity(self):
        rq = RunQueue()
        for pid in range(4):
            rq.add(make_proc(pid))
        assert rq.effective_capacity(1e9, cpus=8) == 8e9

    def test_oversubscription_costs_capacity(self):
        rq = RunQueue()
        assert rq.effective_capacity(1e9, 8, nr_running=80) < 8e9

    def test_more_tasks_less_capacity(self):
        """The Fig 8 decay: capacity shrinks as the flat queue grows."""
        rq = RunQueue()
        capacities = [
            rq.effective_capacity(1e9, 32, nr_running=n)
            for n in (100, 400, 1600)
        ]
        assert capacities[0] > capacities[1] > capacities[2]

    def test_zombies_not_runnable(self):
        rq = RunQueue()
        proc = make_proc(1)
        rq.add(proc)
        proc.state = ProcessState.ZOMBIE
        assert rq.nr_running == 0

    def test_capacity_never_negative(self):
        rq = RunQueue()
        assert rq.effective_capacity(1e3, 1, nr_running=100000) >= 0.0


class TestSwitchCostSum:
    @pytest.mark.parametrize("kpti", [False, True])
    @pytest.mark.parametrize("global_maps", [False, True])
    @pytest.mark.parametrize("mmu_ns", [0.0, 1350.0])
    def test_total_is_the_breakdown_sum(self, kpti, global_maps, mmu_ns):
        """``switch_cost_ns`` adds the five ``switch_cost`` terms in
        their order, so the two agree to the last bit."""
        rq = RunQueue(
            kpti=kpti, global_kernel_mappings=global_maps,
            mmu_hypercall_ns=mmu_ns,
        )
        for pid in range(1, 6):
            rq.add(make_proc(pid))
        rq._procs[0].state = ProcessState.ZOMBIE
        for n in (None, 1, 2, 3, 7, 100, 4096):
            b = rq.switch_cost(n)
            total = b.base_ns + b.queue_ns + b.tlb_ns + b.mmu_ns + b.cache_ns
            assert rq.switch_cost_ns(n) == total
