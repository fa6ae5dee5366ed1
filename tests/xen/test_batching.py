"""Batched I/O data path: ring/grant/event batching (docs/io_batching.md).

Covers the batch scopes on the event-channel table, vectorized grant
copies, the batched ring push/reap in the net and block drivers, the
cost-model calibration invariant that keeps batch-of-one byte-identical
to the legacy per-request path, and the hypothesis equivalence property
between the batched and unbatched paths under arbitrary fault plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import sites
from repro.faults.plan import Every, FaultPlan, FaultSpec, Probability
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.blkdev import BlockStore, SplitBlockDriver
from repro.xen.drivers import RING_SIZE, SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.grant_table import GrantCopyError, GrantError, GrantTable
from repro.xen.hypercalls import HypercallTable
from repro.xen.hypervisor import DomainKind, XenHypervisor

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def make_net_driver(faults=None, costs=None):
    xen = XenHypervisor()
    guest = xen.create_domain("guest")
    backend = xen.create_domain("backend", DomainKind.DRIVER)
    clock = xen.clock
    events = EventChannelTable(costs or xen.costs, clock, faults=faults)
    driver = SplitNetDriver(
        guest,
        backend,
        xen.grants,
        events,
        costs or xen.costs,
        clock,
        faults=faults,
    )
    return driver, clock


class TestCalibrationInvariant:
    """Batch-of-one must cost exactly the legacy per-request price."""

    def test_fixed_plus_marginal_equals_netfront(self):
        costs = CostModel()
        assert (
            costs.ring_batch_fixed_ns + costs.ring_per_desc_ns
            == costs.netfront_ns
        )

    def test_invariant_survives_cloud_scaling(self):
        scaled = CostModel().scaled(3.5)
        assert scaled.ring_batch_fixed_ns + scaled.ring_per_desc_ns == (
            pytest.approx(scaled.netfront_ns)
        )

    def test_net_batch_of_one_costs_like_single(self):
        driver, _ = make_net_driver()
        assert driver.per_batch_cost_ns([1000]) == pytest.approx(
            driver.per_request_cost_ns(1000)
        )

    def test_batch_amortizes_fixed_cost(self):
        driver, _ = make_net_driver()
        sizes = [1000] * 8
        batched = driver.per_batch_cost_ns(sizes)
        singles = sum(driver.per_request_cost_ns(s) for s in sizes)
        assert batched < singles
        saved = 7 * CostModel().ring_batch_fixed_ns
        assert singles - batched == pytest.approx(saved)


class TestEventBatchScope:
    def test_sends_inside_scope_deliver_once_on_exit(self):
        events = EventChannelTable()
        hits = []
        port = events.bind(lambda: hits.append(1))
        with events.batch():
            for _ in range(5):
                assert events.send(port)
            assert hits == []  # deferred
            assert events.evtchn_upcall_pending
        assert len(hits) == 5
        assert events.flushes == 1
        # First send set the shared flag; the other four coalesced.
        assert events.notifications_coalesced == 4

    def test_nested_scopes_flush_only_at_outermost_exit(self):
        events = EventChannelTable()
        hits = []
        port = events.bind(lambda: hits.append(1))
        with events.batch():
            events.send(port)
            with events.batch():
                events.send(port)
            assert hits == []  # inner exit must not flush
        assert len(hits) == 2
        assert events.flushes == 1

    def test_flush_with_nothing_pending_is_free(self):
        events = EventChannelTable()
        events.bind(lambda: None)
        assert events.flush() == 0
        assert events.flushes == 0

    def test_hypercall_flush_charges_once_for_whole_batch(self):
        clock = SimClock()
        costs = CostModel()
        events = EventChannelTable(costs, clock)
        port = events.bind(lambda: None)
        with events.batch(via_hypercall=True):
            for _ in range(10):
                events.send(port)
        assert events.hypercall_deliveries == 1
        assert clock.now_ns == pytest.approx(costs.hypercall_ns)

    def test_delayed_contract_identical_inside_and_outside_scope(self):
        """Satellite fix: ``notifications_delayed`` and the delay charge
        must not depend on whether the send sits in a batch scope."""

        def run(in_scope: bool):
            engine = FaultPlan(
                (
                    FaultSpec(
                        sites.EVENT_NOTIFY, "delay", Every(1), param=500.0
                    ),
                ),
                seed=7,
            ).compile()
            clock = SimClock()
            events = EventChannelTable(CostModel(), clock, faults=engine)
            port = events.bind(lambda: None)
            if in_scope:
                with events.batch():
                    landed = events.send(port)
            else:
                landed = events.send(port)
                events.drain(via_hypercall=False)
            return landed, events.notifications_delayed, clock.now_ns

        landed_in, delayed_in, _ = run(in_scope=True)
        landed_out, delayed_out, _ = run(in_scope=False)
        assert landed_in is landed_out is True
        assert delayed_in == delayed_out == 1

    def test_dropped_send_inside_scope_reports_false(self):
        engine = FaultPlan(
            (FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1)),), seed=1
        ).compile()
        events = EventChannelTable(faults=engine)
        hits = []
        port = events.bind(lambda: hits.append(1))
        with events.batch():
            assert events.send(port) is False
        assert events.notifications_dropped == 1
        assert hits == []  # nothing landed, nothing flushed


class TestGrantCopyBatch:
    def make(self, faults=None):
        grants = GrantTable(HypercallTable(), faults=faults)
        ref = grants.grant_access(owner_domid=1, page_addr=0x1000)
        grants.map_grant(ref, mapper_domid=0)
        return grants, ref

    def test_batch_copies_and_saves_hypercalls(self):
        grants, ref = self.make()
        before = grants.hypercalls.counts["grant_table_op"]
        total = grants.copy_grant_batch(ref, 0, [100, 200, 300])
        assert total == 600
        assert grants.copies == 3
        assert grants.batched_copies == 1
        assert grants.copy_hypercalls_saved == 2
        assert grants.hypercalls.counts["grant_table_op"] == before + 1

    def test_empty_batch_is_free(self):
        grants, ref = self.make()
        before = grants.hypercalls.counts["grant_table_op"]
        assert grants.copy_grant_batch(ref, 0, []) == 0
        assert grants.hypercalls.counts["grant_table_op"] == before

    def test_negative_size_rejected(self):
        grants, ref = self.make()
        with pytest.raises(ValueError):
            grants.copy_grant_batch(ref, 0, [10, -1])

    def test_visibility_validated_once_for_whole_batch(self):
        grants, ref = self.make()
        with pytest.raises(GrantError):
            grants.copy_grant_batch(ref, 9, [10, 20])
        assert grants.copies == 0

    def test_injected_fail_loses_whole_batch(self):
        engine = FaultPlan(
            (FaultSpec(sites.GRANT_COPY, "fail", Every(2)),), seed=3
        ).compile()
        grants, ref = self.make(faults=engine)
        with pytest.raises(GrantCopyError):
            grants.copy_grant_batch(ref, 0, [10, 20, 30])
        assert grants.copy_failures == 1
        assert grants.copies == 0  # nothing partially copied

    def test_batch_of_one_matches_single_copy(self):
        grants_a, ref_a = self.make()
        grants_b, ref_b = self.make()
        assert grants_a.copy_grant(ref_a, 0, 128) == (
            grants_b.copy_grant_batch(ref_b, 0, [128])
        )
        assert (
            grants_a.hypercalls.counts["grant_table_op"]
            == grants_b.hypercalls.counts["grant_table_op"]
        )


class TestTransmitBatch:
    def test_one_kick_per_batch(self):
        driver, _ = make_net_driver()
        driver.transmit_batch([100, 200, 300, 400])
        assert driver.stats.kicks == 1
        assert driver.stats.batches == 1
        assert driver.stats.kicks_saved == 3
        assert driver.stats.requests == 4
        assert driver.stats.responses == 4
        assert driver.stats.bytes_moved == 1000
        assert driver.stats.avg_batch_size == pytest.approx(4.0)

    def test_cost_matches_pure_query(self):
        driver, clock = make_net_driver()
        sizes = [64, 1500, 4096]
        before = clock.now_ns
        cost = driver.transmit_batch(sizes)
        assert cost == pytest.approx(driver.per_batch_cost_ns(sizes))
        # The clock additionally carries the single event delivery
        # (direct-jump stack frame) for the batch's one kick.
        delivery = 6 * driver.costs.instruction_ns
        assert clock.now_ns - before == pytest.approx(cost + delivery)

    def test_single_transmit_is_batch_of_one(self):
        driver, _ = make_net_driver()
        driver.transmit(1000)
        assert driver.stats.batches == 1
        assert driver.stats.kicks_saved == 0
        assert driver.stats.avg_batch_size == pytest.approx(1.0)

    def test_empty_batch_is_noop(self):
        driver, clock = make_net_driver()
        before = clock.now_ns
        assert driver.transmit_batch([]) == 0.0
        assert driver.stats.requests == 0
        assert clock.now_ns == before

    def test_negative_size_rejected(self):
        driver, _ = make_net_driver()
        with pytest.raises(ValueError):
            driver.transmit_batch([10, -5])

    def test_ring_full_handled_mid_push(self):
        driver, _ = make_net_driver()
        driver.transmit_batch([10] * (RING_SIZE + 1))
        assert driver.stats.ring_full_stalls == 1
        assert driver.stats.requests == RING_SIZE + 1

    def test_backend_kill_retries_whole_batch(self):
        engine = FaultPlan(
            (FaultSpec(sites.NET_BACKEND, "kill", Every(3), limit=1),),
            seed=5,
        ).compile()
        driver, _ = make_net_driver(faults=engine)
        driver.transmit_batch([100, 200, 300, 400])
        assert driver.stats.backend_deaths == 1
        assert driver.stats.backend_restarts == 1
        # The whole batch was resubmitted and completed exactly once.
        assert driver.stats.requests == 4
        assert driver.stats.batches == 1
        assert engine.totals().fatal == 0

    def test_stats_as_dict_surfaces_batch_counters(self):
        driver, _ = make_net_driver()
        driver.transmit_batch([10, 20])
        d = driver.stats.as_dict()
        assert d["batches"] == 1
        assert d["kicks_saved"] == 1
        assert d["avg_batch_size"] == pytest.approx(2.0)


class TestBlockBatch:
    def make(self, faults=None):
        clock = SimClock()
        driver = SplitBlockDriver(
            BlockStore(1024), clock=clock, faults=faults
        )
        return driver, clock

    def test_write_many_read_many_roundtrip(self):
        driver, _ = self.make()
        data_a = b"a" * 512
        data_b = b"b" * 1024
        driver.write_many([(0, data_a), (10, data_b)])
        out = driver.read_many([(0, 1), (10, 2)])
        assert out == [data_a, data_b]
        assert driver.stats.batches == 2  # one write batch, one read batch
        assert driver.stats.kicks_saved == 2

    def test_read_many_of_one_extent_is_a_list(self):
        driver, _ = self.make()
        driver.write(0, b"a" * 512)
        assert driver.read_many([(0, 1)]) == [b"a" * 512]
        assert driver.read(0) == b"a" * 512

    def test_batch_of_one_costs_like_single(self):
        a, clock_a = self.make()
        b, clock_b = self.make()
        a.write(0, b"x" * 512)
        b.write_many([(0, b"x" * 512)])
        assert clock_a.now_ns == pytest.approx(clock_b.now_ns)

    def test_batched_writes_cheaper_than_singles(self):
        a, clock_a = self.make()
        b, clock_b = self.make()
        for i in range(8):
            a.write(i, b"y" * 512)
        b.write_many([(i, b"y" * 512) for i in range(8)])
        assert clock_b.now_ns < clock_a.now_ns

    def test_unaligned_write_in_batch_rejected(self):
        driver, _ = self.make()
        with pytest.raises(OSError):
            driver.write_many([(0, b"z" * 100)])

    def test_backend_kill_reruns_batch_without_tearing(self):
        engine = FaultPlan(
            (FaultSpec(sites.BLK_BACKEND, "kill", Every(2), limit=1),),
            seed=9,
        ).compile()
        driver, _ = self.make(faults=engine)
        driver.write_many([(0, b"p" * 512), (1, b"q" * 512)])
        assert driver.read(0) == b"p" * 512
        assert driver.read(1) == b"q" * 512
        assert driver.stats.backend_deaths == 1
        assert driver.stats.backend_restarts == 1
        assert engine.totals().fatal == 0


class TestXContainerIoStats:
    def test_attached_drivers_surface_batch_counters(self):
        from repro.core.xcontainer import XContainer
        from repro.core.xlibos import CountingServices

        xc = XContainer(CountingServices())
        net, _ = make_net_driver()
        net.transmit_batch([100, 200])
        xc.attach_io_driver("eth0", net)
        blk = SplitBlockDriver(BlockStore(64))
        blk.write(0, b"s" * 512)
        xc.attach_io_driver("xvda", blk)
        tel = xc.telemetry()
        assert tel.value("xen_ring_batches_total", driver="eth0") == 1
        assert tel.value("xen_ring_kicks_saved_total", driver="eth0") == 1
        assert tel.value("xen_ring_batches_total", driver="xvda") == 1
        assert {
            dict(sample.labels)["driver"]
            for sample in tel.collect()
            if sample.name == "xen_ring_batches_total"
        } == {"eth0", "xvda"}
        # Lives alongside the decode-cache counters.
        assert tel.value("arch_icache_hits_total") == 0

    def test_driver_attached_after_telemetry_is_wired(self):
        from repro.core.xcontainer import XContainer
        from repro.core.xlibos import CountingServices

        xc = XContainer(CountingServices())
        tel = xc.telemetry()  # built before any driver exists
        net, _ = make_net_driver()
        net.transmit_batch([10, 20])
        xc.attach_io_driver("late0", net)
        assert tel.value("xen_ring_batches_total", driver="late0") == 1

    def test_ring_metrics_mirror_driver_stats(self):
        """Each ring table covers every stats field of its driver."""
        from repro.core.xcontainer import XContainer
        from repro.core.xlibos import CountingServices
        from repro.obs import wire

        xc = XContainer(CountingServices())
        net, _ = make_net_driver()
        net.transmit_batch([100, 200, 300])
        net.transmit(50)
        xc.attach_io_driver("eth0", net)
        blk = SplitBlockDriver(BlockStore(64))
        blk.write(0, b"s" * 512)
        blk.read(0)
        xc.attach_io_driver("xvda", blk)
        tel = xc.telemetry()
        for name, driver, fields in (
            ("eth0", net, wire.NET_RING_FIELDS),
            ("xvda", blk, wire.BLK_RING_FIELDS),
        ):
            stats = driver.stats.as_dict()
            assert set(fields) == set(stats)
            for field, metric in fields.items():
                assert tel.value(metric, driver=name) == stats[field]

    def test_one_snapshot_reports_every_surface(self):
        """The acceptance query: one structure, all the counters."""
        from repro.core.xcontainer import XContainer
        from repro.core.xlibos import CountingServices
        from repro.faults.plan import FaultPlan, FaultSpec, Nth
        from repro.workloads.unixbench import build_syscall_bench

        engine = FaultPlan(
            (FaultSpec(sites.NET_BACKEND, "kill", Nth(1)),), seed=3
        ).compile()
        xc = XContainer(CountingServices(), faults=engine)
        xc.run(build_syscall_bench(5))
        net, _ = make_net_driver()
        net.faults = engine
        net.transmit(100)
        xc.attach_io_driver("eth0", net)
        tel = xc.telemetry()
        tel.histogram("net_http_request_latency_ns").observe(500.0)
        snap = tel.snapshot()
        counters = snap["counters"]

        def have(prefix):
            return any(key.startswith(prefix) for key in counters)

        assert have("arch_icache_hits_total")
        assert have("core_xkernel_syscalls_trapped_total")
        assert have("xen_ring_batches_total")
        assert have("faults_injected_total")
        assert "net_http_request_latency_ns{domain=xc0}" in (
            snap["histograms"]
        )

    def test_duplicate_name_rejected(self):
        from repro.core.xcontainer import XContainer
        from repro.core.xlibos import CountingServices

        xc = XContainer(CountingServices())
        net, _ = make_net_driver()
        xc.attach_io_driver("eth0", net)
        with pytest.raises(ValueError):
            xc.attach_io_driver("eth0", net)


def loss_plan(seed, p_kill, p_stall, p_drop):
    return FaultPlan(
        (
            FaultSpec(sites.NET_BACKEND, "kill", Probability(p_kill)),
            FaultSpec(sites.NET_RING, "stall", Probability(p_stall), 1.0),
            FaultSpec(sites.EVENT_NOTIFY, "drop", Probability(p_drop)),
        ),
        seed,
    )


class TestBatchedUnbatchedEquivalence:
    """Satellite property: for any seed/plan the batched path at batch
    size one is indistinguishable from the unbatched path — identical
    simulated costs, identical stats, identical fault-recovery outcome —
    and any batch split moves the same bytes and recovers identically."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        sizes=st.lists(
            st.integers(min_value=0, max_value=4096), min_size=1, max_size=30
        ),
        p_kill=st.floats(min_value=1e-6, max_value=0.04),
        p_stall=st.floats(min_value=1e-6, max_value=0.04),
        p_drop=st.floats(min_value=1e-6, max_value=0.04),
    )
    def test_batch_of_one_identical_to_single_transmit(
        self, seed, sizes, p_kill, p_stall, p_drop
    ):
        single, clock_s = make_net_driver(
            faults=loss_plan(seed, p_kill, p_stall, p_drop).compile()
        )
        batched, clock_b = make_net_driver(
            faults=loss_plan(seed, p_kill, p_stall, p_drop).compile()
        )
        costs_s = [single.transmit(n) for n in sizes]
        costs_b = [batched.transmit_batch([n]) for n in sizes]
        assert costs_s == costs_b
        assert clock_s.now_ns == clock_b.now_ns
        assert single.stats == batched.stats
        assert (
            single.faults.totals().fatal
            == batched.faults.totals().fatal
            == 0
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        sizes=st.lists(
            st.integers(min_value=0, max_value=4096), min_size=1, max_size=30
        ),
        split=st.integers(min_value=1, max_value=30),
        # A killed batch retries whole: keep per-element kill probability
        # far below the 5-attempt budget even for 30-element batches.
        p_kill=st.floats(min_value=1e-6, max_value=0.002),
    )
    def test_any_batch_split_moves_same_bytes_and_recovers(
        self, seed, sizes, split, p_kill
    ):
        kill_plan = FaultPlan(
            (FaultSpec(sites.NET_BACKEND, "kill", Probability(p_kill)),),
            seed,
        )
        unbatched, _ = make_net_driver(faults=kill_plan.compile())
        batched, _ = make_net_driver(faults=kill_plan.compile())
        for n in sizes:
            unbatched.transmit(n)
        for i in range(0, len(sizes), split):
            batched.transmit_batch(sizes[i : i + split])
        assert unbatched.stats.bytes_moved == batched.stats.bytes_moved
        assert unbatched.stats.requests == batched.stats.requests
        assert unbatched.stats.responses == batched.stats.responses
        assert batched.faults.totals().fatal == 0
        assert unbatched.faults.totals().fatal == 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=SEEDS,
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.binary(min_size=512, max_size=512),
            ),
            min_size=1,
            max_size=16,
        ),
        split=st.integers(min_value=1, max_value=16),
        p_kill=st.floats(min_value=1e-6, max_value=0.005),
    )
    def test_blk_batched_stream_matches_unbatched(
        self, seed, writes, split, p_kill
    ):
        plan = FaultPlan(
            (FaultSpec(sites.BLK_BACKEND, "kill", Probability(p_kill)),),
            seed,
        )
        a = SplitBlockDriver(
            BlockStore(64), clock=SimClock(), faults=plan.compile()
        )
        b = SplitBlockDriver(
            BlockStore(64), clock=SimClock(), faults=plan.compile()
        )
        for sector, data in writes:
            a.write(sector, data)
        for i in range(0, len(writes), split):
            b.write_many(writes[i : i + split])
        for sector, _ in writes:
            assert a.read(sector) == b.read(sector)
        assert a.faults.totals().fatal == 0
        assert b.faults.totals().fatal == 0
