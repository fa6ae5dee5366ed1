"""The traffic generator: arrival statistics and shard purity."""

import random
from bisect import bisect_left
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.rand import DeterministicRng
from repro.serve import traffic
from repro.serve.traffic import (
    SERVE_LATENCY_BUCKETS_NS,
    ShardConfig,
    ShardIntervalResult,
    ShardSnapshot,
    ShardState,
    initial_shard_state,
    mix_tables,
    run_shard_interval,
)


def make_config(**overrides):
    defaults = dict(
        seed="test",
        shards=2,
        rate_rps=2000.0,
        tail_alpha=1.6,
        churn_p=1.0 / 24.0,
        mix_cum_weights=(0.7, 0.95, 1.0),
        mix_work=(0.6, 1.0, 4.0),
        backend_service_ns=1_200_000.0,
        director_service_ns=15_000.0,
        conn_setup_ns=80_000.0,
        retry_penalty_ns=2_000_000.0,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def make_snapshot(**overrides):
    defaults = dict(
        interval_idx=0,
        t0_ns=0.0,
        t1_ns=100e6,
        dead=frozenset(),
        loss_p=0.0,
        share_by_backend=(),
    )
    defaults.update(overrides)
    return ShardSnapshot(**defaults)


class TestHeavyTail:
    """Each gap is an exponential draw times a mean-one Pareto factor
    ``H = (alpha-1)/alpha * u^(-1/alpha)``, drawn inline by
    ``run_shard_interval``."""

    def test_factor_is_mean_one(self):
        # alpha=3 keeps the variance finite so the count settles: 25 s
        # at 2000/s is 50,000 expected arrivals (about 0.6% spread).
        cfg = make_config(rate_rps=2000.0, tail_alpha=3.0, seed="tail-mean")
        result, _ = run_shard_interval(
            cfg, 0, initial_shard_state([0]), make_snapshot(t1_ns=25e9)
        )
        assert abs(result.arrivals / 50_000 - 1.0) < 0.05

    def test_factor_lower_bound(self, monkeypatch):
        """Pareto support starts at (alpha-1)/alpha, at u = 1: with every
        uniform draw fixed, gaps are exactly ``E * floor`` apart."""
        alpha = 1.6
        floor = (alpha - 1.0) / alpha
        draws = {"expo": 0.5, "tail": 0.0}

        class FixedRng(random.Random):
            def __init__(self, seed):
                super().__init__(0)
                self.calls = 0

            def random(self):
                # Per arrival on a dead backend: gap, factor, class.
                self.calls += 1
                return (draws["expo"], draws["tail"], 0.5)[(self.calls - 1) % 3]

            def getrandbits(self, k):
                return 0

        monkeypatch.setattr(traffic, "DeterministicRng", FixedRng)
        cfg = make_config(rate_rps=1000.0, tail_alpha=alpha)
        snap = make_snapshot(t1_ns=1e9, dead=frozenset({0}))
        result, _ = run_shard_interval(cfg, 0, initial_shard_state([0]), snap)
        gap_ns = -log(0.5) / 1000.0 * floor * 1e9
        t, expected = 0.0, 0
        while True:
            t += gap_ns
            if t >= 1e9:
                break
            expected += 1
        assert result.arrivals == result.errors == expected
        # Any other u in (0, 1) gives a larger factor: fewer arrivals.
        draws["tail"] = 0.25
        fewer, _ = run_shard_interval(cfg, 0, initial_shard_state([0]), snap)
        assert fewer.arrivals < expected


class TestMixTables:
    def test_cumulative_weights_close_at_one(self):
        cum, work = mix_tables(((0.7, 0.6), (0.25, 1.0), (0.05, 4.0)))
        assert cum[-1] == 1.0
        assert len(cum) == len(work) == 3
        assert work == (0.6, 1.0, 4.0)

    def test_weights_are_normalized(self):
        cum, _ = mix_tables(((7.0, 1.0), (3.0, 2.0)))
        assert abs(cum[0] - 0.7) < 1e-12
        assert cum[1] == 1.0


class TestShardInterval:
    def test_same_inputs_same_outputs(self):
        cfg = make_config()
        snap = make_snapshot()
        r1, s1 = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2, 3]), snap
        )
        r2, s2 = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2, 3]), snap
        )
        assert r1 == r2
        assert s1 == s2

    def test_streams_differ_across_shards_and_intervals(self):
        cfg = make_config()
        base, _ = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1]), make_snapshot()
        )
        other_shard, _ = run_shard_interval(
            cfg, 1, initial_shard_state([0, 1]), make_snapshot()
        )
        other_iv, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([0, 1]),
            make_snapshot(interval_idx=1, t0_ns=100e6, t1_ns=200e6),
        )
        assert base.arrivals != other_shard.arrivals or (
            base.lat_sum != other_shard.lat_sum
        )
        assert base.lat_sum != other_iv.lat_sum

    def test_dead_backend_errors_every_request(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([7, 7, 7, 7]),
            make_snapshot(dead=frozenset({7})),
        )
        assert result.arrivals > 0
        assert result.errors == result.arrivals
        assert result.completed == 0

    def test_total_loss_retransmits_every_request(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg,
            0,
            initial_shard_state([0, 1]),
            make_snapshot(loss_p=0.999999),
        )
        assert result.completed > 0
        assert result.retransmits == result.completed

    def test_latency_counts_match_completions(self):
        cfg = make_config()
        result, _ = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1, 2]), make_snapshot()
        )
        assert sum(result.lat_bucket_counts) == result.completed
        assert result.lat_count == result.completed
        assert result.lat_sum > 0

    def test_fresh_slots_cleared_after_first_use(self):
        cfg = make_config()
        _, state = run_shard_interval(
            cfg, 0, initial_shard_state([0, 1]), make_snapshot()
        )
        assert state.fresh == [False, False]

    def test_nonpositive_rate_rejected(self):
        for rate in (0.0, -5.0):
            with pytest.raises(ValueError, match="rate must be positive"):
                run_shard_interval(
                    make_config(rate_rps=rate), 0,
                    initial_shard_state([0]), make_snapshot(),
                )

    def test_empty_connection_pool_rejected(self):
        # getrandbits(0) is always 0: an empty pool would never draw a slot.
        with pytest.raises(ValueError, match="at least one connection"):
            run_shard_interval(
                make_config(), 0, initial_shard_state([]), make_snapshot()
            )

    def test_buckets_cover_subsecond_latencies(self):
        assert SERVE_LATENCY_BUCKETS_NS[0] == 50_000.0
        assert SERVE_LATENCY_BUCKETS_NS[-1] > 1e9
        edges = list(SERVE_LATENCY_BUCKETS_NS)
        assert edges == sorted(edges)


# ----------------------------------------------------------------------
# Property: the inline draws reproduce the library calls they replace
# ----------------------------------------------------------------------
def library_heavy_tail_factor(rng, alpha):
    u = 1.0 - rng.random()
    return (alpha - 1.0) / alpha * u ** (-1.0 / alpha)


def library_shard_interval(cfg, shard_idx, state, snap):
    """The shard loop drawing through ``expovariate``, a Pareto helper
    and ``randint``, as it did before its draws were inlined."""
    rng = DeterministicRng(f"{cfg.seed}:shard{shard_idx}:iv{snap.interval_idx}")
    n_buckets = len(cfg.buckets)
    counts = [0] * n_buckets
    served, busy, churned = {}, {}, set()
    arrivals = completed = errors = retransmits = 0
    lat_sum = 0.0
    n_conns = len(state.conns)
    share_of = dict(snap.share_by_backend)
    dfree = state.director_free_ns
    bfree = state.backend_free_ns
    t = snap.t0_ns
    while True:
        gap = rng.expovariate(cfg.rate_rps) * library_heavy_tail_factor(
            rng, cfg.tail_alpha
        )
        t += gap * 1e9
        if t >= snap.t1_ns:
            break
        arrivals += 1
        slot = rng.randint(0, n_conns - 1)
        klass = bisect_left(cfg.mix_cum_weights, rng.random())
        if klass >= len(cfg.mix_work):
            klass = len(cfg.mix_work) - 1
        backend = state.conns[slot]
        if backend in snap.dead:
            errors += 1
            continue
        penalty = 0.0
        if snap.loss_p and rng.random() < snap.loss_p:
            retransmits += 1
            penalty = cfg.retry_penalty_ns
        dserv = cfg.director_service_ns
        wait_d = dfree - t if dfree > t else 0.0
        dfree = (dfree if dfree > t else t) + dserv * float(cfg.shards)
        at_backend = t + wait_d + dserv
        if state.fresh[slot]:
            at_backend += cfg.conn_setup_ns
            penalty += cfg.conn_setup_ns
            state.fresh[slot] = False
        service = cfg.backend_service_ns * cfg.mix_work[klass]
        free = bfree.get(backend, 0.0)
        wait_b = free - at_backend if free > at_backend else 0.0
        bfree[backend] = (free if free > at_backend else at_backend) + (
            service * share_of.get(backend, float(cfg.shards))
        )
        latency = wait_d + dserv + wait_b + service + penalty
        completed += 1
        lat_sum += latency
        index = bisect_left(cfg.buckets, latency)
        if index < n_buckets:
            counts[index] += 1
        served[backend] = served.get(backend, 0) + 1
        busy[backend] = busy.get(backend, 0.0) + service
        if slot not in churned and rng.random() < cfg.churn_p:
            churned.add(slot)
    t1 = snap.t1_ns
    queue_ns = dfree - t1 if dfree > t1 else 0.0
    kept = {}
    for backend in sorted(bfree):
        if bfree[backend] > t1:
            kept[backend] = bfree[backend]
            queue_ns += bfree[backend] - t1
    return ShardIntervalResult(
        arrivals=arrivals,
        completed=completed,
        errors=errors,
        retransmits=retransmits,
        lat_bucket_counts=counts,
        lat_sum=lat_sum,
        lat_count=completed,
        served_by_backend=served,
        busy_ns_by_backend=busy,
        churned_slots=tuple(sorted(churned)),
        queue_ns_end=queue_ns,
    ), ShardState(state.conns, state.fresh, kept, dfree)


class TestInlineDraws:
    @given(
        seed=st.text(max_size=8),
        shard_idx=st.integers(0, 7),
        interval_idx=st.integers(0, 50),
        n_conns=st.sampled_from([1, 2, 32, 40, 256]),
        layout=st.integers(0, 2**32),
        loss_p=st.sampled_from([0.0, 0.05, 0.5]),
        churn_p=st.floats(0.0, 1.0),
        alpha=st.floats(1.05, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_library_draws(
        self, seed, shard_idx, interval_idx, n_conns, layout, loss_p,
        churn_p, alpha,
    ):
        pick = random.Random(layout)
        conns = [pick.randrange(6) for _ in range(n_conns)]
        dead = frozenset(b for b in range(6) if pick.random() < 0.2)
        fresh = [pick.random() < 0.5 for _ in range(n_conns)]
        share = tuple((b, 1.0 + pick.random() * 3) for b in range(0, 6, 2))
        cfg = make_config(seed=seed, churn_p=churn_p, tail_alpha=alpha)
        t0 = interval_idx * 50e6
        snap = make_snapshot(
            interval_idx=interval_idx, t0_ns=t0, t1_ns=t0 + 50e6,
            dead=dead, loss_p=loss_p, share_by_backend=share,
        )

        def state():
            return ShardState(list(conns), list(fresh), {1: t0 + 2e6}, t0)

        assert run_shard_interval(cfg, shard_idx, state(), snap) == (
            library_shard_interval(cfg, shard_idx, state(), snap)
        )
