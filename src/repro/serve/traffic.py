"""The open-loop traffic generator: per-shard, per-interval workers.

Arrivals are open-loop (clients do not wait for responses before
issuing the next request) with heavy-tailed inter-arrivals: each
exponential gap is modulated by a mean-one Pareto factor
``H = (alpha-1)/alpha * u^(-1/alpha)``, producing the bursts-and-lulls
shape of production front-end traffic while keeping the configured mean
rate exact.

Each shard owns a fixed pool of keep-alive client connections (backend
assignment decided by the IPVS director at the interval boundary) and a
shard-local view of every backend's backlog.  A shard's interval is a
**pure function**::

    (config, shard_idx, state, snapshot) -> (result, new_state)

with all randomness drawn from a ``DeterministicRng`` stream named by
``(seed, shard, interval)`` — no global state, no wall clock — so the
sharding runner can evaluate shards serially or across worker processes
and produce byte-identical results either way.

Capacity sharing: a backend is one vCPU serving all shards, so a shard
sees a fraction of it — every request advances the shard-local backlog
by ``service * (total_conns / shard_conns)`` while charging the request
a single service time.  Because a shard's traffic to a backend is
proportional to the connections it holds there, this divisor makes each
shard's queueing view consistent with the backend's true aggregate
load.  It is the per-CPU approximation real IPVS deployments make
(flow-hashed RX queues), and it keeps shards fully independent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import log

from repro.perf.rand import DeterministicRng

#: Latency bucket edges (ns): quarter-octave geometric ladder from 50 µs
#: to ~4.8 s, fine enough for meaningful p999 interpolation.
SERVE_LATENCY_BUCKETS_NS: tuple[float, ...] = tuple(
    50_000.0 * (2.0 ** 0.25) ** k for k in range(67)
)


@dataclass(frozen=True)
class ShardConfig:
    """Static per-run configuration, shipped once to every worker."""

    seed: str
    shards: int
    #: Offered arrivals per second for ONE shard.
    rate_rps: float
    tail_alpha: float
    #: Per-request churn probability (1 / keep-alive budget).
    churn_p: float
    #: Request-class mix: parallel tuples (cumulative weight, work).
    mix_cum_weights: tuple[float, ...]
    mix_work: tuple[float, ...]
    backend_service_ns: float
    director_service_ns: float
    conn_setup_ns: float
    retry_penalty_ns: float
    buckets: tuple[float, ...] = SERVE_LATENCY_BUCKETS_NS


@dataclass(frozen=True)
class ShardSnapshot:
    """The engine's per-interval view pushed down to ONE shard."""

    interval_idx: int
    t0_ns: float
    t1_ns: float
    #: Backends dead as of the interval start: every request on one of
    #: their connections errors until the director re-schedules the
    #: connection at the next boundary.
    dead: frozenset[int]
    #: Packet-drop probability while the chaos window is open (0 off).
    loss_p: float
    #: Backend id -> this shard's capacity-share divisor, i.e.
    #: ``total_conns(b) / conns_in_this_shard(b)``: a shard holding
    #: half of a backend's connections sees half its capacity.  The
    #: engine recomputes this at every boundary from the director's
    #: live connection table, which keeps the shard-local queueing
    #: model consistent with the global wlc assignment.
    share_by_backend: tuple[tuple[int, float], ...]


@dataclass
class ShardState:
    """A shard's carry-over between intervals (picklable, no RNG)."""

    #: Backend id per connection slot (assigned by the director).
    conns: list[int]
    #: Slots opened at the last boundary: first request pays setup.
    fresh: list[bool]
    #: Shard-local backlog horizon per backend id (ns, absolute).
    backend_free_ns: dict[int, float]
    director_free_ns: float = 0.0


@dataclass
class ShardIntervalResult:
    """What one shard hands back for one control interval."""

    arrivals: int
    completed: int
    errors: int
    retransmits: int
    lat_bucket_counts: list[int]
    lat_sum: float
    lat_count: int
    served_by_backend: dict[int, int]
    busy_ns_by_backend: dict[int, float]
    #: Slots whose keep-alive budget expired (director re-schedules).
    churned_slots: tuple[int, ...]
    #: Backlog not yet drained at the interval end (ns, both tiers).
    queue_ns_end: float


def initial_shard_state(conns: list[int]) -> ShardState:
    return ShardState(
        conns=list(conns),
        fresh=[True] * len(conns),
        backend_free_ns={},
    )


def run_shard_interval(
    cfg: ShardConfig,
    shard_idx: int,
    state: ShardState,
    snap: ShardSnapshot,
) -> tuple[ShardIntervalResult, ShardState]:
    """One shard's interval — pure, deterministic, process-safe.

    Every draw goes straight to the stream's ``random`` and
    ``getrandbits``, in the order and with the arithmetic of
    ``expovariate(rate) * H`` and ``randint(0, n_conns - 1)`` (CPython's
    ``getrandbits`` rejection sampling), so the bits and floats are
    those of the library calls without their Python frames.
    """
    rate = cfg.rate_rps
    if rate <= 0:
        raise ValueError(f"rate must be positive: {rate}")
    n_conns = len(state.conns)
    if n_conns < 1:
        raise ValueError("a shard needs at least one connection")
    rng = DeterministicRng(
        f"{cfg.seed}:shard{shard_idx}:iv{snap.interval_idx}"
    )
    random = rng.random
    getrandbits = rng.getrandbits
    slot_bits = n_conns.bit_length()
    # Pareto factor H = (alpha-1)/alpha * u^(-1/alpha), u in (0, 1].
    tail_scale = (cfg.tail_alpha - 1.0) / cfg.tail_alpha
    tail_exp = -1.0 / cfg.tail_alpha
    n_buckets = len(cfg.buckets)
    counts = [0] * n_buckets
    served: dict[int, int] = {}
    busy: dict[int, float] = {}
    churned: set[int] = set()
    arrivals = completed = errors = retransmits = 0
    lat_sum = 0.0
    director_share = float(cfg.shards)
    share_of = dict(snap.share_by_backend)
    default_share = float(cfg.shards)
    dserv = cfg.director_service_ns
    bserv_base = cfg.backend_service_ns
    dfree = state.director_free_ns
    bfree = state.backend_free_ns

    t = snap.t0_ns
    while True:
        gap = -log(1.0 - random()) / rate * (
            tail_scale * (1.0 - random()) ** tail_exp
        )
        t += gap * 1e9
        if t >= snap.t1_ns:
            break
        arrivals += 1
        slot = getrandbits(slot_bits)
        while slot >= n_conns:
            slot = getrandbits(slot_bits)
        klass = bisect_left(cfg.mix_cum_weights, random())
        if klass >= len(cfg.mix_work):  # float-edge guard
            klass = len(cfg.mix_work) - 1
        backend = state.conns[slot]
        if backend in snap.dead:
            # The connection died with its backend; the director
            # re-schedules it at the next control tick.
            errors += 1
            continue
        penalty = 0.0
        if snap.loss_p and random() < snap.loss_p:
            # One bounded retransmit always lands (RetryPolicy spirit).
            retransmits += 1
            penalty = cfg.retry_penalty_ns
        # Director tier (NAT pays for both directions, DR barely).
        wait_d = dfree - t if dfree > t else 0.0
        dfree = (dfree if dfree > t else t) + dserv * director_share
        at_backend = t + wait_d + dserv
        if state.fresh[slot]:
            at_backend += cfg.conn_setup_ns
            penalty += cfg.conn_setup_ns
            state.fresh[slot] = False
        # Backend tier.
        service = bserv_base * cfg.mix_work[klass]
        free = bfree.get(backend, 0.0)
        wait_b = free - at_backend if free > at_backend else 0.0
        bfree[backend] = (
            free if free > at_backend else at_backend
        ) + service * share_of.get(backend, default_share)
        latency = wait_d + dserv + wait_b + service + penalty
        completed += 1
        lat_sum += latency
        index = bisect_left(cfg.buckets, latency)
        if index < n_buckets:
            counts[index] += 1
        served[backend] = served.get(backend, 0) + 1
        busy[backend] = busy.get(backend, 0.0) + service
        if slot not in churned and random() < cfg.churn_p:
            churned.add(slot)

    # Prune drained backlogs; sum the residue in sorted order so float
    # accumulation is identical no matter how the dict was built.
    t1 = snap.t1_ns
    queue_ns = dfree - t1 if dfree > t1 else 0.0
    kept: dict[int, float] = {}
    for backend in sorted(bfree):
        free = bfree[backend]
        if free > t1:
            kept[backend] = free
            queue_ns += free - t1
    new_state = ShardState(
        conns=state.conns,
        fresh=state.fresh,
        backend_free_ns=kept,
        director_free_ns=dfree,
    )
    result = ShardIntervalResult(
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
    )
    return result, new_state


def mix_tables(
    weights_and_work: tuple[tuple[float, float], ...],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Normalized cumulative-weight and work lookup tables."""
    total = sum(w for w, _ in weights_and_work)
    cum: list[float] = []
    running = 0.0
    for weight, _ in weights_and_work:
        running += weight / total
        cum.append(running)
    cum[-1] = 1.0  # close the float gap so bisect never falls off
    return tuple(cum), tuple(work for _, work in weights_and_work)
