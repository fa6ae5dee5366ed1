"""Serving-fleet scenario definitions.

A :class:`ServeScenario` is a fully declarative description of one
fleet-scale serving run: the IPVS mode and scheduler, the initial
backend count, the offered load (as a target utilization of the initial
fleet), the request mix, connection-churn behaviour, the autoscaler and
SLO policies, and an optional chaos overlay.  Everything the engine
does is derived from the scenario plus one seed, so the same pair
always produces a byte-identical report (the ``repro chaos`` contract).

The per-component service costs come from the Fig 9 cluster model
(:class:`repro.lb.cluster.LoadBalancedCluster`): a serve scenario is the
same director + N-backend fleet, just with hundreds of backends, its
own (heavier) request profile, and time in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults import sites
from repro.faults.plan import FaultPlan, FaultSpec, TimeWindow
from repro.guest.ipvs import IpvsMode
from repro.workloads.base import RequestProfile
from repro.workloads.profiles import NGINX

#: The fleet backend profile: a dynamic app behind NGINX (think uwsgi),
#: ~1 ms of application work per request, so one backend sustains on the
#: order of 10^3 req/s and a hundred-backend fleet serves ~10^5 req/s.
FLEET_PROFILE = replace(
    NGINX, bytes_in=600, bytes_out=8000, app_work_ns=1_000_000, processes=1
)


@dataclass(frozen=True)
class RequestClass:
    """One entry of the request-size mix.

    ``work`` scales the backend's per-request service time (payload
    size and compute both ride the same knob); ``weight`` is the
    relative arrival probability.
    """

    name: str
    weight: float
    work: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"mix weight must be positive: {self.weight}")
        if self.work <= 0:
            raise ValueError(f"work factor must be positive: {self.work}")


#: Default heavy-tailed size mix: mostly small cached-ish responses, a
#: thin stream of expensive requests (mean work factor 0.87).
DEFAULT_MIX: tuple[RequestClass, ...] = (
    RequestClass("small", 0.70, 0.6),
    RequestClass("medium", 0.25, 1.0),
    RequestClass("large", 0.05, 4.0),
)


@dataclass(frozen=True)
class SloPolicy:
    """The latency objective and the chaos-recovery budget."""

    #: Interval p99 latency objective, in milliseconds.
    p99_ms: float
    #: After the first backend death, p99 must return under the
    #: objective within this many milliseconds.
    recovery_window_ms: float

    def __post_init__(self) -> None:
        if self.p99_ms <= 0 or self.recovery_window_ms <= 0:
            raise ValueError("SLO targets must be positive")


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Hysteresis band + cooldowns for the backend-count control loop."""

    min_backends: int
    max_backends: int
    #: Scale up when interval p99 exceeds this (ms).
    up_p99_ms: float
    #: Scale down only when p99 is below this (ms) AND utilization is
    #: below ``down_utilization`` — the hysteresis band.
    down_p99_ms: float
    down_utilization: float
    up_step: int = 4
    down_step: int = 2
    cooldown_up_ms: float = 200.0
    cooldown_down_ms: float = 400.0
    #: Cold-spawn delay: a new backend serves only after this long.
    spawn_delay_ms: float = 150.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_backends <= self.max_backends:
            raise ValueError(
                f"need 1 <= min <= max backends: "
                f"{self.min_backends}..{self.max_backends}"
            )
        if self.down_p99_ms >= self.up_p99_ms:
            raise ValueError(
                "hysteresis band is empty: down_p99_ms must be below "
                f"up_p99_ms ({self.down_p99_ms} >= {self.up_p99_ms})"
            )
        if self.up_step < 1 or self.down_step < 1:
            raise ValueError("scale steps must be >= 1")


@dataclass(frozen=True)
class ChaosOverlay:
    """A ``repro.faults`` plan replayed against the running fleet.

    Compiles to two specs on the existing site catalog: backend deaths
    (:data:`repro.faults.sites.NET_BACKEND`, kind ``kill``, at most one
    per control interval inside the window) and packet loss
    (:data:`repro.faults.sites.NET_PACKET`, kind ``drop``, applied to
    each request with probability ``packet_loss_p`` while the window is
    open).  Victims are chosen from a :class:`DeterministicRng` fork of
    the run seed, so the whole overlay replays byte-identically.
    """

    start_ms: float
    duration_ms: float
    backend_kills: int = 0
    packet_loss_p: float = 0.0
    #: Latency cost of one retransmitted (dropped) request, ms.
    retry_penalty_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ValueError("chaos window must be positive and in-run")
        if self.backend_kills < 0:
            raise ValueError(f"kills must be >= 0: {self.backend_kills}")
        if not 0.0 <= self.packet_loss_p < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1): {self.packet_loss_p}"
            )
        if self.backend_kills == 0 and self.packet_loss_p == 0.0:
            raise ValueError("chaos overlay injects nothing")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def build_plan(self, seed: int | str) -> FaultPlan:
        """The overlay as a first-class, replayable ``FaultPlan``."""
        start_ns = self.start_ms * 1e6
        end_ns = self.end_ms * 1e6
        specs: list[FaultSpec] = []
        if self.backend_kills:
            specs.append(
                FaultSpec(
                    sites.NET_BACKEND,
                    "kill",
                    TimeWindow(start_ns, end_ns),
                    limit=self.backend_kills,
                )
            )
        if self.packet_loss_p:
            specs.append(
                FaultSpec(
                    sites.NET_PACKET,
                    "drop",
                    TimeWindow(start_ns, end_ns),
                    param=self.packet_loss_p,
                )
            )
        return FaultPlan(tuple(specs), seed=seed)


@dataclass(frozen=True)
class ServeScenario:
    """One serving-fleet run, fully determined together with a seed."""

    name: str
    description: str
    mode: IpvsMode
    backends: int
    duration_ms: float
    interval_ms: float
    #: Offered load as a fraction of the *initial* fleet's capacity
    #: (the engine converts to requests/sec using the cost model and
    #: the mix's mean work factor).
    offered_load: float
    autoscaler: AutoscalerPolicy
    slo: SloPolicy
    scheduler: str = "wlc"
    chaos: ChaosOverlay | None = None
    #: Pareto shape of the inter-arrival heavy-tail modulation
    #: (smaller = burstier; must be > 1 so the mean exists).
    tail_alpha: float = 1.6
    mix: tuple[RequestClass, ...] = DEFAULT_MIX
    #: Mean requests per keep-alive connection before churn.
    keepalive_requests: int = 24
    #: Client connections per arrival shard.
    conns_per_shard: int = 32
    #: Independent arrival streams (fixed by the scenario, NOT by the
    #: host: worker processes split these, so worker count never
    #: changes results).
    shards: int = 4
    backend_profile: RequestProfile = FLEET_PROFILE
    #: TCP + IPVS connection establishment cost, charged to the first
    #: request of each fresh connection (µs).
    conn_setup_us: float = 80.0

    def __post_init__(self) -> None:
        if self.backends < 1:
            raise ValueError(f"need >= 1 backend: {self.backends}")
        if self.duration_ms <= 0 or self.interval_ms <= 0:
            raise ValueError("duration and interval must be positive")
        if self.duration_ms < self.interval_ms:
            raise ValueError("duration shorter than one control interval")
        if not 0 < self.offered_load:
            raise ValueError(f"offered load must be positive: "
                             f"{self.offered_load}")
        if self.tail_alpha <= 1.0:
            raise ValueError(
                f"tail alpha must be > 1 for a finite mean: "
                f"{self.tail_alpha}"
            )
        if self.keepalive_requests < 1:
            raise ValueError("keep-alive budget must be >= 1")
        if self.conns_per_shard < 1 or self.shards < 1:
            raise ValueError("need >= 1 connection and >= 1 shard")
        if not self.mix:
            raise ValueError("request mix is empty")
        if self.chaos is not None:
            if self.chaos.end_ms > self.duration_ms:
                raise ValueError("chaos window extends past the run")
            n_intervals = int(self.chaos.duration_ms // self.interval_ms)
            if self.chaos.backend_kills > n_intervals:
                raise ValueError(
                    "at most one backend death per control interval: "
                    f"{self.chaos.backend_kills} kills in "
                    f"{n_intervals} intervals"
                )
        if not (self.autoscaler.min_backends
                <= self.backends
                <= self.autoscaler.max_backends):
            raise ValueError(
                "initial backends outside the autoscaler's range"
            )

    @property
    def n_intervals(self) -> int:
        return int(round(self.duration_ms / self.interval_ms))

    @property
    def mean_work(self) -> float:
        total = sum(c.weight for c in self.mix)
        return sum(c.weight * c.work for c in self.mix) / total


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _scenarios() -> dict[str, ServeScenario]:
    catalog = (
        ServeScenario(
            name="ci-small",
            description="8-backend NAT fleet, one backend death + packet "
                        "loss; small enough for every CI seed",
            mode=IpvsMode.NAT,
            backends=8,
            duration_ms=1200.0,
            interval_ms=100.0,
            offered_load=0.70,
            shards=2,
            conns_per_shard=40,
            autoscaler=AutoscalerPolicy(
                min_backends=6,
                max_backends=16,
                up_p99_ms=30.0,
                down_p99_ms=8.0,
                down_utilization=0.55,
                up_step=2,
                down_step=1,
                cooldown_up_ms=200.0,
                cooldown_down_ms=400.0,
                spawn_delay_ms=150.0,
            ),
            slo=SloPolicy(p99_ms=30.0, recovery_window_ms=600.0),
            chaos=ChaosOverlay(
                start_ms=400.0,
                duration_ms=200.0,
                backend_kills=1,
                packet_loss_p=0.02,
            ),
        ),
        ServeScenario(
            name="fleet-100",
            description="100-backend direct-routing fleet under sustained "
                        "load with mid-run backend deaths and autoscaled "
                        "recovery (the tentpole scenario)",
            mode=IpvsMode.DIRECT_ROUTING,
            backends=100,
            duration_ms=2000.0,
            interval_ms=100.0,
            offered_load=0.72,
            shards=4,
            conns_per_shard=256,
            autoscaler=AutoscalerPolicy(
                min_backends=80,
                max_backends=140,
                up_p99_ms=40.0,
                down_p99_ms=10.0,
                down_utilization=0.60,
                up_step=5,
                down_step=2,
                cooldown_up_ms=200.0,
                cooldown_down_ms=500.0,
                spawn_delay_ms=150.0,
            ),
            slo=SloPolicy(p99_ms=40.0, recovery_window_ms=800.0),
            chaos=ChaosOverlay(
                start_ms=600.0,
                duration_ms=500.0,
                backend_kills=5,
                packet_loss_p=0.02,
            ),
        ),
        ServeScenario(
            name="fleet-nat",
            description="40-backend NAT fleet: the director carries every "
                        "response byte, so the same load leans on NAT "
                        "translation throughput",
            mode=IpvsMode.NAT,
            backends=40,
            duration_ms=1500.0,
            interval_ms=100.0,
            offered_load=0.70,
            shards=4,
            conns_per_shard=100,
            autoscaler=AutoscalerPolicy(
                min_backends=32,
                max_backends=64,
                up_p99_ms=30.0,
                down_p99_ms=8.0,
                down_utilization=0.55,
                up_step=4,
                down_step=2,
                cooldown_up_ms=200.0,
                cooldown_down_ms=500.0,
                spawn_delay_ms=150.0,
            ),
            slo=SloPolicy(p99_ms=30.0, recovery_window_ms=700.0),
            chaos=ChaosOverlay(
                start_ms=500.0,
                duration_ms=300.0,
                backend_kills=2,
                packet_loss_p=0.02,
            ),
        ),
    )
    return {scenario.name: scenario for scenario in catalog}


SCENARIOS: dict[str, ServeScenario] = _scenarios()


def get_scenario(name: str) -> ServeScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown serve scenario {name!r} (known: {known})"
        ) from None
