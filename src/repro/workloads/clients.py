"""Client workload generators.

Models of the Fig 3 load generators: Apache ``ab`` (NGINX) and
``memtier_benchmark`` (memcached/Redis).  A generator owns the concurrency
level and the request mix, runs a
:class:`~repro.workloads.base.ServerModel` closed-loop, and reports the
statistics the paper reports (mean ± std of five runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.rand import DeterministicRng
from repro.perf.stats import RunStats
from repro.workloads.base import RequestProfile, ServerModel, ServerResult

#: §5.1: "we report the average and standard deviation of five runs".
DEFAULT_RUNS = 5
#: Run-to-run noise observed on shared cloud instances.
RUN_NOISE = 0.015


@dataclass
class BenchReport:
    platform: str
    workload: str
    throughput: RunStats
    latency_ms: RunStats

    @property
    def mean_throughput(self) -> float:
        return self.throughput.mean

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_ms.mean


class ClosedLoopClient:
    """Base closed-loop generator: N connections, each always outstanding."""

    name = "client"
    concurrency = 32

    def __init__(self, seed: str = "client", runs: int = DEFAULT_RUNS) -> None:
        self.rng = DeterministicRng(seed)
        self.runs = runs

    def drive(
        self, server: ServerModel, profile: RequestProfile
    ) -> BenchReport:
        server.rng = self.rng.fork(f"{profile.name}:{server.platform.name}")
        throughput = RunStats("rps")
        latency = RunStats("ms")
        for _ in range(self.runs):
            result: ServerResult = server.measure(
                profile, concurrency=self.concurrency, noise=RUN_NOISE
            )
            throughput.add(result.throughput_rps)
            latency.add(result.mean_latency_ms)
        return BenchReport(
            platform=result.platform,
            workload=profile.name,
            throughput=throughput,
            latency_ms=latency,
        )



class ApacheBench(ClosedLoopClient):
    """ab: concurrent HTTP requests (Fig 3 NGINX)."""

    name = "ab"

    def __init__(self, concurrency: int = 50, seed: str = "ab") -> None:
        super().__init__(seed)
        self.concurrency = concurrency


class MemtierBenchmark(ClosedLoopClient):
    """memtier_benchmark with a 1:10 SET:GET ratio (Fig 3 memcached/Redis).

    SETs carry larger inbound payloads than GETs; the blended profile the
    generator actually drives reflects the ratio.
    """

    name = "memtier"
    SET_GET_RATIO = (1, 10)

    def __init__(self, clients: int = 50, seed: str = "memtier") -> None:
        super().__init__(seed)
        self.concurrency = clients

    def blend_profile(self, profile: RequestProfile) -> RequestProfile:
        sets, gets = self.SET_GET_RATIO
        total = sets + gets
        set_fraction = sets / total
        # SET requests carry the value inbound; GET responses carry it out.
        from dataclasses import replace

        return replace(
            profile,
            bytes_in=int(
                profile.bytes_in + set_fraction * profile.bytes_out
            ),
            bytes_out=int(profile.bytes_out * (1 - set_fraction)),
        )

    def drive(self, server, profile):
        return super().drive(server, self.blend_profile(profile))
