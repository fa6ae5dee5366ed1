"""Figure 3 — macrobenchmarks: NGINX, memcached, Redis on EC2 and GCE.

Ten §5.1 configurations per workload per cloud; throughput and latency
normalized to patched Docker.  Clear Containers only exist on GCE (no
nested hardware virtualization on EC2).
"""

from __future__ import annotations

from repro.cloud.instances import EC2, GCE, CloudSite
from repro.experiments.report import ExperimentResult, Row
from repro.platforms.registry import cloud_configurations
from repro.workloads.base import ServerModel
from repro.workloads.clients import ApacheBench, MemtierBenchmark
from repro.workloads.profiles import MEMCACHED, NGINX, REDIS

WORKLOADS = [
    ("nginx", NGINX, ApacheBench),
    ("memcached", MEMCACHED, MemtierBenchmark),
    ("redis", REDIS, MemtierBenchmark),
]
SITES = (EC2, GCE)


def _measure_site(
    site: CloudSite,
) -> dict[str, dict[str, tuple[float, float] | None]]:
    """Drive every workload × configuration on ``site``.

    Returns ``{workload: {config: (throughput, latency_ms)}}`` of
    absolute means, both levels in table order; a configuration the
    site cannot run measures ``None``."""
    configs = cloud_configurations(site.costs())
    measured: dict[str, dict[str, tuple[float, float] | None]] = {}
    for workload_name, profile, client_cls in WORKLOADS:
        client = client_cls(seed=f"fig3:{site.name}:{workload_name}")
        pairs = measured[workload_name] = {}
        for config_name, platform in configs.items():
            if not site.supports(platform):
                pairs[config_name] = None
                continue
            report = client.drive(ServerModel(platform, site), profile)
            pairs[config_name] = (
                report.mean_throughput, report.mean_latency_ms
            )
    return measured


def run() -> tuple[ExperimentResult, ExperimentResult]:
    """Returns (relative throughput, relative latency) — Fig 3a and 3b,
    each measured pair divided by patched Docker's on the same column."""
    throughput_rows: dict[str, Row] = {}
    latency_rows: dict[str, Row] = {}
    columns = []
    for site in SITES:
        for workload_name, pairs in _measure_site(site).items():
            column = f"{site.name}/{workload_name}"
            columns.append(column)
            docker_tp, docker_lat = pairs["docker"]
            for config_name, pair in pairs.items():
                t_row = throughput_rows.setdefault(
                    config_name, Row(config_name)
                )
                l_row = latency_rows.setdefault(config_name, Row(config_name))
                if pair is None:
                    t_row.values[column] = None
                    l_row.values[column] = None
                else:
                    t_row.values[column] = pair[0] / docker_tp
                    l_row.values[column] = pair[1] / docker_lat
    throughput = ExperimentResult(
        "fig3a",
        "Figure 3a: relative throughput (normalized to patched Docker; "
        "higher is better)",
        columns,
        list(throughput_rows.values()),
    )
    latency = ExperimentResult(
        "fig3b",
        "Figure 3b: relative latency (normalized to patched Docker; "
        "lower is better)",
        columns,
        list(latency_rows.values()),
    )
    return throughput, latency
