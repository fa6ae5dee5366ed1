"""Workload models: request profiles, client generators, benchmarks."""

from repro.workloads.base import (
    RequestProfile,
    ServerModel,
    ServerResult,
)
from repro.workloads.clients import (
    ApacheBench,
    BenchReport,
    ClosedLoopClient,
    MemtierBenchmark,
)
from repro.workloads.profiles import (
    ALL_PROFILES,
    MEMCACHED,
    MYSQL_QUERY,
    NGINX,
    NGINX_PHP_FPM,
    PHP_SERVER,
    REDIS,
)
from repro.workloads.apps import (
    APP_BY_NAME,
    TABLE1_APPS,
    AppSpec,
    build_trace_binary,
    measure_reduction,
)
from repro.workloads import unixbench
from repro.workloads.iperf import IperfResult, iperf_bench
from repro.workloads.http import HttpClient, StaticHttpServer
from repro.workloads.php_mysql_app import (
    MySqlServer,
    PhpApp,
    build_dedicated_deployment,
    build_merged_deployment,
)

__all__ = [
    "RequestProfile",
    "ServerModel",
    "ServerResult",
    "ApacheBench",
    "BenchReport",
    "ClosedLoopClient",
    "MemtierBenchmark",
    "ALL_PROFILES",
    "NGINX",
    "MEMCACHED",
    "REDIS",
    "PHP_SERVER",
    "MYSQL_QUERY",
    "NGINX_PHP_FPM",
    "TABLE1_APPS",
    "APP_BY_NAME",
    "AppSpec",
    "build_trace_binary",
    "measure_reduction",
    "unixbench",
    "iperf_bench",
    "IperfResult",
    "HttpClient",
    "StaticHttpServer",
    "MySqlServer",
    "PhpApp",
    "build_dedicated_deployment",
    "build_merged_deployment",
]
