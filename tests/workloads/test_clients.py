import pytest

from repro.cloud.instances import EC2
from repro.platforms import DockerPlatform
from repro.workloads.base import ServerModel
from repro.workloads.clients import DEFAULT_RUNS, ApacheBench, MemtierBenchmark
from repro.workloads.profiles import MEMCACHED, NGINX


class TestClients:
    def test_five_runs_reported(self):
        """§5.1: average and standard deviation of five runs."""
        client = ApacheBench()
        report = client.drive(ServerModel(DockerPlatform(), EC2), NGINX)
        assert len(report.throughput) == DEFAULT_RUNS
        assert report.throughput.std >= 0

    def test_reports_are_deterministic_per_seed(self):
        a = ApacheBench(seed="s1").drive(
            ServerModel(DockerPlatform(), EC2), NGINX
        )
        b = ApacheBench(seed="s1").drive(
            ServerModel(DockerPlatform(), EC2), NGINX
        )
        assert a.mean_throughput == b.mean_throughput

    def test_memtier_blends_set_get(self):
        """1:10 SET:GET shifts payload bytes between directions."""
        memtier = MemtierBenchmark()
        blended = memtier.blend_profile(MEMCACHED)
        assert blended.bytes_in > MEMCACHED.bytes_in
        assert blended.bytes_out < MEMCACHED.bytes_out

    def test_report_workload_name(self):
        report = MemtierBenchmark().drive(
            ServerModel(DockerPlatform(), EC2), MEMCACHED
        )
        assert report.workload == "memcached"
        assert report.mean_latency_ms > 0


class TestLatencyPercentiles:
    def _report(self):
        return ApacheBench().drive(
            ServerModel(DockerPlatform(), EC2), NGINX
        )

    def test_exponential_quantiles(self):
        import math

        report = self._report()
        assert report.p50_latency_ms == pytest.approx(
            report.mean_latency_ms * math.log(2)
        )
        assert report.p99_latency_ms > 4 * report.mean_latency_ms

    def test_percentile_bounds_checked(self):
        report = self._report()
        with pytest.raises(ValueError):
            report.latency_pct_ms(0.0)
        with pytest.raises(ValueError):
            report.latency_pct_ms(100.0)
