from repro.cloud.instances import EC2
from repro.platforms import DockerPlatform
from repro.perf.stats import summarize
from repro.workloads.base import ServerModel
from repro.workloads.clients import DEFAULT_RUNS, ApacheBench, MemtierBenchmark
from repro.workloads.profiles import MEMCACHED, NGINX


class TestClients:
    def test_five_runs_reported(self):
        """§5.1: average and standard deviation of five runs."""
        client = ApacheBench()
        report = client.drive(ServerModel(DockerPlatform(), EC2), NGINX)
        assert len(report.throughput.samples) == DEFAULT_RUNS
        assert summarize(report.throughput.samples).std >= 0

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
