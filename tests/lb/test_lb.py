import pytest

from repro.lb import HAProxyModel, LoadBalancedCluster
from repro.platforms import DockerPlatform, XContainerPlatform


class TestHAProxy:
    def test_single_threaded_capacity(self):
        model = HAProxyModel(XContainerPlatform())
        assert model.capacity_rps() == pytest.approx(
            1e9 / model.per_request_ns()
        )

    def test_x_container_haproxy_cheaper_than_docker(self):
        x = HAProxyModel(XContainerPlatform())
        docker = HAProxyModel(DockerPlatform())
        assert x.per_request_ns() < docker.per_request_ns()


class TestCluster:
    @pytest.fixture(scope="class")
    def results(self):
        return LoadBalancedCluster().measure_all()

    def test_fig9_ladder(self, results):
        """Fig 9's ordering: docker-haproxy < X-haproxy < ipvs NAT <
        ipvs DR."""
        order = [
            "docker-haproxy",
            "xcontainer-haproxy",
            "xcontainer-ipvs-nat",
            "xcontainer-ipvs-dr",
        ]
        values = [results[name].throughput_rps for name in order]
        assert values == sorted(values)

    def test_x_haproxy_roughly_doubles_docker(self, results):
        """§5.7: 'X-Containers with HAProxy achieved twice the
        throughput of Docker containers'."""
        ratio = (
            results["xcontainer-haproxy"].throughput_rps
            / results["docker-haproxy"].throughput_rps
        )
        assert 1.7 < ratio < 2.4

    def test_nat_improves_on_haproxy_modestly(self, results):
        """§5.7: 'IPVS kernel level load balancing ... further improve
        throughput by 12%'."""
        ratio = (
            results["xcontainer-ipvs-nat"].throughput_rps
            / results["xcontainer-haproxy"].throughput_rps
        )
        assert 1.05 < ratio < 1.35

    def test_dr_multiplies_nat(self, results):
        """§5.7: 'total throughput improved by another factor of 2.5'."""
        ratio = (
            results["xcontainer-ipvs-dr"].throughput_rps
            / results["xcontainer-ipvs-nat"].throughput_rps
        )
        assert 2.0 < ratio < 3.0

    def test_dr_shifts_bottleneck_to_backends(self, results):
        """§5.7: 'With direct routing mode, the bottleneck shifted to
        the NGINX servers'."""
        assert results["xcontainer-ipvs-nat"].bottleneck == "director"
        assert results["xcontainer-ipvs-dr"].bottleneck == "backends"

    def test_docker_cannot_use_ipvs(self):
        assert LoadBalancedCluster().docker_cannot_use_ipvs()

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            LoadBalancedCluster().measure("podman-haproxy")
