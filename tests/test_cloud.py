import pytest

from repro.cloud import EC2, GCE, LOCAL_CLUSTER
from repro.platforms import ClearContainerPlatform, DockerPlatform


class TestCloudSites:
    def test_ec2_has_no_nested_hw_virt(self):
        """§1: 'most public and private clouds, including Amazon EC2, do
        not support nested hardware virtualization'."""
        assert not EC2.nested_hw_virt
        assert GCE.nested_hw_virt

    def test_clear_containers_only_on_gce(self):
        clear = ClearContainerPlatform()
        assert not EC2.supports(clear)
        assert GCE.supports(clear)

    def test_docker_supported_everywhere(self):
        docker = DockerPlatform()
        for site in (EC2, GCE, LOCAL_CLUSTER):
            assert site.supports(docker)

    def test_cost_scaling(self):
        base = EC2.costs()
        scaled = GCE.costs()
        assert scaled.native_syscall_ns == pytest.approx(
            base.native_syscall_ns * GCE.cost_scale
        )

    def test_machines_match_section_5_1(self):
        assert EC2.machine.cores == 4 and EC2.machine.threads == 8
        assert GCE.machine.memory_gb == 16.0
        assert LOCAL_CLUSTER.machine.memory_gb == 96.0
