import pytest

from repro.guest.config import KernelConfig
from repro.guest.ipvs import IPVS, IpvsMode
from repro.guest.modules import KNOWN_MODULES, ModuleLoadError, ModuleRegistry
from repro.guest.netstack import NetDevice, NetStack


class TestModules:
    def test_load_known_module(self):
        registry = ModuleRegistry(allowed=True)
        registry.load("ip_vs")
        assert registry.is_loaded("ip_vs")

    def test_docker_cannot_load(self):
        """§5.7: module loading needs root on the host kernel."""
        registry = ModuleRegistry(allowed=False)
        with pytest.raises(ModuleLoadError):
            registry.load("ip_vs")

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            ModuleRegistry().load("floppy")

    def test_require(self):
        registry = ModuleRegistry()
        with pytest.raises(ModuleLoadError):
            registry.require("ip_vs")
        registry.load("ip_vs")
        registry.require("ip_vs")

    def test_unload(self):
        registry = ModuleRegistry()
        registry.load("nf_nat")
        registry.unload("nf_nat")
        assert not registry.is_loaded("nf_nat")

    def test_soft_rdma_modules_known(self):
        """§5.7 mentions Soft-iwarp and Soft-ROCE explicitly."""
        assert "siw" in KNOWN_MODULES
        assert "rdma_rxe" in KNOWN_MODULES


class TestNetStack:
    def test_request_cost_positive_and_scales(self):
        stack = NetStack()
        small = stack.request_response_cost_ns(100, 100)
        large = stack.request_response_cost_ns(100, 100000)
        assert 0 < small < large

    def test_bad_inputs_rejected(self):
        stack = NetStack()
        with pytest.raises(ValueError):
            stack.request_response_cost_ns(-1, 0)
        with pytest.raises(ValueError):
            stack.request_response_cost_ns(0, 0, intensity=0)
        with pytest.raises(ValueError):
            stack.bulk_transfer_cost_ns(-5)

    def test_device_ordering(self):
        """bridge < netfront < nested-virtio < gVisor netstack."""
        costs = {}
        for device in NetDevice:
            stack = NetStack(device=device)
            costs[device] = stack.device_cost_ns()
        assert costs[NetDevice.LOOPBACK] == 0
        assert (
            costs[NetDevice.BRIDGE]
            < costs[NetDevice.NETFRONT]
            < costs[NetDevice.NESTED_VIRTIO]
            < costs[NetDevice.GVISOR]
        )

    def test_tuned_kernel_cheaper_stack(self):
        tuned = NetStack(config=KernelConfig(single_concern_tuned=True))
        shared = NetStack(config=KernelConfig())
        assert (
            tuned.request_response_cost_ns(100, 1000)
            < shared.request_response_cost_ns(100, 1000)
        )

    def test_loopback_skips_device_and_most_stack(self):
        loopback = NetStack(device=NetDevice.LOOPBACK)
        bridge = NetStack(device=NetDevice.BRIDGE)
        assert (
            loopback.request_response_cost_ns(100, 1000)
            < bridge.request_response_cost_ns(100, 1000)
        )

    def test_stats_accumulate(self):
        stack = NetStack()
        stack.request_response_cost_ns(10, 20)
        stack.connection_setup_cost_ns()
        assert stack.stats.requests == 1
        assert stack.stats.connections == 1
        assert stack.stats.bytes_out == 20


class TestIPVS:
    def _modules(self):
        registry = ModuleRegistry(allowed=True)
        registry.load("ip_vs")
        registry.load("ip_vs_rr")
        return registry

    def test_requires_module(self):
        with pytest.raises(ModuleLoadError):
            IPVS(ModuleRegistry(allowed=True), IpvsMode.NAT)

    def test_round_robin_scheduling(self):
        ipvs = IPVS(self._modules(), IpvsMode.NAT)
        ipvs.add_server("a", 80)
        ipvs.add_server("b", 80)
        picks = [ipvs.schedule().host for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_weighted_scheduling(self):
        ipvs = IPVS(self._modules(), IpvsMode.NAT)
        ipvs.add_server("a", 80, weight=2)
        ipvs.add_server("b", 80, weight=1)
        picks = [ipvs.schedule().host for _ in range(6)]
        assert picks.count("a") == 4

    def test_no_servers_rejected(self):
        ipvs = IPVS(self._modules(), IpvsMode.NAT)
        with pytest.raises(RuntimeError):
            ipvs.schedule()

    def test_bad_weight_rejected(self):
        ipvs = IPVS(self._modules(), IpvsMode.NAT)
        with pytest.raises(ValueError):
            ipvs.add_server("a", 80, weight=0)

    def test_dr_cheaper_than_nat(self):
        """§5.7: direct routing keeps responses off the director."""
        nat = IPVS(self._modules(), IpvsMode.NAT)
        dr = IPVS(self._modules(), IpvsMode.DIRECT_ROUTING)
        assert (
            dr.director_cost_ns(500, 6000)
            < 0.5 * nat.director_cost_ns(500, 6000)
        )

    def test_nat_cost_grows_with_response_size(self):
        nat = IPVS(self._modules(), IpvsMode.NAT)
        assert (
            nat.director_cost_ns(500, 60000)
            > nat.director_cost_ns(500, 600)
        )

    def test_dr_cost_independent_of_response_size(self):
        dr = IPVS(self._modules(), IpvsMode.DIRECT_ROUTING)
        assert (
            dr.director_cost_ns(500, 60000)
            == dr.director_cost_ns(500, 600)
        )
