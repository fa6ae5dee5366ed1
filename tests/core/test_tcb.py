import pytest

from repro.core.tcb import (
    PROFILES,
    compare_to_docker,
    profile,
)


class TestIsolationProfiles:
    def test_all_platforms_profiled(self):
        assert set(PROFILES) == {
            "docker",
            "gvisor",
            "clear-container",
            "xen-container",
            "x-container",
            "graphene",
            "unikernel",
        }

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            profile("lxd")

    def test_x_container_tcb_tiny_vs_docker(self):
        """§3.4: the X-Kernel has a small TCB."""
        x = profile("x-container")
        docker = profile("docker")
        assert x.tcb_kloc < docker.tcb_kloc / 20

    def test_x_container_surface_small(self):
        x = profile("x-container")
        docker = profile("docker")
        assert x.attack_surface < docker.attack_surface / 7

    def test_xlibos_not_in_isolation_tcb(self):
        """Compromising the X-LibOS only compromises its own container,
        so it does not appear on the isolation boundary."""
        x = profile("x-container")
        assert "linux-kernel" not in x.tcb_components

    def test_graphene_keeps_full_linux_tcb(self):
        """§6.2: Graphene's host kernel 'does not reduce the TCB and
        attack surface'."""
        g = profile("graphene")
        assert "linux-kernel" in g.tcb_components
        assert g.attack_surface == profile("docker").attack_surface

    def test_gvisor_reduces_surface_not_tcb(self):
        gv = profile("gvisor")
        assert gv.attack_surface < profile("docker").attack_surface
        assert gv.tcb_kloc > profile("docker").tcb_kloc  # sentry ADDS code

    def test_clear_container_still_trusts_host_kernel(self):
        assert "linux-kernel" in profile("clear-container").tcb_components

    def test_comparison_table(self):
        rows = {r.platform: r for r in compare_to_docker()}
        assert rows["docker"].tcb_vs_docker == 1.0
        assert rows["x-container"].tcb_vs_docker < 0.05
        assert rows["x-container"].surface_vs_docker < 0.15
