"""Calibration tests: every experiment must reproduce the paper's SHAPE.

These are the repository's acceptance tests — each assertion cites the
paper claim it checks.  Absolute values are never asserted, only who wins
and by roughly what factor.
"""

import pytest

from repro.experiments import (
    fig3_macro,
    fig4_syscall,
    fig6_libos,
    fig8_scalability,
    fig9_lb,
    spawn,
    table1,
)


@pytest.fixture(scope="module")
def fig3():
    return fig3_macro.run()


@pytest.fixture(scope="module")
def fig4():
    return fig4_syscall.run()


@pytest.fixture(scope="module")
def fig6():
    return {r.experiment: r for r in fig6_libos.run()}


@pytest.fixture(scope="module")
def fig8():
    return fig8_scalability.run()


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run()

    def test_all_rows_present(self, result):
        assert len(result.rows) == 12

    def test_reductions_match_paper_column(self, result):
        for row in result.rows:
            assert row.values["measured"] == row.values["paper"], row.label

    def test_mysql_offline_column(self, result):
        assert result.value("mysql", "measured-offline") == "92.2%"


class TestFig3Throughput:
    def test_memcached_band(self, fig3):
        """§5.3: memcached improved 134–208 % over Docker."""
        throughput, _ = fig3
        for site in ("amazon", "google"):
            ratio = throughput.value("x-container", f"{site}/memcached")
            assert 2.2 <= ratio <= 3.2, site

    def test_nginx_band(self, fig3):
        """§5.3: NGINX 21–50 % over Docker."""
        throughput, _ = fig3
        for site in ("amazon", "google"):
            ratio = throughput.value("x-container", f"{site}/nginx")
            assert 1.15 <= ratio <= 1.55, site

    def test_redis_comparable(self, fig3):
        """§5.3: Redis comparable to Docker."""
        throughput, _ = fig3
        for site in ("amazon", "google"):
            ratio = throughput.value("x-container", f"{site}/redis")
            assert 0.9 <= ratio <= 1.3, site

    def test_gvisor_suffers(self, fig3):
        """§5.3: gVisor suffers significantly from ptrace."""
        throughput, _ = fig3
        for column in throughput.columns:
            assert throughput.value("gvisor", column) < 0.45, column
        assert throughput.value("gvisor", "google/memcached") < 0.4

    def test_clear_container_below_docker_on_macro(self, fig3):
        """§5.3: nested virtualization penalty."""
        throughput, _ = fig3
        for workload in ("nginx", "memcached", "redis"):
            ratio = throughput.value(
                "clear-container", f"google/{workload}"
            )
            assert ratio < 1.0, workload

    def test_clear_container_absent_on_ec2(self, fig3):
        throughput, _ = fig3
        assert throughput.value("clear-container", "amazon/nginx") is None

    def test_xen_container_below_docker(self, fig3):
        """§5.3: 'Xen-Containers performed worse than Docker in most
        cases' — the X-Container gains come from the paper's
        modifications."""
        throughput, _ = fig3
        below = sum(
            1
            for column in throughput.columns
            if throughput.value("xen-container", column) < 1.0
        )
        assert below >= 5

    def test_meltdown_patch_does_not_move_x(self, fig3):
        throughput, _ = fig3
        for column in throughput.columns:
            patched = throughput.value("x-container", column)
            unpatched = throughput.value("x-container-unpatched", column)
            assert patched == pytest.approx(unpatched, rel=0.05)

    def test_latency_roughly_inverse_of_throughput(self, fig3):
        throughput, latency = fig3
        t = throughput.value("gvisor", "google/memcached")
        l = latency.value("gvisor", "google/memcached")
        assert l > 1.0 > t
        assert l > 2.0


class TestFig4:
    def test_x_container_up_to_27x(self, fig4):
        """§1/§5.4: up to 27× higher raw syscall throughput."""
        best = max(
            fig4.value("x-container", column) for column in fig4.columns
        )
        assert 20 < best <= 30

    def test_x_over_clear_up_to_1_6(self, fig4):
        """§5.4: up to 1.6× compared to Clear Containers."""
        ratios = [
            fig4.value("x-container", column)
            / fig4.value("clear-container", column)
            for column in fig4.columns
            if fig4.value("clear-container", column)
        ]
        assert 1.3 <= max(ratios) <= 1.9

    def test_gvisor_7_to_9_percent(self, fig4):
        """§5.4: gVisor throughput is 7–9 % of Docker."""
        for column in fig4.columns:
            value = fig4.value("gvisor", column)
            assert 0.05 <= value <= 0.11, column

    def test_xen_container_far_below_docker(self, fig4):
        for column in fig4.columns:
            assert fig4.value("xen-container", column) < 0.5

    def test_patch_does_not_move_x_or_clear(self, fig4):
        for config in ("x-container", "clear-container"):
            for column in fig4.columns:
                patched = fig4.value(config, column)
                unpatched = fig4.value(f"{config}-unpatched", column)
                if patched is None:
                    continue
                assert patched == pytest.approx(unpatched, rel=0.08)

    def test_unpatched_docker_beats_patched(self, fig4):
        for column in fig4.columns:
            assert fig4.value("docker-unpatched", column) > 1.0


class TestFig6:
    def test_6a_x_comparable_to_unikernel(self, fig6):
        """§5.5: 'X-Containers achieved throughput comparable to
        Unikernel'."""
        a = fig6["fig6a"]
        ratio = a.value("X", "throughput_rps") / a.value(
            "U", "throughput_rps"
        )
        assert 0.9 <= ratio <= 1.4

    def test_6a_x_twice_graphene(self, fig6):
        """§5.5: 'over twice that of Graphene'."""
        a = fig6["fig6a"]
        ratio = a.value("X", "throughput_rps") / a.value(
            "G", "throughput_rps"
        )
        assert 1.7 < ratio <= 2.4

    def test_6b_x_beats_graphene_by_50_percent(self, fig6):
        """§5.5: 'X-Containers outperformed Graphene by more than
        50%'."""
        b = fig6["fig6b"]
        ratio = b.value("X", "throughput_rps") / b.value(
            "G", "throughput_rps"
        )
        assert ratio > 1.5

    def test_6b_unikernel_unsupported(self, fig6):
        assert fig6["fig6b"].value("U", "throughput_rps") is None

    def test_6c_x_over_40_percent_above_unikernel(self, fig6):
        """§5.5: 'X-Containers outperformed Unikernel by over 40%'."""
        c = fig6["fig6c"]
        for config in ("shared", "dedicated"):
            ratio = c.value("X", config) / c.value("U", config)
            assert ratio >= 1.4, config

    def test_6c_merged_three_times_unikernel_dedicated(self, fig6):
        """§5.5: 'about three times that of the Unikernel Dedicated
        configuration'."""
        c = fig6["fig6c"]
        ratio = c.value("X", "dedicated&merged") / c.value("U", "dedicated")
        assert 2.5 < ratio <= 4.0

    def test_6c_merged_impossible_on_unikernel(self, fig6):
        assert fig6["fig6c"].value("U", "dedicated&merged") is None


class TestFig8:
    def test_docker_wins_at_small_n(self, fig8):
        """§5.6: 'Docker containers achieved higher throughput for small
        numbers of containers'."""
        for n in ("10", "50", "100"):
            assert fig8.value(n, "docker") > fig8.value(n, "x-container")

    def test_x_wins_at_400_by_about_18_percent(self, fig8):
        """§5.6: 'with N = 400, X-Containers outperformed Docker by
        18%'."""
        ratio = fig8.value("400", "x-container") / fig8.value(
            "400", "docker"
        )
        assert 1.10 < ratio < 1.30

    def test_docker_declines_past_peak(self, fig8):
        assert fig8.value("400", "docker") < fig8.value("100", "docker")

    def test_xen_limits(self, fig8):
        """§5.6: no more than 250 PV / 200 HVM instances would boot."""
        assert fig8.value("250", "xen-pv") is not None
        assert fig8.value("300", "xen-pv") is None
        assert fig8.value("200", "xen-hvm") is not None
        assert fig8.value("250", "xen-hvm") is None

    def test_vms_below_x_containers_at_scale(self, fig8):
        for n in ("100", "200"):
            x = fig8.value(n, "x-container")
            assert fig8.value(n, "xen-pv") < x
            assert fig8.value(n, "xen-hvm") < x


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_lb.run()

    def test_four_configurations(self, result):
        assert len(result.rows) == 4

    def test_ladder(self, result):
        values = [row.values["throughput_rps"] for row in result.rows]
        assert values == sorted(values)

    def test_dr_bottleneck_is_backends(self, result):
        assert (
            result.value("X-Container (ipvs Route)", "bottleneck")
            == "backends"
        )


class TestSpawn:
    @pytest.fixture(scope="class")
    def result(self):
        return spawn.run()

    def test_boot_and_toolstack_numbers(self, result):
        """§4.5: 180 ms boot, ~3 s with xl, 4 ms with LightVM."""
        xl = result.value("x-container (xl toolstack)", "total_ms")
        assert xl == pytest.approx(3000, rel=0.02)
        boot = result.value("x-container (xl toolstack)", "boot_ms")
        assert boot == 180.0
        light = result.value(
            "x-container (lightvm toolstack)", "toolstack_ms"
        )
        assert light == pytest.approx(4.0)
        total = result.value("x-container (lightvm toolstack)", "total_ms")
        assert total < 200

    def test_ordinary_vm_slowest(self, result):
        vm = result.value("ordinary VM", "total_ms")
        assert vm > result.value("x-container (xl toolstack)", "total_ms")


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5_single(self):
        from repro.experiments import fig5_micro
        from repro.cloud.instances import EC2

        return fig5_micro.run_panel(EC2, concurrency=1)

    def test_x_wins_syscall_bound_benches(self, fig5_single):
        """§5.4: File Copy and Pipe are syscall-bound; conversion wins."""
        assert fig5_single.value("x-container", "file_copy") > 1.5
        assert fig5_single.value("x-container", "pipe_throughput") > 1.5

    def test_x_loses_process_lifecycle(self, fig5_single):
        """§5.4: 'noticeable overheads ... in process creation and
        context switching' (page-table ops via the X-Kernel)."""
        assert fig5_single.value("x-container", "process_creation") < 1.0
        assert fig5_single.value(
            "x-container", "process_creation"
        ) < fig5_single.value("docker-unpatched", "process_creation")
        assert fig5_single.value(
            "x-container", "context_switching"
        ) < fig5_single.value("docker-unpatched", "context_switching")

    def test_iperf_flat(self, fig5_single):
        for config in ("x-container", "xen-container"):
            assert 0.8 < fig5_single.value(config, "iperf") < 1.3

    def test_xen_container_worst_on_crossing_benches(self, fig5_single):
        assert fig5_single.value("xen-container", "pipe_throughput") < 0.5
        assert fig5_single.value("xen-container", "file_copy") < 0.5

    def test_clear_absent_on_ec2(self, fig5_single):
        assert fig5_single.value("clear-container", "file_copy") is None


class TestSweeps:
    """Sensitivity analysis: the sweeps must tell a coherent story."""

    def test_advantage_monotone_in_conversion_fraction(self):
        from repro.experiments.sweep import sweep_conversion_fraction

        result = sweep_conversion_fraction()
        values = [
            row.values["memcached_vs_docker"] for row in result.rows
        ]
        assert values == sorted(values)
        # Even 0 % conversion keeps an advantage (forwarded-path +
        # dedication), but full conversion adds a solid margin on top.
        assert values[0] > 1.3
        assert values[-1] > values[0] * 1.2

    def test_advantage_survives_zero_kpti(self):
        """The win is not just the Meltdown patch."""
        from repro.experiments.sweep import sweep_kpti_cost

        result = sweep_kpti_cost()
        assert result.value("0ns", "memcached_vs_docker") > 1.4
        # Only the (small) KPTI context-switch component remains.
        assert result.value("0ns", "docker_unpatched_gain") == (
            pytest.approx(1.0, rel=0.01)
        )

    def test_netfront_crossover_exists(self):
        """Enough ring overhead eventually erases the NGINX win —
        the sweep shows where."""
        from repro.experiments.sweep import sweep_netfront_cost

        result = sweep_netfront_cost()
        first = result.rows[0].values["nginx_vs_docker"]
        last = result.rows[-1].values["nginx_vs_docker"]
        assert first > 1.4
        assert last < 1.1
