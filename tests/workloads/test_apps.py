import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.apps import (
    APP_BY_NAME,
    TABLE1_APPS,
    AppSpec,
    SiteSpec,
    build_trace_binary,
    measure_reduction,
)


#: The site styles ABOM converts online (Fig 2).
PATCHABLE = {"mov_eax", "mov_rax", "go_stack"}


def invocations(app):
    return sum(site.count for site in app.sites)


def patchable_fraction(app):
    """What ABOM should convert, from the site mix alone."""
    good = sum(site.count for site in app.sites if site.style in PATCHABLE)
    return good / invocations(app)


class TestCorpusStructure:
    def test_twelve_applications(self):
        assert len(TABLE1_APPS) == 12

    def test_rounds_are_1000_invocations(self):
        for app in TABLE1_APPS:
            assert invocations(app) == 1000, app.name

    def test_patchable_fraction_matches_paper_reduction(self):
        """The site mixes are constructed so the static patchable share
        equals the paper's dynamic reduction."""
        for app in TABLE1_APPS:
            assert patchable_fraction(app) == pytest.approx(
                app.paper_reduction, abs=1e-9
            ), app.name

    def test_go_apps_use_go_pattern(self):
        for name in ("etcd", "influxdb"):
            styles = {site.style for site in APP_BY_NAME[name].sites}
            assert styles == {"go_stack"}

    def test_mysql_has_two_offline_sites(self):
        """§5.2: 'two locations in the libpthread library can be
        patched'."""
        mysql = APP_BY_NAME["mysql"]
        assert len(mysql.offline_symbols) == 2
        cancellable = [
            s for s in mysql.sites if s.style == "cancellable"
        ]
        assert {s.symbol for s in cancellable} == set(
            mysql.offline_symbols
        )


class TestMeasuredReductions:
    @pytest.mark.parametrize(
        "app", TABLE1_APPS, ids=[a.name for a in TABLE1_APPS]
    )
    def test_measured_matches_paper(self, app):
        """The Table 1 values, measured by actually running ABOM."""
        result = measure_reduction(app, with_offline=False)
        assert result.abom_reduction == pytest.approx(
            app.paper_reduction, abs=0.002
        )

    def test_mysql_offline_recovers_to_92_percent(self):
        mysql = APP_BY_NAME["mysql"]
        result = measure_reduction(mysql)
        assert result.offline_reduction == pytest.approx(0.922, abs=0.002)

    def test_fully_patchable_apps_reach_exactly_100(self):
        for name in ("memcached", "redis", "etcd", "mongodb", "influxdb"):
            result = measure_reduction(APP_BY_NAME[name], with_offline=False)
            assert result.abom_reduction == 1.0, name


class TestTraceBinaries:
    def test_binary_has_all_sites(self):
        app = APP_BY_NAME["nginx"]
        binary = build_trace_binary(app)
        assert len(binary.sites) == len(app.sites)

    def test_binary_round_trips_on_plain_interpreter(self):
        from repro.core import CountingServices, XContainer

        app = APP_BY_NAME["postgres"]
        binary = build_trace_binary(app)
        xc = XContainer(CountingServices(), abom_enabled=False)
        xc.run(binary)
        assert xc.libos.stats.total_syscalls == 1000

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["mov_eax", "mov_rax", "go_stack", "cancellable", "bare"]
                ),
                st.integers(1, 50),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_mixes_measured_consistently(self, mix):
        """Property: measured reduction equals the patchable fraction of
        the mix, for any mix."""
        sites = [
            SiteSpec(style, nr=index % 100, count=count,
                     symbol=f"s{index}")
            for index, (style, count) in enumerate(mix)
        ]
        app = AppSpec("synthetic", "", "x", "y", sites)
        result = measure_reduction(app, with_offline=False)
        assert result.abom_reduction == pytest.approx(
            patchable_fraction(app), abs=1e-9
        )
