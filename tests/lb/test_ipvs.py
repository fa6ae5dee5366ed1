"""IPVS scheduler, live server churn, and accounting conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.ipvs import IPVS, IpvsMode, ServerState
from repro.guest.modules import ModuleLoadError, ModuleRegistry
from repro.platforms.x_container import XContainerPlatform


def make_ipvs(scheduler="wrr", mode=IpvsMode.NAT, backends=3):
    kernel = XContainerPlatform().make_kernel()
    kernel.modules.load("ip_vs")
    kernel.modules.load("ip_vs_rr")
    ipvs = IPVS(kernel.modules, mode, scheduler=scheduler)
    for i in range(backends):
        ipvs.add_server(f"10.0.0.{i + 2}", 80)
    return ipvs


class TestSchedulers:
    def test_wrr_round_robin_order(self):
        ipvs = make_ipvs("wrr")
        hosts = [ipvs.schedule().host for _ in range(6)]
        assert hosts == ["10.0.0.2", "10.0.0.3", "10.0.0.4"] * 2

    def test_wrr_respects_weights(self):
        ipvs = make_ipvs("wrr", backends=0)
        ipvs.add_server("10.0.0.2", 80, weight=2)
        ipvs.add_server("10.0.0.3", 80, weight=1)
        hosts = [ipvs.schedule().host for _ in range(6)]
        assert hosts.count("10.0.0.2") == 4
        assert hosts.count("10.0.0.3") == 2

    def test_wlc_picks_least_connected(self):
        ipvs = make_ipvs("wlc")
        first = ipvs.open_connection()
        second = ipvs.open_connection()
        third = ipvs.open_connection()
        # Three idle servers -> insertion-order tie-breaks.
        assert [s.host for s in (first, second, third)] == [
            "10.0.0.2", "10.0.0.3", "10.0.0.4",
        ]
        ipvs.close_connection(second)
        # 10.0.0.3 now has the fewest active connections.
        assert ipvs.open_connection().host == "10.0.0.3"

    def test_wlc_weight_scales_capacity(self):
        ipvs = make_ipvs("wlc", backends=0)
        ipvs.add_server("10.0.0.2", 80, weight=3)
        ipvs.add_server("10.0.0.3", 80, weight=1)
        conns = [ipvs.open_connection().host for _ in range(8)]
        assert conns.count("10.0.0.2") == 6
        assert conns.count("10.0.0.3") == 2

    def test_unknown_scheduler_rejected(self):
        kernel = XContainerPlatform().make_kernel()
        kernel.modules.load("ip_vs")
        kernel.modules.load("ip_vs_rr")
        with pytest.raises(ValueError, match="scheduler"):
            IPVS(kernel.modules, IpvsMode.NAT, scheduler="lblc")

    def test_weight_must_be_positive(self):
        ipvs = make_ipvs()
        with pytest.raises(ValueError, match="weight"):
            ipvs.add_server("10.0.0.9", 80, weight=0)


class TestLiveChurn:
    def test_added_server_receives_new_connections(self):
        ipvs = make_ipvs("wlc")
        for _ in range(6):
            ipvs.open_connection()
        newcomer = ipvs.add_server("10.0.0.9", 80)
        assert ipvs.open_connection() is newcomer
        assert ipvs.stats.servers_added == 4

    def test_drain_stops_new_work_immediately(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        assert ipvs.remove_server(victim.host, victim.port) == 0
        assert victim.state is ServerState.DRAINING
        assert ipvs.stats.drains_started == 1
        for _ in range(12):
            assert ipvs.open_connection() is not victim
        # Still on the books until the last connection closes.
        assert ipvs.stats.servers_removed == 0

    def test_drain_finalizes_on_last_close(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        ipvs.remove_server(victim.host, victim.port)
        ipvs.close_connection(victim)
        assert victim.state is ServerState.REMOVED
        assert ipvs.stats.servers_removed == 1
        assert ipvs.stats.conns_failed == 0
        assert victim not in ipvs._servers

    def test_drain_idle_server_removes_at_once(self):
        ipvs = make_ipvs("wlc")
        assert ipvs.remove_server("10.0.0.4", 80) == 0
        assert ipvs.stats.servers_removed == 1
        assert ipvs.stats.drains_started == 0

    def test_forced_removal_fails_connections(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        failed = ipvs.remove_server(victim.host, victim.port, drain=False)
        assert failed == 1
        assert ipvs.stats.conns_failed == 1
        assert victim.state is ServerState.REMOVED

    def test_kill_fails_connections_and_keeps_books(self):
        ipvs = make_ipvs("wlc")
        conns = [ipvs.open_connection() for _ in range(6)]
        victim = conns[0]
        failed = ipvs.kill_server(victim.host, victim.port)
        assert failed == 2  # wlc spread 6 conns over 3 servers
        assert victim.state is ServerState.DEAD
        assert victim in ipvs._servers  # stays for accounting
        assert ipvs.stats.backend_deaths == 1
        for _ in range(12):
            assert ipvs.open_connection() is not victim

    def test_kill_is_idempotent(self):
        ipvs = make_ipvs("wlc")
        ipvs.kill_server("10.0.0.2", 80)
        assert ipvs.kill_server("10.0.0.2", 80) == 0
        assert ipvs.stats.backend_deaths == 1

    def test_dead_server_not_removable(self):
        ipvs = make_ipvs("wlc")
        ipvs.kill_server("10.0.0.2", 80)
        with pytest.raises(ValueError, match="dead"):
            ipvs.remove_server("10.0.0.2", 80)

    def test_unknown_server_raises(self):
        ipvs = make_ipvs()
        with pytest.raises(KeyError):
            ipvs.remove_server("10.9.9.9", 80)

    def test_close_without_connection_raises(self):
        ipvs = make_ipvs()
        server = ipvs._servers[0]
        with pytest.raises(ValueError, match="no active connections"):
            ipvs.close_connection(server)

    def test_no_schedulable_servers_raises(self):
        ipvs = make_ipvs("wlc", backends=1)
        ipvs.kill_server("10.0.0.2", 80)
        with pytest.raises(RuntimeError, match="no schedulable"):
            ipvs.schedule()


class TestConservation:
    def test_books_balance_through_full_churn(self):
        ipvs = make_ipvs("wlc", backends=4)
        conns = [ipvs.open_connection() for _ in range(16)]
        # A death, a drained removal, a forced removal, an addition.
        ipvs.kill_server("10.0.0.2", 80)
        drained = next(s for s in ipvs._servers
                       if s.host == "10.0.0.3")
        ipvs.remove_server("10.0.0.3", 80, drain=True)
        ipvs.remove_server("10.0.0.4", 80, drain=False)
        ipvs.add_server("10.0.0.9", 80)
        for server in conns:
            if server.active_conns > 0:
                ipvs.close_connection(server)
        for _ in range(8):
            ipvs.open_connection()
        assert drained.state is ServerState.REMOVED
        assert ipvs.conservation_ok()
        stats = ipvs.stats
        assert stats.conns_opened == (
            stats.conns_closed + stats.conns_failed
            + ipvs.active_connections()
        )
        assert stats.scheduled == ipvs.total_served()

    def test_wrr_serving_is_conserved(self):
        ipvs = make_ipvs("wrr")
        for _ in range(50):
            ipvs.schedule()
        assert ipvs.conservation_ok()


class TestModes:
    def test_nat_costs_more_than_dr(self):
        nat = make_ipvs(mode=IpvsMode.NAT)
        dr = make_ipvs(mode=IpvsMode.DIRECT_ROUTING)
        assert nat.director_cost_ns(450, 14000) > dr.director_cost_ns(
            450, 14000
        )

    def test_requires_ip_vs_module(self):
        registry = ModuleRegistry()  # nothing loaded
        with pytest.raises(ModuleLoadError):
            IPVS(registry, IpvsMode.NAT)


# ----------------------------------------------------------------------
# Property: the indexed schedulers pick what a full scan picks
# ----------------------------------------------------------------------
def reference_pick(ipvs):
    """What ``schedule`` picks, recomputed from scratch: for wlc the
    first minimum of ``(active + 1) / weight`` over the schedulable
    servers in ``_servers`` order, for wrr the expansion rebuilt now."""
    candidates = [s for s in ipvs._servers if s.state is ServerState.ACTIVE]
    if not candidates:
        return None
    if ipvs.scheduler == "wlc":
        return min(candidates, key=lambda s: (s.active_conns + 1) / s.weight)
    expanded = [s for s in candidates for _ in range(s.weight)]
    return expanded[ipvs._next % len(expanded)]


_pick = st.integers(0, 1 << 16)
_churn = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4)),
        st.tuples(st.just("open")),
        st.tuples(st.just("schedule")),
        st.tuples(st.just("close"), _pick),
        st.tuples(st.just("remove"), _pick, st.booleans()),
        st.tuples(st.just("kill"), _pick),
    ),
    max_size=120,
)


class TestIndexedSchedulers:
    @given(st.sampled_from(["wlc", "wrr"]), st.integers(0, 4), _churn)
    @settings(max_examples=150, deadline=None)
    def test_index_picks_what_the_scan_picks(self, scheduler, backends, ops):
        ipvs = make_ipvs(scheduler, backends=backends)
        added = backends
        # One entry per open connection (a server may repeat).
        conns = []
        for op in ops:
            kind = op[0]
            if kind == "add":
                ipvs.add_server(f"10.1.0.{added}", 80, weight=op[1])
                added += 1
            elif kind in ("open", "schedule"):
                expected = reference_pick(ipvs)
                if expected is None:
                    with pytest.raises(RuntimeError, match="no schedulable"):
                        ipvs.schedule()
                elif kind == "open":
                    assert ipvs.open_connection() is expected
                    conns.append(expected)
                else:
                    assert ipvs.schedule() is expected
            elif kind == "close" and conns:
                ipvs.close_connection(conns.pop(op[1] % len(conns)))
            elif kind in ("remove", "kill") and ipvs._servers:
                server = ipvs._servers[op[1] % len(ipvs._servers)]
                if kind == "kill":
                    ipvs.kill_server(server.host, server.port)
                elif server.state is ServerState.DEAD:
                    with pytest.raises(ValueError, match="dead"):
                        ipvs.remove_server(server.host, server.port)
                else:
                    ipvs.remove_server(server.host, server.port, drain=op[2])
                if server.active_conns == 0:
                    # Killed or forcibly removed: its connections failed.
                    conns = [c for c in conns if c is not server]
            assert ipvs.conservation_ok()
            assert len(ipvs._heap) <= 2 * len(ipvs._servers)
        assert ipvs.active_connections() == len(conns)
