import pytest

from repro.perf.clock import SimClock
from repro.xen.drivers import RING_SIZE, SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.grant_table import GrantError, GrantTable
from repro.xen.hypercalls import HypercallTable
from repro.xen.hypervisor import XenHypervisor


def make_grants():
    return GrantTable(HypercallTable())


class TestGrantTable:
    def test_grant_and_map(self):
        grants = make_grants()
        ref = grants.grant_access(owner_domid=1, page_addr=0x1000)
        grant = grants.map_grant(ref, mapper_domid=0)
        assert grant.mapped_by == 0
        assert grants.active_grants == 1

    def test_map_charges_hypercall(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        grants.map_grant(ref, 0)
        assert grants.hypercalls.counts["grant_table_op"] == 1

    def test_cannot_map_own_grant(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        with pytest.raises(GrantError):
            grants.map_grant(ref, 1)

    def test_double_map_rejected(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        grants.map_grant(ref, 0)
        with pytest.raises(GrantError):
            grants.map_grant(ref, 2)

    def test_unmap_then_end_access(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        grants.map_grant(ref, 0)
        grants.unmap_grant(ref, 0)
        grants.end_access(ref)
        assert grants.active_grants == 0

    def test_end_access_while_mapped_rejected(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        grants.map_grant(ref, 0)
        with pytest.raises(GrantError):
            grants.end_access(ref)

    def test_unmap_by_wrong_domain_rejected(self):
        grants = make_grants()
        ref = grants.grant_access(1, 0x1000)
        grants.map_grant(ref, 0)
        with pytest.raises(GrantError):
            grants.unmap_grant(ref, 3)


class TestSplitNetDriver:
    def _driver(self, own_clock=False):
        xen = XenHypervisor(clock=SimClock())
        guest = xen.create_domain("guest")
        backend = xen._domains[0]
        events = EventChannelTable(xen.costs, xen.clock)
        driver = SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs,
            None if own_clock else xen.clock,
        )
        return xen, driver

    def test_setup_maps_ring_grant(self):
        xen, driver = self._driver()
        assert xen.grants.active_grants == 1
        assert xen.hypercalls.counts["grant_table_op"] == 1

    def test_transmit_charges_and_counts(self):
        # A driver built without a clock charges its own.
        for own_clock in (False, True):
            _, driver = self._driver(own_clock)
            before = driver.clock.now_ns
            cost = driver.transmit(1500)
            assert driver.clock.now_ns - before >= cost
            assert driver.stats.requests == 1
            assert driver.stats.bytes_moved == 1500
            assert driver.stats.kicks == 1

    def test_negative_payload_rejected(self):
        _, driver = self._driver()
        with pytest.raises(ValueError):
            driver.transmit(-1)

    def test_per_request_cost_scales_with_bytes(self):
        _, driver = self._driver()
        small = driver.per_request_cost_ns(100)
        large = driver.per_request_cost_ns(100_000)
        assert large > small

    def test_close_releases_grant(self):
        xen, driver = self._driver()
        driver.close()
        assert xen.grants.active_grants == 0
