import pytest

from repro.perf.clock import SimClock
from repro.xen.events import EventChannelTable


def make_table():
    return EventChannelTable(clock=SimClock())


class TestEventChannels:
    def test_bind_allocates_ports(self):
        table = make_table()
        p1 = table.bind(lambda: None)
        p2 = table.bind(lambda: None)
        assert p1 != p2

    def test_send_sets_shared_pending_flag(self):
        """§4.2: 'a variable shared by Xen and the guest kernel that
        indicates whether there is any event pending'."""
        table = make_table()
        port = table.bind(lambda: None)
        assert not table.evtchn_upcall_pending
        table.send(port)
        assert table.evtchn_upcall_pending
        assert table._channels[port].pending == 1

    def test_send_to_unbound_port_rejected(self):
        with pytest.raises(KeyError):
            make_table().send(99)

    def test_drain_runs_handlers_and_clears(self):
        table = make_table()
        fired = []
        port = table.bind(lambda: fired.append(1))
        table.send(port)
        table.send(port)
        delivered = table.drain(via_hypercall=True)
        assert delivered == 2
        assert fired == [1, 1]
        assert not table.evtchn_upcall_pending
        assert table._channels[port].pending == 0

    def test_hypercall_drain_charges_hypercall(self):
        """Stock PV guests hypercall to get events delivered."""
        table = make_table()
        port = table.bind(lambda: None)
        table.send(port)
        before = table.clock.now_ns
        table.drain(via_hypercall=True)
        assert table.clock.now_ns - before >= table.costs.hypercall_ns
        assert table.hypercall_deliveries == 1

    def test_direct_drain_is_cheaper(self):
        """§4.2: the X-LibOS jumps directly into handlers."""
        hyper = make_table()
        direct = make_table()
        for table in (hyper, direct):
            port = table.bind(lambda: None)
            table.send(port)
        hyper.drain(via_hypercall=True)
        direct.drain(via_hypercall=False)
        assert direct.clock.now_ns < hyper.clock.now_ns
        assert direct.direct_deliveries == 1

    def test_unbind(self):
        table = make_table()
        port = table.bind(lambda: None)
        table.unbind(port)
        with pytest.raises(KeyError):
            table.send(port)

    def test_empty_drain_is_noop(self):
        table = make_table()
        assert table.drain(via_hypercall=True) == 0
        assert table.clock.now_ns == 0
