import pytest

from repro.perf.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now_ns == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_ns == 12.5

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(50.0)
        assert clock.now_ns == 50.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(100.0)
        clock.advance_to(50.0)
        assert clock.now_ns == 100.0

    def test_unit_conversions(self):
        clock = SimClock(2_500_000_000.0)
        assert clock.now_us == pytest.approx(2_500_000.0)
        assert clock.now_s == pytest.approx(2.5)
