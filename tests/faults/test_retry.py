"""RetryPolicy: bounded attempts, backoff charging, lifecycle reporting."""

import pytest

from repro.faults import sites
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.perf.clock import SimClock


class Flaky:
    """Fails ``failures`` times, then succeeds."""

    def __init__(self, failures, exc=OSError):
        self.remaining = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc("transient")
        return "ok"


def engine():
    return FaultPlan((), 0).compile()


class TestBackoff:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(
            base_backoff_ns=100.0, multiplier=2.0, max_backoff_ns=350.0
        )
        assert policy.backoff_ns(1) == 100.0
        assert policy.backoff_ns(2) == 200.0
        assert policy.backoff_ns(3) == 350.0  # capped
        assert policy.backoff_ns(4) == 350.0

    def test_total_budget_sums_worst_case(self):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_ns=100.0, multiplier=2.0,
            max_backoff_ns=1e9,
        )
        assert policy.total_budget_ns() == 100.0 + 200.0 + 400.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_ns=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ns(0)


class TestRun:
    def test_succeeds_on_last_allowed_attempt(self):
        flaky = Flaky(4)
        result = RetryPolicy(max_attempts=5).run(
            flaky, OSError, clock=SimClock()
        )
        assert result == "ok"
        assert flaky.calls == 5

    def test_exhaustion_raises_with_cause(self):
        flaky = Flaky(10)
        with pytest.raises(RetryExhausted) as excinfo:
            RetryPolicy(max_attempts=3).run(
                flaky, OSError, clock=SimClock(), site="x"
            )
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OSError)
        assert flaky.calls == 3

    def test_non_retriable_escapes_immediately(self):
        flaky = Flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            RetryPolicy().run(flaky, OSError, clock=SimClock())
        assert flaky.calls == 1

    def test_backoff_charged_to_clock(self):
        clock = SimClock()
        policy = RetryPolicy(
            base_backoff_ns=100.0, multiplier=2.0, max_backoff_ns=1e9
        )
        policy.run(Flaky(2), OSError, clock=clock)
        assert clock.now_ns == 100.0 + 200.0

    def test_lifecycle_recorded_on_recovery(self):
        eng = engine()
        RetryPolicy().run(
            Flaky(2), OSError, clock=SimClock(), faults=eng,
            site=sites.NET_BACKEND,
        )
        counters = eng.counters[sites.NET_BACKEND]
        assert counters.retried == 2
        assert counters.recovered == 1
        assert counters.fatal == 0

    def test_lifecycle_recorded_on_exhaustion(self):
        eng = engine()
        with pytest.raises(RetryExhausted):
            RetryPolicy(max_attempts=2).run(
                Flaky(5), OSError, clock=SimClock(), faults=eng,
                site=sites.NET_BACKEND,
            )
        counters = eng.counters[sites.NET_BACKEND]
        assert counters.retried == 1
        assert counters.fatal == 1
        assert counters.recovered == 0

    def test_no_lifecycle_noise_on_clean_success(self):
        eng = engine()
        RetryPolicy().run(
            Flaky(0), OSError, clock=SimClock(), faults=eng, site="x"
        )
        assert eng.totals().retried == 0
        assert eng.totals().recovered == 0
