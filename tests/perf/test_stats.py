import pytest
from repro.perf.stats import RunStats, summarize


class TestSummarize:
    def test_mean_and_std(self):
        summary = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert summary.mean == pytest.approx(5.0)
        assert summary.std == pytest.approx(2.138, abs=1e-3)

    def test_single_sample_std_zero(self):
        assert summarize([3.0]).std == 0.0

    def test_extrema(self):
        summary = summarize([3.0, -1.0, 2.0])
        assert summary.minimum == -1.0
        assert summary.maximum == 3.0
        assert summary.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestRunStats:
    def test_accumulates(self):
        stats = RunStats("x")
        for value in (1.0, 2.0, 3.0):
            stats.add(value)
        assert stats.samples == [1.0, 2.0, 3.0]
        assert stats.mean == 2.0
