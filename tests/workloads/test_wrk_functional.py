import pytest

from repro.guest.netstack import NetDevice
from repro.workloads.wrk_functional import FunctionalWrk


class TestFunctionalWrk:
    def test_run_reports_consistent_stats(self):
        wrk = FunctionalWrk(page_bytes=1024)
        report = wrk.run(20)
        assert report.requests == 20
        assert report.errors == 0
        assert len(report.latency_us.samples) == 20
        assert report.throughput_rps > 0
        # Throughput and duration must be consistent.
        assert report.throughput_rps == pytest.approx(
            20 / (report.duration_ms / 1e3)
        )

    def test_device_cost_shows_up_functionally(self):
        loopback = FunctionalWrk(server_device=NetDevice.LOOPBACK).run(20)
        gvisor = FunctionalWrk(server_device=NetDevice.GVISOR).run(20)
        assert gvisor.duration_ms > loopback.duration_ms

    def test_bad_request_count_rejected(self):
        with pytest.raises(ValueError):
            FunctionalWrk().run(0)

    def test_missing_page_counts_errors(self):
        wrk = FunctionalWrk(path="/exists.html")
        wrk.path = "/missing.html"
        report = wrk.run(5)
        assert report.errors == 5


class TestValidationExperiment:
    def test_device_ordering_agrees(self):
        from repro.experiments.validation import device_ordering

        result = device_ordering(requests=15)
        assert "orderings agree: True" in result.notes
        functional = [
            row.values["functional_us_per_req"] for row in result.rows
        ]
        assert functional == sorted(functional)

    def test_merged_saving_positive(self):
        from repro.experiments.validation import merged_vs_dedicated

        result = merged_vs_dedicated(pages=8)
        us = {row.label: row.values["us_per_page"] for row in result.rows}
        assert us["saving"] > 0
        assert us["dedicated&merged"] < us["dedicated"]
