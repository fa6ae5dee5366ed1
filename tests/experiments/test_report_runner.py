import pytest

from repro.experiments.report import ExperimentResult, Row
from repro.experiments.runner import experiment_ids, run_experiment


def cell(result, row_label, column):
    """The value in ``result``'s row ``row_label`` and ``column``."""
    for row in result.rows:
        if row.label == row_label:
            return row.values.get(column)
    raise KeyError(f"no row {row_label!r} in {result.experiment}")


class TestReport:
    def _result(self):
        return ExperimentResult(
            "t",
            "Title",
            ["a", "b"],
            [
                Row("base", {"a": 10.0, "b": 20.0}),
                Row("other", {"a": 5.0, "b": None}),
            ],
            notes="hello",
        )

    def test_format_table_contains_everything(self):
        text = self._result().format_table()
        assert "Title" in text
        assert "base" in text
        assert "n/a" in text  # the None cell
        assert "note: hello" in text

    def test_large_numbers_grouped(self):
        result = ExperimentResult(
            "t", "T", ["v"], [Row("r", {"v": 123456.0})]
        )
        assert "123,456" in result.format_table()


class TestRunner:
    def test_experiment_ids_complete(self):
        assert set(experiment_ids()) == {
            "table1",
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig8",
            "fig9",
            "spawn",
            "validate",
            "sweep",
        }

    def test_fig1_quantifies_the_architecture_diagram(self):
        (result,) = run_experiment("fig1")
        assert cell(result, "x-container", "multicore") == "True"
        assert cell(result, "x-container", "binary compat") == "True"
        x_tcb = cell(result, "x-container", "isolation TCB (kLoC)")
        docker_tcb = cell(result, "docker", "isolation TCB (kLoC)")
        assert x_tcb < docker_tcb / 20
        # No other architecture combines a small isolation TCB, binary
        # compatibility, multicore processing AND fast syscalls —
        # Xen-Container has the first three but pays the §4.1 PV syscall
        # bounce, which is exactly the problem the paper solves.
        for row in result.rows:
            if row.label == "x-container":
                continue
            good_tcb = row.values["isolation TCB (kLoC)"] < 1000
            fast_syscalls = row.values["syscall ns"] < 100
            assert not (
                good_tcb
                and fast_syscalls
                and row.values["multicore"] == "True"
                and row.values["binary compat"] == "True"
            ), row.label

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_returns_result_lists(self):
        results = run_experiment("spawn")
        assert len(results) == 1
        assert results[0].experiment == "spawn"
        results = run_experiment("fig9")
        assert results[0].rows
