"""``BENCH_interpreter.json``: recording sessions merge, never erase.

CI runs several benchmark sessions before ``benchmarks/speedup_gate.py``
reads the record; each session must keep the rows the others wrote.
"""

import importlib.util
import json
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(ops_per_sec):
    return {"mean_s": 0.5, "ops_per_round": 100, "ops_per_sec": ops_per_sec}


def test_sessions_with_different_rows_keep_both(tmp_path):
    bench = load_bench_conftest()
    path = tmp_path / "BENCH_interpreter.json"
    bench.write_bench_json(path, {"test_abom_patch_rate": row(164_474)})
    bench.write_bench_json(
        path, {"test_sanitizer_overhead_under_two_percent": row(900)}
    )
    payload = json.loads(path.read_text())
    assert payload["generated_by"] == "benchmarks/conftest.py"
    assert payload["results"] == {
        "test_abom_patch_rate": row(164_474),
        "test_sanitizer_overhead_under_two_percent": row(900),
    }
    assert payload["speedup_vs_seed"] == {
        "test_abom_patch_rate": 2.0,
        "test_sanitizer_overhead_under_two_percent": None,
    }


def test_rerecorded_row_replaces_result_and_keeps_best(tmp_path):
    bench = load_bench_conftest()
    path = tmp_path / "BENCH_interpreter.json"
    bench.write_bench_json(path, {"test_abom_patch_rate": row(164_474)})
    bench.write_bench_json(path, {"test_abom_patch_rate": row(82_237)})
    payload = json.loads(path.read_text())
    assert payload["results"] == {"test_abom_patch_rate": row(82_237)}
    assert payload["speedup_vs_seed"] == {"test_abom_patch_rate": 1.0}
    assert payload["best_ops_per_sec"] == {"test_abom_patch_rate": 164_474}
