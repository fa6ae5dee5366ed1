import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Every table and figure, byte for byte (``repro experiments all``).
EXPERIMENTS_OUTPUT = (
    Path(__file__).resolve().parent.parent / "experiments_output.txt"
)


class TestCli:
    def test_platforms_listing(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "x-container" in out
        assert "gvisor" in out

    def test_tcb_table(self, capsys):
        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "x-container" in out
        assert "surface vs docker" in out

    def test_abom_demo_shows_patched_call(self, capsys):
        assert main(["abom-demo", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "callq  *0xffffffffff600008" in out
        assert "before:" in out and "after ABOM:" in out

    def test_experiments_single_id(self, capsys):
        assert main(["experiments", "spawn"]) == 0
        out = capsys.readouterr().out
        assert "Section 4.5" in out

    def test_experiments_all_matches_checked_in_output(self, capsys):
        assert main(["experiments", "all"]) == 0
        assert capsys.readouterr().out == EXPERIMENTS_OUTPUT.read_text()

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiments", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAnalyzeCommand:
    def test_default_run_is_safe_and_exits_zero(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        # Per-site classification and safety verdicts are reported.
        assert "mov_eax_imm" in out
        assert "SAFE" in out
        assert "static model and online ABOM agree" in out
        assert "0 unsafe" in out

    def test_unsafe_example_exits_nonzero(self, capsys):
        assert main(["analyze", "interior_jump"]) == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "interior-target" in out
        assert "1 unsafe" in out

    def test_tail_jump_reports_fixup_not_unsafe(self, capsys):
        assert main(["analyze", "tail_jump"]) == 0
        out = capsys.readouterr().out
        assert "needs #UD fixup" in out

    def test_no_differential_flag(self, capsys):
        assert main(["analyze", "figure2", "--no-differential"]) == 0
        out = capsys.readouterr().out
        assert "differential" not in out

    def test_list_examples(self, capsys):
        assert main(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "[unsafe demo]" in out

    def test_unknown_example_errors(self):
        with pytest.raises(SystemExit, match="unknown example"):
            main(["analyze", "nonesuch"])


class TestChaosCommand:
    def test_full_catalog_recovers_and_exits_zero(self, capsys):
        assert main(["chaos", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "ALL RECOVERED" in out
        assert "core substrate coverage: complete" in out

    def test_output_is_byte_identical_for_same_seed(self, capsys):
        main(["chaos", "--seed", "11"])
        first = capsys.readouterr().out
        main(["chaos", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_single_scenario_run(self, capsys):
        assert main(["chaos", "nginx-packet-loss", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "nginx-packet-loss" in out
        assert "backend-death-memcached" not in out

    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "backend-death-memcached" in out
        assert "abom-cmpxchg-contention" in out

    def test_list_is_sorted_by_name(self, capsys):
        assert main(["chaos", "--list"]) == 0
        names = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert names == sorted(names)

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["chaos", "nonesuch"])

    def test_unknown_scenario_error_lists_names_sorted(self):
        with pytest.raises(SystemExit) as caught:
            main(["chaos", "nonesuch"])
        message = str(caught.value)
        listed = message.split("known: ")[1].split(", ")
        assert listed == sorted(listed)
        assert "fuzz-notify-drop-burst" in listed

    def test_replay_of_serialized_steps(self, tmp_path, capsys):
        from repro.fuzz.steps import dumps, step

        path = tmp_path / "steps.json"
        path.write_text(
            dumps(
                (
                    step("spawn", memory_mb=64, lightvm=True),
                    step("net_burst", count=2, size=10, batched=False),
                ),
                world_seed=4,
            )
        )
        assert main(["chaos", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fuzz world seed=4 steps=2" in out
        assert "outcome: clean" in out

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        from repro.fuzz.steps import dumps, step

        path = tmp_path / "steps.json"
        path.write_text(
            dumps((step("remus_epoch", dirty_pages=5, packets=1),))
        )
        main(["chaos", "--replay", str(path)])
        first = capsys.readouterr().out
        main(["chaos", "--replay", str(path)])
        assert capsys.readouterr().out == first

    def test_replay_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text('{"version": 99, "steps": []}')
        with pytest.raises(ValueError, match="version"):
            main(["chaos", "--replay", str(path)])

    def test_replay_of_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--replay", str(missing)])
        assert exc.value.code == 2
        assert "can't open" in capsys.readouterr().err


#: The seeded-defect ``repro fuzz`` run: the session fixture
#: ``blk_lost_write_report`` (``tests/conftest.py``) holds its report.
DEFECT_ARGV = [
    "fuzz", "--seed", "7", "--max-examples", "15", "--steps", "15",
    "--defect", "blk-lost-write",
]


class TestFuzzCommand:
    @pytest.fixture
    def shared_defect_run(self, monkeypatch, blk_lost_write_report):
        """Stand in for ``run_fuzz``: check that the CLI asks for the
        session's shared run (an int seed, as the library takes it),
        then return that run's report."""
        report = blk_lost_write_report

        def run_fuzz(**kwargs):
            assert kwargs == dict(
                seed=report.seed,
                max_examples=report.max_examples,
                steps=report.step_budget,
                defect=report.defect,
            )
            return report

        monkeypatch.setattr("repro.fuzz.machine.run_fuzz", run_fuzz)

    def test_clean_bounded_run_exits_zero(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--max-examples", "3", "--steps", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "result: clean" in out
        assert "rule kinds: 14" in out

    def test_fuzz_json_format(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--max-examples", "2", "--steps", "8",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rules"] >= 8
        assert payload["invariants"] >= 5

    def test_seeded_defect_is_found_and_exits_one(
        self, shared_defect_run, capsys
    ):
        assert main(DEFECT_ARGV) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "replay byte-identical" in out
        assert '"op": "blk_burst"' in out

    def test_fuzz_steps_feed_chaos_replay(
        self, shared_defect_run, tmp_path, capsys
    ):
        assert main([*DEFECT_ARGV, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        path = tmp_path / "steps.json"
        path.write_text(payload["steps_json"])
        # Honest stack (no defect hook): the sequence replays clean.
        assert main(["chaos", "--replay", str(path)]) == 0

    def test_exit_codes_mention_fuzz(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "fuzz: no invariant violation found" in out

    def test_json_format(self, capsys):
        assert main(
            ["chaos", "nginx-packet-loss", "--seed", "3",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_recovered"] is True
        assert payload["scenarios"][0]["name"] == "nginx-packet-loss"


class TestSharedOutputSurface:
    """--format/--output behave identically on all four subcommands."""

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "usage error" in out

    def test_analyze_json_format(self, capsys):
        assert main(["analyze", "figure2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unsafe"] == 0
        assert payload["reports"][0]["has_unsafe"] is False
        assert payload["reports"][0]["sites"]

    def test_output_writes_file_instead_of_stdout(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(
            ["chaos", "nginx-packet-loss", "--format", "json",
             "--output", str(path)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["all_recovered"] is True

    @pytest.mark.parametrize(
        "command", ["analyze", "chaos", "serve", "sanitize"]
    )
    def test_list_writes_file_instead_of_stdout(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "list.txt"
        assert main([command, "--list", "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().strip()

    def test_every_subcommand_accepts_the_shared_flags(self):
        parser = build_parser()
        for command in ("analyze", "chaos", "fuzz", "metrics", "trace"):
            args = parser.parse_args([command, "--format", "json"])
            assert args.format == "json"
            assert args.output is None

    @pytest.mark.parametrize("argv", [
        ["trace", "--limit", "-3"],
        ["fuzz", "--max-examples", "0"],
        ["fuzz", "--steps", "0"],
        ["metrics", "--requests", "0"],
        ["trace", "--requests", "-2"],
        ["abom-demo", "--iterations", "0"],
        ["abom-demo", "--iterations", "-1"],
        ["serve", "ci-small", "--workers", "0"],
        ["serve", "ci-small", "--workers", "-1"],
    ])
    def test_out_of_range_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err


class TestMetricsCommand:
    def test_table_lists_unified_metrics(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "arch_icache_hits_total{cpu=0,domain=demo}" in out
        assert "xen_ring_batches_total{domain=demo,driver=net0}" in out
        assert "faults_injected_total" in out

    def test_json_snapshot(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"]["finished"] > 0
        assert (
            payload["histograms"]
            ["net_http_request_latency_ns{component=http,domain=demo}"]
            ["count"] == 8
        )

    def test_prometheus_exposition(self, capsys):
        assert main(["metrics", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE arch_icache_hits_total counter" in out
        assert "net_http_request_latency_ns_bucket" in out

    def test_same_seed_is_byte_identical(self, capsys):
        main(["metrics", "--format", "json", "--seed", "9"])
        first = capsys.readouterr().out
        main(["metrics", "--format", "json", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestTraceCommand:
    def test_table_shows_span_tree(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "demo.syscall_bench" in out
        assert "netfront.tx" in out
        assert "http.request" in out

    def test_json_is_chrome_trace_format(self, capsys):
        assert main(["trace", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traceEvents"]
        assert all(e["ph"] == "X" for e in payload["traceEvents"])

    def test_limit_bounds_the_table(self, capsys):
        assert main(["trace", "--limit", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # header + 2 spans
        assert main(["trace", "--limit", "0"]) == 0
        assert capsys.readouterr().out.strip() == out[0]  # header only


class TestServeCommand:
    def test_list_scenarios(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ci-small" in out
        assert "fleet-100" in out
        assert "fleet-nat" in out

    def test_default_scenario_passes_slo(self, capsys):
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "serve report — scenario=ci-small seed=0" in out
        assert "PASS" in out
        assert "conservation=ok" in out

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="unknown serve scenario"):
            main(["serve", "fleet-9000"])

    def test_json_format(self, capsys):
        assert main(["serve", "ci-small", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "ci-small"
        assert payload["slo"]["ok"] is True
        assert payload["ipvs"]["conservation_ok"] is True
        assert len(payload["intervals"]) == 12

    def test_prometheus_export_has_latency_histogram(self, capsys):
        assert main(["serve", "ci-small", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_request_latency_ns histogram" in out
        assert (
            'serve_request_latency_ns_bucket{scenario="ci-small",'
            'le="+Inf"}' in out
        )
        assert "serve_requests_total" in out
        assert "serve_ipvs_backend_deaths_total" in out

    def test_same_seed_is_byte_identical(self, capsys):
        main(["serve", "ci-small", "--seed", "3", "--format", "json"])
        first = capsys.readouterr().out
        main(["serve", "ci-small", "--seed", "3", "--format", "json"])
        assert capsys.readouterr().out == first
