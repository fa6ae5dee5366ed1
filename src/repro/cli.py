"""Command-line interface.

::

    repro experiments [id|all]   # regenerate tables/figures
    repro platforms              # list runtime models + key costs
    repro tcb                    # §3.4 isolation TCB comparison
    repro abom-demo              # patch a binary live, show the bytes
    repro analyze [example]      # static §4.4 patch-safety analysis
    repro chaos [scenario]       # deterministic fault-injection scenarios
    repro fuzz                   # stateful whole-stack scenario fuzzing
    repro serve [scenario]       # serving fleet: IPVS + autoscaler
    repro sanitize [target]      # cross-vCPU sanitizer suite
    repro metrics                # telemetry demo: registry snapshot
    repro trace                  # telemetry demo: span timeline

``analyze``, ``chaos``, ``fuzz``, ``serve``, ``sanitize``, ``metrics``
and ``trace`` share one output surface: ``--format {table,json}`` picks
the rendering and ``--output PATH`` redirects it to a file (default:
stdout).

(also reachable as ``python -m repro``)
"""

from __future__ import annotations

import argparse
import json
import sys

#: Exit-code contract, shown in ``repro --help``.
EXIT_CODES = """\
exit codes:
  0  success (analyze: all findings safe; chaos: all scenarios recovered;
     fuzz: no invariant violation found)
  1  gate failure (analyze: unsafe finding or differential mismatch;
     chaos: unrecovered scenario, missing core-substrate coverage, or a
     --replay that violated an invariant;
     fuzz: a shrunk failing step sequence was found;
     sanitize: any finding — or, for fixtures, a silenced checker;
     serve: SLO missed or director accounting unbalanced)
  2  usage error (unknown subcommand/argument; raised by argparse)
"""


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to ``--output PATH`` (or stdout)."""
    output = getattr(args, "output", None)
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_report(args: argparse.Namespace, report) -> None:
    """Emit a run report: ``as_dict()`` under ``--format json``, else
    ``render()``."""
    if args.format == "json":
        _emit(args, _json_text(report.as_dict()))
    else:
        _emit(args, report.render())


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import experiment_ids, run_experiment

    ids = experiment_ids() if args.id == "all" else [args.id]
    for eid in ids:
        for result in run_experiment(eid):
            print(result.format_table())
            print()
    return 0


def cmd_platforms(args: argparse.Namespace) -> int:
    from repro.platforms import get_platform, platform_names

    print(f"{'platform':16s} {'syscall ns':>11s} {'multicore':>10s} "
          f"{'modules':>8s} {'nested-virt':>12s}")
    for name in platform_names():
        platform = get_platform(name)
        print(
            f"{name:16s} {platform.syscall_cost_ns():11.1f} "
            f"{str(platform.multicore_processing):>10s} "
            f"{str(platform.supports_kernel_modules):>8s} "
            f"{str(platform.needs_nested_hw_virt):>12s}"
        )
    return 0


def cmd_tcb(args: argparse.Namespace) -> int:
    from repro.core.tcb import compare_to_docker

    print(f"{'platform':16s} {'TCB kLoC':>10s} {'surface':>8s} "
          f"{'TCB vs docker':>14s} {'surface vs docker':>18s}")
    for row in compare_to_docker():
        print(
            f"{row.platform:16s} {row.tcb_kloc:10,d} "
            f"{row.attack_surface:8d} {row.tcb_vs_docker:13.3f}x "
            f"{row.surface_vs_docker:17.2f}x"
        )
    return 0


def cmd_abom_demo(args: argparse.Namespace) -> int:
    from repro import Assembler, CountingServices, Reg, XContainer
    from repro.arch.disasm import disassemble_memory, format_listing

    asm = Assembler(base=0x400000)
    asm.mov_imm32(Reg.RBX, args.iterations)
    asm.label("loop")
    asm.syscall_site(0, style="mov_eax", symbol="__read")
    asm.syscall_site(15, style="mov_rax", symbol="__restore_rt")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build("demo")
    xc = XContainer(CountingServices())
    xc.load(binary)
    print("before:")
    print(format_listing(
        disassemble_memory(xc.memory, binary.base, len(binary.code))
    ))
    xc.run_loaded(binary.entry)
    print()
    print("after ABOM:")
    print(format_listing(
        disassemble_memory(xc.memory, binary.base, len(binary.code))
    ))
    print()
    print(f"forwarded: {xc.libos_stats.forwarded_syscalls}, "
          f"lightweight: {xc.libos_stats.lightweight_syscalls}, "
          f"reduction: {xc.syscall_reduction():.1%}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static CFG/site/safety analysis + ABOM differential (§4.4).

    Without a target, analyzes every *safe* example binary — the CI
    gate — and exits nonzero if any unsafe finding or differential
    mismatch shows up.  Naming an example analyzes just that one
    (including the deliberately unsafe demonstrations).
    """
    from repro.analysis.examples import EXAMPLES, safe_examples
    from repro.analysis.report import analyze

    if args.list:
        for example in EXAMPLES.values():
            marker = "" if example.safe else "  [unsafe demo]"
            print(f"{example.name:16s} {example.description}{marker}")
        return 0
    if args.target is None:
        selected = safe_examples()
    elif args.target in EXAMPLES:
        selected = [EXAMPLES[args.target]]
    else:
        known = ", ".join(EXAMPLES)
        raise SystemExit(
            f"unknown example {args.target!r} (known: {known})"
        )
    unsafe = 0
    reports = []
    for example in selected:
        binary = example.build()
        report = analyze(
            binary,
            differential=example.runnable and not args.no_differential,
        )
        reports.append(report)
        if report.has_unsafe:
            unsafe += 1
    total = len(selected)
    if args.format == "json":
        _emit(args, _json_text({
            "reports": [report.as_dict() for report in reports],
            "analyzed": total,
            "unsafe": unsafe,
        }))
    else:
        lines = []
        for report in reports:
            lines.append(report.render())
            lines.append("")
        lines.append(
            f"analyzed {total} binar{'y' if total == 1 else 'ies'}: "
            f"{total - unsafe} safe, {unsafe} unsafe"
        )
        _emit(args, "\n".join(lines))
    return 1 if unsafe else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos scenario catalog under a deterministic seed.

    Same seed + same plan ⇒ byte-identical report; exits nonzero when
    any scenario fails to recover (or, when running the whole catalog,
    when the run misses a core substrate).  ``--replay steps.json``
    re-executes a serialized fuzzer step sequence (``repro fuzz``
    output) on a fresh world instead and prints the deterministic
    trace; replaying the same file is byte-identical.
    """
    from repro.faults.registry import get_scenario, scenario_names
    from repro.faults.report import run_scenarios

    if args.replay is not None:
        from repro.fuzz.replay import replay_steps
        from repro.fuzz.steps import loads

        with open(args.replay, encoding="utf-8") as handle:
            world_seed, steps = loads(handle.read())
        trace = replay_steps(steps, world_seed=world_seed)
        _emit(args, trace)
        return 0 if "\noutcome: clean\n" in trace else 1
    if args.list:
        for name in sorted(scenario_names()):
            scenario = get_scenario(name)
            print(f"{scenario.name:28s} {scenario.description}")
        return 0
    names = None
    if args.scenario is not None:
        if args.scenario not in scenario_names():
            known = ", ".join(sorted(scenario_names()))
            raise SystemExit(
                f"unknown scenario {args.scenario!r} (known: {known})"
            )
        names = [args.scenario]
    report = run_scenarios(args.seed, names)
    _emit_report(args, report)
    if not report.all_recovered:
        return 1
    if names is None and not report.core_coverage_ok():
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a serving-fleet scenario (IPVS director + N backends).

    Open-loop seeded traffic, metrics-driven autoscaling, optional
    chaos overlay.  Same seed + same scenario ⇒ byte-identical report
    regardless of ``--workers``; exits 1 when the run misses its SLO
    (no post-chaos recovery inside the window) or the director's
    accounting fails to balance.
    """
    from repro.obs import prometheus_text
    from repro.serve import SCENARIOS, run_serve

    if args.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:12s} {scenario.description}")
        return 0
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise SystemExit(
            f"unknown serve scenario {args.scenario!r} (known: {known})"
        )
    report = run_serve(
        args.scenario, seed=args.seed, workers=args.workers,
        engine=args.engine,
    )
    if args.prometheus:
        _emit(args, prometheus_text(report.result.telemetry.registry))
    else:
        _emit_report(args, report)
    if not report.result.slo_ok or not report.result.conservation_ok:
        return 1
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run the cross-vCPU sanitizer suite over end-to-end workloads.

    Targets: ``chaos`` (the fault catalog — retried faults must leave
    the checkers clean), ``workloads`` (fig3 request profiles + fig8
    scale-out), ``fixtures`` (the seeded-race units, which are SUPPOSED
    to fire), or ``all`` (chaos + workloads; the CI clean-run gate).
    Exits 1 on any finding except under ``fixtures``, where it exits 1
    if any fixture FAILS to produce a finding (a silenced checker).
    """
    from repro.sanitize import FIXTURES, run_sanitize

    if args.list:
        from repro.faults.registry import scenario_names

        for name in scenario_names():
            print(f"chaos:{name}")
        for name in ("nginx", "memcached", "redis", "scaleout"):
            print(f"workload:{name}")
        for name in FIXTURES:
            print(f"fixture:{name}")
        return 0
    if args.target not in ("chaos", "workloads", "fixtures", "all"):
        raise SystemExit(
            f"unknown sanitize target {args.target!r} "
            "(known: chaos, workloads, fixtures, all)"
        )
    report = run_sanitize(args.seed, args.target)
    _emit_report(args, report)
    if args.target == "fixtures":
        # The inverted gate: every seeded race must still be caught.
        return 0 if all(not u.clean for u in report.units) else 1
    return 0 if report.clean else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Stateful whole-stack fuzzing: a bounded, seeded Hypothesis run.

    The rule machine drives domains, migration, Remus, ABOM, split
    drivers, fault arm/disarm, and the fleet engines at once, checking
    the invariant catalog after every step.  Same ``--seed`` ⇒ same
    result.  On a find, the shrunk step sequence is printed as JSON —
    save it and re-execute with ``repro chaos --replay steps.json``.
    """
    from repro.fuzz.machine import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        max_examples=args.max_examples,
        steps=args.steps,
        defect=args.defect,
    )
    _emit_report(args, report)
    return 0 if report.ok else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the deterministic telemetry demo and export its registry.

    ``--format table`` renders the fixed-width metric table, ``--format
    json`` the full :meth:`Telemetry.snapshot`; ``--prometheus``
    switches to the Prometheus text exposition format instead.  Same
    ``--seed`` ⇒ byte-identical output (the golden tests pin this).
    """
    from repro.obs.demo import run_demo

    tel = run_demo(seed=args.seed, requests=args.requests)
    if args.prometheus:
        _emit(args, tel.prometheus_text())
    elif args.format == "json":
        _emit(args, _json_text(tel.snapshot()))
    else:
        _emit(args, tel.render_table())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the telemetry demo and export its span timeline.

    ``--format table`` prints the span table; ``--format json`` emits
    Chrome trace-event JSON loadable in about://tracing or Perfetto.
    """
    from repro.obs.demo import run_demo

    tel = run_demo(seed=args.seed, requests=args.requests)
    if args.format == "json":
        _emit(args, tel.chrome_trace_json(pretty=args.pretty))
    else:
        _emit(args, tel.spans.render(limit=args.limit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="X-Containers (ASPLOS'19) reproduction toolkit",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared output surface for analyze / chaos / fuzz / serve /
    # sanitize / metrics / trace.
    common_output = argparse.ArgumentParser(add_help=False)
    common_output.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output rendering (default: table)",
    )
    common_output.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the output to PATH instead of stdout",
    )

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables/figures"
    )
    experiments.add_argument("id", nargs="?", default="all")
    experiments.set_defaults(func=cmd_experiments)

    platforms = sub.add_parser("platforms", help="list runtime models")
    platforms.set_defaults(func=cmd_platforms)

    tcb = sub.add_parser("tcb", help="isolation TCB comparison (§3.4)")
    tcb.set_defaults(func=cmd_tcb)

    demo = sub.add_parser("abom-demo", help="live binary-patching demo")
    demo.add_argument("--iterations", type=int, default=3)
    demo.set_defaults(func=cmd_abom_demo)

    analyze = sub.add_parser(
        "analyze", help="static §4.4 patch-safety analysis + ABOM diff",
        parents=[common_output],
    )
    analyze.add_argument(
        "target", nargs="?", default=None,
        help="example binary to analyze (default: all safe examples)",
    )
    analyze.add_argument(
        "--list", action="store_true", help="list example binaries"
    )
    analyze.add_argument(
        "--no-differential", action="store_true",
        help="skip executing the binary under online ABOM",
    )
    analyze.set_defaults(func=cmd_analyze)

    chaos = sub.add_parser(
        "chaos", help="run deterministic fault-injection scenarios",
        parents=[common_output],
    )
    chaos.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario to run (default: the whole catalog)",
    )
    chaos.add_argument(
        "--seed", default="0",
        help="run seed; same seed + same plan replays byte-identically",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list the scenario catalog"
    )
    chaos.add_argument(
        "--replay", metavar="STEPS_JSON", default=None,
        help="replay a serialized fuzzer step sequence (repro fuzz "
             "output) on a fresh world and print the deterministic trace",
    )
    chaos.set_defaults(func=cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz", help="stateful whole-stack scenario fuzzing (Hypothesis)",
        parents=[common_output],
    )
    fuzz.add_argument(
        "--seed", default="0",
        help="fuzz seed (int or string); same seed reruns the same "
             "example sequence byte-identically",
    )
    fuzz.add_argument(
        "--max-examples", type=int, default=25,
        help="Hypothesis example budget (default: 25)",
    )
    fuzz.add_argument(
        "--steps", type=int, default=30,
        help="max rule steps per example (default: 30)",
    )
    fuzz.add_argument(
        "--defect", choices=("blk-lost-write", "fleet-skew"), default=None,
        help="enable a known seeded defect (self-test: the fuzzer must "
             "find and shrink it)",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    serve = sub.add_parser(
        "serve", help="run a serving-fleet scenario (IPVS + autoscaler)",
        parents=[common_output],
    )
    serve.add_argument(
        "scenario", nargs="?", default="ci-small",
        help="scenario to run (default: ci-small; see --list)",
    )
    serve.add_argument(
        "--seed", default="0",
        help="run seed; same seed + same scenario replays byte-identically",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the arrival shards (default: host "
             "cores; never changes results, only wall-clock speed)",
    )
    serve.add_argument(
        "--engine", choices=("stepped", "hybrid"), default="hybrid",
        help="backend-domain execution engine: 'hybrid' fast-forwards "
             "parked domains on the wake-event queue, 'stepped' walks "
             "every tick (the oracle; byte-identical results)",
    )
    serve.add_argument(
        "--prometheus", action="store_true",
        help="emit the run's metrics registry as Prometheus text "
             "(latency histogram, counters, gauges) instead of a report",
    )
    serve.add_argument(
        "--list", action="store_true", help="list the scenario catalog"
    )
    serve.set_defaults(func=cmd_serve)

    sanitize = sub.add_parser(
        "sanitize", help="run the cross-vCPU sanitizer suite",
        parents=[common_output],
    )
    sanitize.add_argument(
        "target", nargs="?", default="all",
        choices=("chaos", "workloads", "fixtures", "all"),
        help="what to sanitize (default: all = chaos + workloads)",
    )
    sanitize.add_argument(
        "--seed", default="0",
        help="run seed; same seed replays byte-identically",
    )
    sanitize.add_argument(
        "--list", action="store_true", help="list sanitized units"
    )
    sanitize.set_defaults(func=cmd_sanitize)

    metrics = sub.add_parser(
        "metrics", help="telemetry demo: unified registry snapshot",
        parents=[common_output],
    )
    metrics.add_argument(
        "--seed", type=int, default=1234,
        help="fault-plan seed; same seed replays byte-identically",
    )
    metrics.add_argument(
        "--requests", type=int, default=8,
        help="HTTP requests the demo workload issues",
    )
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="emit the Prometheus text exposition format",
    )
    metrics.set_defaults(func=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="telemetry demo: span timeline / Chrome trace",
        parents=[common_output],
    )
    trace.add_argument(
        "--seed", type=int, default=1234,
        help="fault-plan seed; same seed replays byte-identically",
    )
    trace.add_argument(
        "--requests", type=int, default=8,
        help="HTTP requests the demo workload issues",
    )
    trace.add_argument(
        "--limit", type=int, default=64,
        help="max spans in the table rendering",
    )
    trace.add_argument(
        "--pretty", action="store_true",
        help="indent the Chrome trace JSON",
    )
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
