"""The benchmark's three workloads: ``figures``, ``serve-fleet`` and ``chaos``.

Each workload has three steps, all through public ``repro`` calls:

* ``setup(seed, size)`` imports what the run needs and derives its inputs
  from the workload seed (counted in ``setup_s``);
* ``run(inputs)`` is the timed phase, exactly what a CLI user waits for;
* ``check(output)`` verifies the output and returns an :class:`Outcome`:
  operations attempted and failed, the units of simulated work completed,
  the exact simulated record (``sim.*``) and one digest per operation.

The digests let the caller compare runs of one commit byte for byte; the
``sim.*`` values must repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field

#: The full workload, or the smallest size the self-test runs.
FULL = "full"
SMOKE = "smoke"

#: Experiment ids of the smoke-size ``figures`` run: one analytic figure,
#: one executed on guest kernels (Fig 5) and the ABOM table.
SMOKE_FIGURES = ("fig1", "fig5", "table1")
SERVE_SCENARIO = {FULL: "fleet-100", SMOKE: "ci-small"}
#: Chaos run seeds per workload seed: the catalog runs once per seed.
CHAOS_SEEDS = {FULL: 20, SMOKE: 1}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_value(hexdigest: str) -> int:
    """A SHA-256 digest as a number: its first 52 bits, exact in a double."""
    return int(hexdigest[:13], 16)


@dataclass
class Outcome:
    """The checked result of one timed run."""

    attempted: int
    failed: int
    #: Units of simulated work completed (the ``requests_per_host_s`` base).
    requests: int
    sim: dict[str, float]
    #: operation -> SHA-256 of its rendered output.
    digests: dict[str, str]
    failures: list[str] = field(default_factory=list)


class KernelCensus:
    """Keeps the stats object of every ``GuestKernel`` built while active.

    A kernel counts its own syscalls; keeping its (small) stats object,
    not the kernel, lets the simulated syscall total be read after the
    timed phase.  The hook runs once per kernel construction, never per
    syscall, so it leaves the untraced timing alone.
    """

    def __init__(self) -> None:
        self.stats: list = []
        self._original = None

    def __enter__(self) -> "KernelCensus":
        from repro.guest.kernel import GuestKernel

        original = GuestKernel.__init__
        census = self.stats

        def init(kernel, *args, **kwargs):
            original(kernel, *args, **kwargs)
            census.append(kernel.stats)

        self._original = original
        GuestKernel.__init__ = init
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.guest.kernel import GuestKernel

        GuestKernel.__init__ = self._original

    def syscalls(self) -> int:
        return sum(stats.syscalls for stats in self.stats)


# ----------------------------------------------------------------------
# figures: `repro experiments all`
# ----------------------------------------------------------------------
class Figures:
    name = "figures"

    def setup(self, seed: int, size: str):
        # The paper fixes these inputs; the seed is recorded only.
        from repro.experiments import runner

        ids = runner.experiment_ids() if size == FULL else list(SMOKE_FIGURES)
        return ids, KernelCensus()

    def run(self, inputs):
        from repro.experiments import runner

        ids, census = inputs
        tables: dict[str, object] = {}
        with census:
            for eid in ids:
                try:
                    results = runner.run_experiment(eid)
                    text = "\n\n".join(r.format_table() for r in results)
                    tables[eid] = (results, text)
                except Exception:  # one failed figure must not hide the rest
                    tables[eid] = traceback.format_exc()
        return tables, census

    def check(self, output) -> Outcome:
        tables, census = output
        failures = []
        failed = set()
        digests = {}
        for eid, entry in tables.items():
            if isinstance(entry, str):
                failures.append(f"{eid} raised:\n{entry}")
                failed.add(eid)
                continue
            results, text = entry
            digests[eid] = digest(text)
            if eid == "table1":
                mismatches = _table1_mismatches(results)
                failures.extend(mismatches)
                if mismatches:
                    failed.add(eid)
        rendered = "".join(
            entry[1] for entry in tables.values() if not isinstance(entry, str)
        )
        syscalls = census.syscalls()
        return Outcome(
            attempted=len(tables),
            failed=len(failed),
            requests=syscalls,
            sim={
                "sim.figures.digest": digest_value(digest(rendered)),
                "sim.figures.guest_syscalls": syscalls,
            },
            digests=digests,
            failures=failures,
        )


def _table1_mismatches(results) -> list[str]:
    """Table 1 fails when a measured cell differs from its paper cell."""
    out = []
    for result in results:
        for row in result.rows:
            for measured, paper in (
                ("measured", "paper"),
                ("measured-offline", "paper-manual"),
            ):
                got, want = row.values.get(measured), row.values.get(paper)
                if got != want:
                    out.append(
                        f"table1 {row.label}: {measured}={got} {paper}={want}"
                    )
    return out


# ----------------------------------------------------------------------
# serve-fleet: `repro serve fleet-100 --seed S --workers 1`
# ----------------------------------------------------------------------
class ServeFleet:
    name = "serve-fleet"

    def setup(self, seed: int, size: str):
        from repro.serve import get_scenario

        return get_scenario(SERVE_SCENARIO[size]), seed

    def run(self, inputs):
        from repro.serve import run_serve

        scenario, seed = inputs
        try:
            report = run_serve(scenario, seed=seed, workers=1)
            return report, report.render()
        except Exception:
            return None, traceback.format_exc()

    def check(self, output) -> Outcome:
        report, text = output
        if report is None:
            return Outcome(1, 1, 0, {}, {}, [f"serve raised:\n{text}"])
        r = report.result
        failures = []
        if not r.slo_ok:
            failures.append(f"serve: slo_ok is false (p99 {r.p99_ms:.3f} ms)")
        if not r.conservation_ok:
            failures.append("serve: IPVS connection conservation violated")
        text_digest = digest(text)
        return Outcome(
            attempted=1,
            failed=1 if failures else 0,
            requests=r.completed,
            sim={
                "sim.serve-fleet.digest": digest_value(text_digest),
                "sim.serve-fleet.requests": r.requests,
                "sim.serve-fleet.errors": r.errors,
                "sim.serve-fleet.p99_ms": round(r.p99_ms, 3),
                "sim.serve-fleet.domains_spawned": (
                    r.fleet_exec["domains_spawned"]
                ),
            },
            digests={"report": text_digest},
            failures=failures,
        )


# ----------------------------------------------------------------------
# chaos: `repro chaos --seed S` over a run of seeds
# ----------------------------------------------------------------------
class Chaos:
    name = "chaos"

    def setup(self, seed: int, size: str):
        import repro.faults.report  # noqa: F401  (import cost is set-up)

        count = CHAOS_SEEDS[size]
        # Workload seed n owns run seeds [n*count, (n+1)*count).
        return [seed * count + i for i in range(count)]

    def run(self, seeds):
        from repro.faults.report import run_scenarios

        reports = []
        for seed in seeds:
            try:
                report = run_scenarios(seed, None)
                reports.append((seed, report, report.render()))
            except Exception:
                reports.append((seed, None, traceback.format_exc()))
        return reports

    def check(self, output) -> Outcome:
        attempted = failed = recovered_runs = 0
        totals = [0, 0, 0, 0]
        failures = []
        digests = {}
        for seed, report, text in output:
            if report is None:
                attempted += 1
                failed += 1
                failures.append(f"chaos seed {seed} raised:\n{text}")
                continue
            digests[str(seed)] = digest(text)
            for result in report.results:
                attempted += 1
                if result.ok:
                    recovered_runs += 1
                else:
                    failed += 1
                    failures.append(
                        f"chaos seed {seed}: {result.name} {result.outcome}"
                    )
            if not report.core_coverage_ok():
                failed += 1
                failures.append(f"chaos seed {seed}: core coverage incomplete")
            for i, value in enumerate(report.totals()):
                totals[i] += value
        rendered = "".join(text for _, _, text in output)
        injected, retried, recovered, fatal = totals
        return Outcome(
            attempted=attempted,
            failed=failed,
            requests=recovered_runs,
            sim={
                "sim.chaos.digest": digest_value(digest(rendered)),
                "sim.chaos.injected": injected,
                "sim.chaos.retried": retried,
                "sim.chaos.recovered": recovered,
                "sim.chaos.fatal": fatal,
            },
            digests=digests,
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (Figures(), ServeFleet(), Chaos())}

#: Every ``sim.*`` name; a workload reports its own and 0 for the rest.
SIM_METRICS = (
    "sim.figures.digest",
    "sim.figures.guest_syscalls",
    "sim.serve-fleet.digest",
    "sim.serve-fleet.requests",
    "sim.serve-fleet.errors",
    "sim.serve-fleet.p99_ms",
    "sim.serve-fleet.domains_spawned",
    "sim.chaos.digest",
    "sim.chaos.injected",
    "sim.chaos.retried",
    "sim.chaos.recovered",
    "sim.chaos.fatal",
)
