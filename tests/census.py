"""Dynamic census: which functions and methods under ``src/repro`` run.

The static gates in ``tests/test_module_reachability.py`` go by name
alone.  This script goes by execution.  It installs ``sys.setprofile``
and ``threading.setprofile`` before the first ``import repro``, so
import-time code counts too, and then runs in-process:

* every command of ``tests/golden/cli.json``;
* CI's two fuzz defect self-tests (``--seed 7 --max-examples 25
  --steps 20 --defect …``);
* ``repro experiments all``;
* ``repro.analysis.lint.main(["src/repro"])``;
* every script in ``examples/``, as ``__main__``.

It then lists every ``def`` under ``src/repro`` that never ran, per
package with line counts.  ``tests/golden/uncalled.json`` is the
allowlist: ``"path:qualname"`` to one of the reasons in
:data:`REASONS`.  The script exits 1 on a never-called definition that
is not on the allowlist, and on an entry that ran or no longer exists::

    PYTHONPATH=src python tests/census.py

It takes a minute or two, so it is not a tier-1 test (pytest collects
only ``test_*.py``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tests" / "golden" / "uncalled.json"
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

#: The only reasons a definition may stay without running here.
REASONS = frozenset(
    {
        "runs only in a serve --workers pool process",
        "reached only when a check fails or an error is raised",
        "a typing.Protocol stub",
        "a reference path or oracle that tests compare against",
        "named by e2ebench/layers.py",
        "read by a benchmarks/ row",
        # Live code whose trigger no gate's seed hits: a ring-full stall
        # under the sanitizers, a fleet scale-down, a histogram read
        # through Registry.value, closing a listening socket or a
        # dropped HTTP connection, the batch mean of a wired block ring.
        "a branch of a live path that no fixed-seed command takes",
    }
)

_called: set[tuple[str, int]] = set()
_prefix = str(PACKAGE) + os.sep


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_prefix):
            _called.add((code.co_filename, code.co_firstlineno))


def _commands() -> list[list[str]]:
    commands = [shlex.split(line) for line in json.loads(GOLDEN.read_text())]
    for defect in ("blk-lost-write", "fleet-skew"):
        commands.append(
            ["fuzz", "--seed", "7", "--max-examples", "25", "--steps", "20",
             "--defect", defect]
        )
    commands.append(["experiments", "all"])
    return commands


def run_workloads() -> None:
    """Run every workload in-process, with stdout discarded."""
    os.chdir(ROOT)
    from repro.analysis import lint
    from repro.cli import main

    for argv in _commands():
        print("repro", shlex.join(argv), file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    print("repro.analysis.lint src/repro", file=sys.stderr)
    with contextlib.redirect_stdout(io.StringIO()):
        lint.main(["src/repro"])
    for script in sorted((ROOT / "examples").glob("*.py")):
        print("examples/" + script.name, file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def definitions() -> dict[str, tuple[str, int, int]]:
    """``"path:qualname"`` → (file, first line as the code object
    reports it, line count) for every ``def`` under ``src/repro``."""
    found: dict[str, tuple[str, int, int]] = {}

    def visit(path: Path, body: list, prefix: str) -> None:
        rel = path.relative_to(ROOT / "src").as_posix()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                key = f"{rel}:{name}"
                if key in found:  # a property setter, say
                    key = f"{key}@{node.lineno}"
                found[key] = (str(path), first, node.end_lineno - first + 1)
                visit(path, node.body, name + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(path, node.body, prefix + node.name + ".")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(path, getattr(node, field, []), prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")).body, "")
    return found


def report(uncalled: dict[str, int], total: int) -> None:
    by_package: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for key, lines in uncalled.items():
        parts = key.split(":")[0].split("/")
        package = parts[1] if len(parts) > 2 else parts[1].removesuffix(".py")
        by_package[package][0] += 1
        by_package[package][1] += lines
    print(f"{len(uncalled)} of {total} definitions never called "
          f"({sum(uncalled.values())} lines)")
    for package, (count, lines) in sorted(
        by_package.items(), key=lambda item: (-item[1][0], item[0])
    ):
        print(f"  {package:12} {count:4} defs {lines:5} lines")
    for key in sorted(uncalled):
        print(f"    {key} ({uncalled[key]} lines)")


def check(
    uncalled: dict[str, int], known: set[str], allowed: dict[str, str]
) -> list[str]:
    """Every problem with the allowlist, as printable lines."""
    problems = [
        f"never called and not on the allowlist: {key}"
        for key in sorted(set(uncalled) - set(allowed))
    ]
    for key, reason in sorted(allowed.items()):
        if key not in known:
            problems.append(f"allowlist names a definition that is gone: {key}")
        elif key not in uncalled:
            problems.append(f"allowlist names a definition that ran: {key}")
        if reason not in REASONS:
            problems.append(f"allowlist reason not in the fixed set: {key}: {reason}")
    return problems


def main() -> int:
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    try:
        run_workloads()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    defs = definitions()
    uncalled = {
        key: lines
        for key, (path, first, lines) in defs.items()
        if (path, first) not in _called
    }
    report(uncalled, len(defs))
    allowed = json.loads(ALLOWLIST.read_text(encoding="utf-8"))
    problems = check(uncalled, set(defs), allowed)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
