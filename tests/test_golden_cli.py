"""Known-good exit code and stdout digest for every CLI gate command.

``tests/golden/cli.json`` is the one list of gate commands.  Each key is
the command line after ``repro`` (split with :func:`shlex.split`, paths
relative to the repository root), and each value is the exit code and
the SHA-256 of the stdout that command printed when it was recorded.
Every case runs its command in-process through :func:`repro.cli.main`,
so a change that moves any gate's bytes, or state that leaks between
tests, fails the case that names the command.

A test run never writes the record.  Running this module as a script
re-records every key from a fresh ``python -m repro.cli`` subprocess::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD = REPO_ROOT / "tests" / "golden" / "cli.json"
RECORDED = json.loads(RECORD.read_text(encoding="utf-8"))


def _entry(exit_code: int, stdout: bytes) -> dict:
    return {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest()}


@pytest.mark.parametrize("command", RECORDED)
def test_command_matches_record(command, capsysbinary, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    actual = _entry(main(shlex.split(command)), capsysbinary.readouterr().out)
    expected = RECORDED[command]
    assert actual == expected, (
        f"repro {command}: expected {expected}, got {actual}"
    )


def record() -> None:
    """Re-record every key of the record from fresh subprocesses."""
    # Some outputs are not ASCII; the in-process check captures UTF-8
    # whatever the locale, so the subprocesses must write UTF-8 too.
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "PYTHONIOENCODING": "utf-8",
    }
    entries = {}
    for command in RECORDED:
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", *shlex.split(command)],
            cwd=REPO_ROOT, env=env, capture_output=True, check=False,
        )
        entries[command] = _entry(run.returncode, run.stdout)
        print(f"{entries[command]['exit']}  repro {command}")
    RECORD.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
