"""Smoke tests: every example script must run to completion.

Each script runs as a user runs it, ``PYTHONPATH=src python
examples/<name>.py``, in a fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[s.stem for s in EXAMPLES]
)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script.name} produced no output"


def test_examples_present():
    """The deliverable: at least a quickstart plus domain scenarios."""
    names = {s.stem for s in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3
