"""Session fixtures shared across test packages."""

import pytest


@pytest.fixture(scope="session")
def blk_lost_write_report():
    """One seed-7 ``blk-lost-write`` shrink, shared by every test that
    only reads its report; ``repro fuzz --seed 7 --max-examples 15
    --steps 15 --defect blk-lost-write`` asks for the same run."""
    from repro.fuzz.machine import run_fuzz

    return run_fuzz(
        seed=7, max_examples=15, steps=15, defect="blk-lost-write"
    )
