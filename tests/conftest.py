"""Shared test settings and fixtures.

Every ``@given`` test draws its examples from a fixed seed derived from the
test itself, so each run of the suite checks the same examples; a failure
found once is found again on the next run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def run_script():
    """Run scripts/NAME on the source tree; the words of each line it prints."""
    def run(name, *args):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0, proc.stdout + proc.stderr[-500:]
        return [line.split() for line in proc.stdout.splitlines()]
    return run
