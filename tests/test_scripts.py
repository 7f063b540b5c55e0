"""Smoke tests: each experiment script runs on a small grid and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("gn_audit_sweep.py", ["--max-n", "2", "--max-degf", "2"], ["n", "degF", "#S", "ell"]),
        ("density_survey.py", ["--max-k", "2"], ["Gamma", "|H|", "k", "density"]),
    ],
)
def test_script_runs_on_a_small_grid(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[: len(header)] == header
    assert len(lines) > 2


def test_splitting_probe_runs_its_cheapest_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "splitting_probe.py"), "--case", "4+3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["case", "field", "roots", "digest", "wall_s", "maxrss_MB", "exit"]
    case, field, roots, _, wall, rss, code = row.split()
    assert (case, field, roots, code) == ("4+3", "F_2^12", "7", "0")
    assert float(wall) > 0 and float(rss) > 0


def test_density_probe_runs_its_cheapest_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "density_probe.py"), "--group", "S6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["group", "density", "wall_s", "maxrss_MB", "exit"]
    group, density, wall, rss, code = row.split()
    assert (group, density, code) == ("S6", "59/64", "0")
    assert float(wall) > 0 and float(rss) > 0
