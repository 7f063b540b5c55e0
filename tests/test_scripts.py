"""Smoke tests: each experiment script runs on a small grid and prints its table."""

import re
import runpy
from pathlib import Path

import pytest

from defring_audit import limits

ROOT = Path(__file__).resolve().parent.parent
PROBE_CASES = runpy.run_path(str(ROOT / "scripts" / "limits_probe.py"))["CASES"]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("gn_audit_sweep.py", ["--max-n", "2", "--max-degf", "2"], ["n", "degF", "#S", "ell"]),
        ("density_survey.py", ["--max-k", "2"], ["Gamma", "|H|", "k", "density"]),
    ],
)
def test_script_runs_on_a_small_grid(run_script, script, args, header):
    lines = run_script(script, *args)
    assert lines[0][: len(header)] == header
    assert len(lines) > 2


def run_probe_case(run_script, case):
    """Run one limits_probe case; its row, keyed by the header's words."""
    header, row = run_script("limits_probe.py", f"--case={case}")
    assert header == ["case", "cap", "result", "wall_s", "maxrss_MB", "exit"]
    row = dict(zip(header, row))
    assert float(row["wall_s"]) > 0 and float(row["maxrss_MB"]) > 0
    return row


def test_splitting_probe_runs_its_cheapest_case(run_script):
    row = run_probe_case(run_script, "split4+3")
    assert (row["case"], row["result"], row["exit"]) == ("split4+3", "F_2^12/7/62f357edca28", "0")


def test_density_probe_runs_its_cheapest_case(run_script):
    row = run_probe_case(run_script, "S6")
    assert (row["case"], row["result"], row["exit"]) == ("S6", "59/64", "0")


def test_involution_probe_runs_the_largest_elimination(run_script):
    # the 144 x 144 sigma of a dense symmetric J; the symmetric twist's
    # (-1)-eigenspace has dimension n(n+1)/2
    row = run_probe_case(run_script, "involution12")
    assert (row["case"], row["result"], row["exit"]) == ("involution12", "78", "0")


def test_every_probe_case_names_a_cap():
    caps = {name for name in vars(limits) if name.startswith("MAX_")}
    assert {cap for cap, _, _ in PROBE_CASES.values()} <= caps


def test_every_slowest_input_note_in_limits_names_a_probe_case():
    source = (ROOT / "src" / "defring_audit" / "limits.py").read_text(encoding="utf-8")
    text = re.sub(r"\n\s*# ?", " ", source)  # a note's comment lines, joined
    named = re.findall(r"Slowest at the limit: case `([^`]+)`", text)
    assert len(named) == text.count("Slowest at the limit") > 0
    assert set(named) <= set(PROBE_CASES)
