"""Every input cap lives in ``limits``: one past-the-cap case per cap, the
old names as aliases, and the README's budget table.

Each past-the-cap input is refused when it is parsed, before any work, so
every case here runs in milliseconds.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from defring_audit import cli, density, ff, limits, partitions, taylor
from defring_audit.cli import EXIT_INVALID, main

ROOT = Path(__file__).resolve().parent.parent
CAPS = sorted(name for name in vars(limits) if name.startswith("MAX_"))


def _zeros(n):
    return {"p": 2, "m": 1, "rows": [[0] * n for _ in range(n)]}


# cap -> the first input past it: an argv, or a scenario run through `run`
_PAST_THE_CAP = {
    # 1031^2 is the smallest p^m, m >= 2, above 2^20
    "MAX_FIELD_ORDER": {"mode": "partition", "op": "theta", "partition": "2,1",
                        "p": 1031, "m": 2},
    # the primality test is exact below its cap, so the cap itself is refused
    "MAX_PRIMALITY_N": ["partition", "theta", "2,1", "--p", str(limits.MAX_PRIMALITY_N)],
    "MAX_CYCLIC_ORDER": {"mode": "cohomology", "op": "cyclic", "order": 4097,
                         "sigma": _zeros(1)},
    "MAX_INVOLUTION_N": ["cohom", "involution", "--n", "13"],
    "MAX_MATRIX_DIM": {"mode": "taylor", "op": "check-type", "matrix": _zeros(13)},
    "MAX_PLACES": {"mode": "ledger", "lie": {"gn": 1}, "deg_F": 1,
                   "places": [{"kind": "arch"}] * 10_001},
    "MAX_LEDGER_INT": ["gn-audit", "--n", "1000001", "--degF", "1", "--ell", "1"],
    "MAX_PARTITION_N": ["partition", "conjugate", "81"],
    "MAX_VERIFY_N": ["verify-all", "--max-n", "13"],
    "MAX_GROUP_ORDER": ["density", "--gamma", "Z5041", "--k", "1"],
    "MAX_SYMMETRIC_N": ["density", "--gamma", "S7", "--k", "1"],
    "MAX_DENSITY_K": ["density", "--gamma", "trivial", "--k", "65"],
    "MAX_THRESHOLD_N": ["taylor", "threshold", "--q", "2", "--n", "9"],
    # bit_length(2^14000) * 1! = 14001 bits
    "MAX_THRESHOLD_BITS": {"mode": "taylor", "op": "threshold", "q": 2**14000, "n": 1},
}


def _refusal(case, tmp_path, capsys) -> str:
    """The exit-2 error that ``case`` ends in."""
    if isinstance(case, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_INVALID
        report = json.loads(capsys.readouterr().out)
        assert report["invalid"] is True
        return report["error"]
    assert main(case) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


def test_every_case_names_a_cap():
    assert set(_PAST_THE_CAP) <= set(CAPS)


@pytest.mark.parametrize("name", CAPS)
def test_the_first_value_past_each_cap_exits_two_and_names_it(name, tmp_path, capsys):
    assert name in _PAST_THE_CAP, f"{name} has no past-the-cap case"
    error = _refusal(_PAST_THE_CAP[name], tmp_path, capsys)
    assert f"{name} = {getattr(limits, name)}" in error


@pytest.mark.parametrize("module, name", [
    (ff, "MAX_FIELD_ORDER"),
    (ff, "MAX_PRIMALITY_N"),
    (partitions, "MAX_VERIFY_N"),
    (density, "MAX_GROUP_ORDER"),
    (density, "MAX_SYMMETRIC_N"),
    (density, "MAX_DENSITY_K"),
    (taylor, "MAX_THRESHOLD_N"),
    (taylor, "MAX_THRESHOLD_BITS"),
])
def test_old_names_are_aliases_of_the_caps(module, name):
    assert getattr(module, name) == getattr(limits, name)


def test_cli_scenario_error_is_the_limits_one():
    assert cli.ScenarioError is limits.ScenarioError
    assert issubclass(limits.ScenarioError, ValueError)


def test_limits_imports_nothing_from_the_package():
    tree = ast.parse((ROOT / "src" / "defring_audit" / "limits.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("defring_audit")
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("defring_audit") for a in node.names)


def test_readme_budget_table_gives_every_cap_with_its_value():
    rows = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
            if line.startswith("| `MAX_")]
    names = [re.match(r"\| `(MAX_\w+)`", row).group(1) for row in rows]
    assert sorted(names) == CAPS
    for name, row in zip(names, rows):
        assert f"| {getattr(limits, name)} |" in row, row


# refusals raised by the group builders, the threshold and the lemma check
# themselves: each line ends in its budget's name, after a text that callers
# match on
_NAMED_REFUSALS = {
    "cyclic-order": (["density", "--gamma", "Z5041", "--k", "1"],
                     "error: bad gamma spec: cyclic order out of range"
                     " (MAX_GROUP_ORDER = 5040)\n"),
    "symmetric-degree": (["density", "--gamma", "S7", "--k", "1"],
                         "error: bad gamma spec: symmetric groups are supported for 1 <= n <= 6"
                         " (MAX_SYMMETRIC_N = 6)\n"),
    "elementary-abelian-rank": (
        {"mode": "density", "gamma": {"type": "elementary_abelian_2", "k": 13}, "k": 1},
        "bad gamma spec: elementary abelian rank out of range (MAX_GROUP_ORDER = 5040)"),
    "product-order": (
        {"mode": "density", "k": 1, "gamma": {"type": "product", "factors": [
            "S6", {"type": "elementary_abelian_2", "k": 3}]}},
        "bad gamma spec: product order 5760 exceeds the budget 5040 (MAX_GROUP_ORDER = 5040)"),
    "threshold-n": (["taylor", "threshold", "--q", "2", "--n", "9"],
                    "error: n must be in [1, 8] (MAX_THRESHOLD_N = 8)\n"),
    "verify-lemma-n": (["partition", "verify-lemma", "--n", "13"],
                       "error: lemma verification supports 1 <= n <= 12 (MAX_VERIFY_N = 12)\n"),
}


@pytest.mark.parametrize("case", list(_NAMED_REFUSALS))
def test_group_and_threshold_refusals_name_their_budget(case, tmp_path, capsys):
    given, line = _NAMED_REFUSALS[case]
    assert _refusal(given, tmp_path, capsys) == line

