"""Reports byte for byte: seed 0 of the benchmark's workloads against golden.json.

``perfbench/golden.json`` pins a digest of every item's report, recorded
from the seed commit.  A result record that reached a report as a tuple
would print as a JSON list; this makes tier-1 fail on it too, not only the
benchmark.  A report is built once, from values that are already JSON, so
each one must also survive a JSON round trip unchanged.  The runner, the
scenarios and the digests are read, never written.
"""

import json
import sys
from pathlib import Path

import pytest

from defring_audit import partitions
from defring_audit.cli import run_scenario_obj

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["batch-extfield", "batch-groups", "library-scan"])
def test_seed_0_reports_match_the_pinned_digests(tmp_path, workload):
    golden = bench.load_golden()[workload]["0"]
    plan = workloads.generate(workload, 0)
    input_path = tmp_path / "input.json"
    input_path.write_bytes(workloads.input_bytes(plan))
    bench.WORK.mkdir(exist_ok=True)
    run = bench.judge(plan, golden, bench.workload_argv(plan, input_path), 120)
    assert len(run.digests) == len(golden) == len(plan.expect)
    assert all(run.verdicts), [i for i, ok in enumerate(run.verdicts) if not ok]


def _assert_plain_json(report):
    # a tuple comes back a list, a Fraction or a set does not encode at all
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("workload", ["batch-extfield", "batch-groups"])
def test_seed_0_reports_hold_json_values_only(workload):
    for scenario in workloads.generate(workload, 0).data:
        _assert_plain_json(run_scenario_obj(scenario))


def test_a_ledger_report_with_its_dual_check_holds_json_values_only():
    report = run_scenario_obj({
        "mode": "ledger", "lie": {"gn": 2}, "deg_F": 1,
        "places": [{"kind": "S", "condition": "min"},
                   {"kind": "ell", "condition": "sm", "local_degree": 1},
                   {"kind": "arch"}],
        "h0_global": 0, "h0_global_dual": 0, "h0_locals": [0, 0, 1],
    })
    assert "dual_selmer" in report["verdicts"] and report["diagnostics"]["places"]
    _assert_plain_json(report)


def test_a_failed_lemma_report_holds_json_values_only(monkeypatch):
    # the lemma holds, so a failure only comes from a stand-in
    failed = partitions.LemmaReport(1, (("2", "1,1", "2"),))
    monkeypatch.setattr(partitions, "verify_conjugation_lemma", lambda n: failed)
    report = run_scenario_obj({"mode": "partition", "op": "verify-lemma", "n": 2})
    assert report["ok"] is False
    assert report["verdicts"]["failures"] == [["2", "1,1", "2"]]
    _assert_plain_json(report)
