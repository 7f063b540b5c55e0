"""Reports byte for byte: seed 0 of the benchmark's workloads against golden.json.

``perfbench/golden.json`` pins a digest of every item's report, recorded
from the seed commit.  A result record that reached the CLI's ``_jsonable``
as a tuple would print as a JSON list; this makes tier-1 fail on it too, not
only the benchmark.  The runner and the digests are read, never written.
"""

import sys
from pathlib import Path

import pytest

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
