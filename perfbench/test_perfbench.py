"""Tests of the benchmark's own code: generators, checks, trace arithmetic."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["batch-extfield", "batch-groups", "library-scan"])
def test_generator_is_deterministic(workload):
    first = workloads.input_bytes(workloads.generate(workload, 7))
    again = workloads.input_bytes(workloads.generate(workload, 7))
    other = workloads.input_bytes(workloads.generate(workload, 8))
    assert first == again
    assert first != other
    assert len(workloads.generate(workload, 7).expect) >= 100


def test_generated_helpers_agree_with_their_definitions():
    assert workloads.conjugate([3, 1]) == [2, 1, 1]
    assert workloads.lex_rank([0, 1, 2]) == 0
    assert workloads.lex_rank([2, 1, 0]) == 5
    assert workloads.cycle_notation([1, 2, 0, 4, 3]) == "(123)(45)"
    assert workloads.is_irreducible([1, 1, 1], 2)  # T^2 + T + 1
    assert not workloads.is_irreducible([1, 0, 1], 2)  # (T + 1)^2


def test_self_times_on_a_synthetic_span_tree():
    # cli.main [0, 10] -> ff.mk_field [1, 3]
    #                  -> density.bound_certificate [4, 9] -> density.subgroup_closure [5, 6]
    #                                                      -> ff.mat_rank [7, 8]
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("ff.mk_field", 1.0, 3.0, 0, 0),
        ("density.bound_certificate", 4.0, 9.0, 0, 1),
        ("density.subgroup_closure", 5.0, 6.0, 2, 1),
        ("ff.mat_rank", 7.0, 8.0, 2, 1),
    ]
    got = tracer.self_times(spans)
    assert got == {"cli": 3.0, "ff": 3.0, "density": 4.0}
    assert sum(got.values()) == 10.0
    totals = tracer.function_times(spans)
    assert totals["density.subgroup_closure"] == 1.0
    assert totals["density.bound_certificate"] == 5.0


def test_function_times_count_only_outermost_calls():
    spans = [
        ("ff.charpoly", 0.0, 4.0, -1, None),
        ("ff.charpoly", 1.0, 2.0, 0, None),
        ("ff.charpoly", 5.0, 6.0, -1, None),
    ]
    assert tracer.function_times(spans) == {"ff.charpoly": 5.0}
    assert tracer.self_times(spans) == {"ff": 5.0}


def test_per_layer_metrics_cover_every_listed_name():
    trace = {"spans": [("acceptance.run_criterion", 0.0, 2.0, -1, "c03")],
             "counts": {"ff.matmul.calls": 4}, "kernels": {}, "import_s": 0.5}
    metrics = tracer.per_layer_metrics(trace)
    assert set(metrics) == set(tracer.per_layer_names())
    assert metrics["acceptance.c03_s"] == 2.0
    assert metrics["acceptance.self_s"] == 2.0
    assert metrics["ff.matmul.calls"] == 4
    assert metrics["cli.import_s"] == 0.5


def test_end_to_end_scales_each_process_by_its_reference():
    slow = bench.Run(wall_s=2.0, rss_mb=10.0, latencies=[0.002, 0.004, 0.006],
                     verdicts=[True] * 3, digests=[], stdout_bytes=0, scale=0.5)
    fast = bench.Run(wall_s=1.0, rss_mb=12.0, latencies=[0.001, 0.002, 0.003],
                     verdicts=[True] * 3, digests=[], stdout_bytes=0, scale=1.0)
    metrics = bench.end_to_end([slow, fast, fast], [(0.2, 0.5), (0.1, 1.0), (0.3, 0.5)])
    assert metrics["wall_s"] == 1.0
    assert metrics["setup_s"] == 0.1
    assert metrics["item_p50_ms"] == pytest.approx(2.0)
    assert metrics["item_p90_ms"] == pytest.approx(2.8)
    assert metrics["peak_rss_mb"] == 12.0


def test_item_scales_follow_the_local_reference_times():
    references = [0.001] * 30 + [0.002] * 30
    scales = bench.local_scales(references)
    assert scales[:20] == [bench.ITEM_REFERENCE_S / 0.001] * 20
    assert scales[-20:] == [bench.ITEM_REFERENCE_S / 0.002] * 20
    run = bench.Run(wall_s=1.0, rss_mb=1.0, latencies=[0.004] * 60, verdicts=[True] * 60,
                    digests=[], stdout_bytes=0, scale=7.0, item_scales=scales)
    assert run.scaled_latencies()[0] == 0.004 * scales[0]


def _small_plan(workload, seed, count):
    plan = workloads.generate(workload, seed)
    plan.data = plan.data[:count]
    plan.expect = plan.expect[:count]
    return plan


@pytest.mark.parametrize("workload,count", [("batch-extfield", 12), ("library-scan", 14)])
def test_traced_and_untraced_reports_agree(tmp_path, workload, count):
    bench.WORK.mkdir(exist_ok=True)
    plan = _small_plan(workload, 0, count)
    input_path = tmp_path / "input.json"
    input_path.write_bytes(workloads.input_bytes(plan))
    trace_path = tmp_path / "trace.json"
    plain = bench.judge(plan, None, bench.workload_argv(plan, input_path), 120)
    traced = bench.judge(plan, None, bench.traced_argv(plan, input_path, trace_path), 120)
    assert all(plain.verdicts) and all(traced.verdicts)
    assert plain.digests == traced.digests
    metrics = tracer.per_layer_metrics(json.loads(trace_path.read_text()))
    assert metrics["ff.mk_field.calls"] > 0


def test_a_corrupted_report_counts_as_an_error(tmp_path):
    bench.WORK.mkdir(exist_ok=True)
    plan = _small_plan("batch-groups", 0, 10)
    input_path = tmp_path / "input.json"
    input_path.write_bytes(workloads.input_bytes(plan))
    code, stdout, _, _ = bench.spawn(
        [sys.executable] + bench.workload_argv(plan, input_path), 120)
    assert code == 0
    reports = json.loads(stdout)
    items = workloads.parse_output(plan, stdout.decode())
    assert all(workloads.check_items(plan, items))

    reports[3]["verdicts"] = {**reports[3]["verdicts"], "extra": 1}
    corrupted = workloads.parse_output(plan, json.dumps(reports))
    golden = [workloads.digest(item.payload) for item in items]
    verdicts = workloads.check_items(plan, corrupted, golden)
    assert verdicts.count(False) == 1 and not verdicts[3]

    reports[5]["ok"] = False
    verdicts = workloads.check_items(plan, workloads.parse_output(plan, json.dumps(reports)))
    assert not verdicts[5]

    assert workloads.check_items(plan, items[:-2]).count(False) == 2
    with pytest.raises(ValueError):
        workloads.parse_output(plan, "Traceback (most recent call last):")


def test_benchmark_json_matches_the_spec():
    path = bench.ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
