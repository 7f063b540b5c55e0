"""Benchmark of defring-audit: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-golden 0-9   # pin per-item digests

The workloads are defined in ``workloads.py``; the program only ever sees
the generated input files.  Every run drives one program process at a time
(no threads), with ``PYTHONPATH=src`` and without ``DEFRING_AUDIT_THREADS``.

``--trace 0`` measures the end-to-end metrics: the workload is run again and
again in fresh processes for about S seconds, and the medians over those
processes of the wall time, the peak RSS and the per-item latency
percentiles of each process are reported.  ``setup_s`` is the median time of a fresh
interpreter that imports the entry module and exits, timed before each
workload process (at least seven times).  The host's speed drifts by tens
of percent within a minute, so every time is scaled by the host's speed
at that moment, taken from a fixed reference suite timed between the
processes (see ``REFERENCE_S``), and every figure is a median over the
whole run.  The unscaled medians are printed too.

``--trace 1`` runs the workload untraced for S/2 seconds, then once under
``launch.py``, which wraps every layer's public functions and records spans
and counters; the per-layer metrics come from that one traced run, and the
trace is kept in ``perfbench/.work``.

Every output item is checked: against invariants computed here for any
seed, and against a digest recorded from the seed commit for the pinned
seeds in ``golden.json``.  The traced reports must match the untraced ones
apart from ``elapsed_s``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end well inside three minutes
SETUP_SAMPLES = 7

# The speed of this shared host drifts by 15-30% within a minute, and the
# runs on it are pinned to one CPU (pin_to_one_cpu).  So each timing is
# scaled by REFERENCE_S over the time of a fixed reference suite taken on
# that CPU just before and after it: the times reported are those of a host
# on which the suite takes REFERENCE_S (its median on the 2-core host where
# the bounds were set).
REFERENCE_S = 0.1
# The library runner also times its own reference loop before every call
# (libscan.reference_s); its calls are scaled by ITEM_REFERENCE_S (the loop's
# time when the suite takes REFERENCE_S) over the local median of those loop
# times instead, which follows the speed of that one process as it drifts.
ITEM_REFERENCE_S = 0.00093
REFERENCE_LOOP = "s = 0\nfor i in range(150000):\n    s += i * i % 7\n"
REFERENCE_ARGVS = (
    ["-I", "-S", "-c", "pass"],
    ["-I", "-S", "-c", REFERENCE_LOOP],
    ["-I", "-c", "import fractions, itertools, json"],
)


class ProgramMissing(RuntimeError):
    pass


@dataclass
class Run:
    """One workload process: its cost and the verdict on each item."""

    wall_s: float
    rss_mb: float
    latencies: list[float]
    verdicts: list[bool]
    digests: list[str]
    stdout_bytes: int
    scale: float = 1.0  # this process's speed scale (see repeat)
    item_scales: list[float] | None = None  # from the process's own reference loops

    def scaled_latencies(self) -> list[float]:
        scales = self.item_scales or [self.scale] * len(self.latencies)
        return [lat * scale for lat, scale in zip(self.latencies, scales)]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DEFRING_AUDIT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], timeout: float) -> tuple[int, bytes, float, float]:
    """Run a child to completion: (exit code, stdout, wall seconds, peak RSS in MB).

    The child is reaped with ``wait4`` so its own resource usage is read;
    past ``timeout`` it is killed and the exit code is negative.  Its
    standard error passes through, so a traceback shows.
    """
    with tempfile.TemporaryFile(dir=WORK) as out:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), wall, usage.ru_maxrss * 1024 / 1e6


def workload_argv(plan: workloads.Plan, input_path: Path) -> list[str]:
    """The program's own argv for a workload (without the interpreter)."""
    if plan.workload == "verify-all":
        return ["-m", "defring_audit.cli", "--seed", str(plan.seed), "verify-all", "--max-n", "10"]
    if plan.workload == "library-scan":
        return [str(BENCH / "libscan.py"), str(input_path)]
    return ["-m", "defring_audit.cli", "run", str(input_path)]


def traced_argv(plan: workloads.Plan, input_path: Path, trace_path: Path) -> list[str]:
    head = [str(BENCH / "launch.py"), str(trace_path), str(plan.seed)]
    if plan.workload == "library-scan":
        return head + ["lib", str(input_path)]
    return head + ["cli"] + workload_argv(plan, input_path)[2:]


def entry_module(workload: str) -> str:
    return "defring_audit" if workload == "library-scan" else "defring_audit.cli"


def judge(plan, golden, argv, timeout) -> Run:
    code, stdout, wall, rss = spawn([sys.executable] + argv, timeout)
    try:
        items = workloads.parse_output(plan, stdout.decode())
    except (ValueError, UnicodeDecodeError):
        items = []  # a traceback or a kill: every item counts as failed
    verdicts = workloads.check_items(plan, items, golden)
    if code != 0 and all(verdicts):
        verdicts[-1] = False
    references = [item.reference_s for item in items]
    return Run(
        wall_s=wall,
        rss_mb=rss,
        latencies=[item.elapsed_s for item in items],
        verdicts=verdicts,
        digests=[workloads.digest(item.payload) for item in items],
        stdout_bytes=len(stdout),
        item_scales=local_scales(references) if items and None not in references else None,
    )


def local_scales(references: list[float], reach: int = 10) -> list[float]:
    """Per-item scales from the reference loop timed before each item: the
    median of the loop times within ``reach`` items smooths the loop's own
    noise but follows the process's speed as it drifts."""
    return [ITEM_REFERENCE_S / statistics.median(references[max(0, i - reach):i + reach + 1])
            for i in range(len(references))]


def repeat(plan, golden, argv, seconds, deadline, setup_module=None):
    """Run the workload in fresh processes for about ``seconds``.

    The reference suite is timed before the first process and after every
    one; each process is scaled by the mean of the two suites around it
    (and by its own loop times, where it has them).
    With ``setup_module``, a fresh interpreter that only imports that module
    is timed before each workload process, so the set-up samples spread over
    the whole run like the workload samples, and is scaled by the same two
    suites; returns (runs, set-up samples as (seconds, scale) pairs).
    """
    runs, setups = [], []
    if setup_module:
        setup_argv = [sys.executable, "-c", f"import {setup_module}"]
        time_setup(setup_argv, deadline)  # the first import writes the bytecode caches
    before = reference_s(deadline)
    start = time.perf_counter()
    while True:
        setup = time_setup(setup_argv, deadline) if setup_module else None
        run = judge(plan, golden, argv, deadline - time.perf_counter())
        after = reference_s(deadline)
        host = 2 * REFERENCE_S / (before + after)
        run.scale = host
        if run.item_scales:
            # the process timed its own loop too: two estimates of its speed
            # with independent errors, so their geometric mean follows it best
            run.scale = math.sqrt(host * statistics.median(run.item_scales))
        before = after
        runs.append(run)
        if setup is not None:
            setups.append((setup, host))
        typical = statistics.median(run.wall_s for run in runs)
        now = time.perf_counter()
        if now - start + typical / 2 >= seconds or deadline - now < 2 * typical:
            break
    while setup_module and len(setups) < SETUP_SAMPLES:
        setup = time_setup(setup_argv, deadline)
        after = reference_s(deadline)
        setups.append((setup, 2 * REFERENCE_S / (before + after)))
        before = after
    return runs, setups


def reference_s(deadline) -> float:
    """Time of the reference suite: a loop in this interpreter and three
    isolated interpreters that start, loop, and import from the standard
    library.  It runs no code of the program."""
    start = time.perf_counter()
    exec(REFERENCE_LOOP, {})
    total = time.perf_counter() - start
    for args in REFERENCE_ARGVS:
        code, _, wall, _ = spawn([sys.executable] + args, deadline - time.perf_counter())
        if code != 0:
            raise ProgramMissing(f"cannot run the reference {' '.join(args)}")
        total += wall
    return total


def time_setup(argv, deadline) -> float:
    code, _, wall, _ = spawn(argv, deadline - time.perf_counter())
    if code != 0:
        raise ProgramMissing(f"cannot run {' '.join(argv[1:])}")
    return wall


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runs: list[Run], setups: list[tuple[float, float]]) -> dict[str, float]:
    """Medians over the run's processes of the scaled times; item
    percentiles are taken per process."""
    across = statistics.median
    timed = [run.scaled_latencies() for run in runs if len(run.latencies) >= 2] or [[0, 0]]
    return {
        "wall_s": across(run.wall_s * run.scale for run in runs),
        "setup_s": across(setup * scale for setup, scale in setups),
        "item_p50_ms": 1e3 * across(percentile(lat, 50) for lat in timed),
        "item_p90_ms": 1e3 * across(percentile(lat, 90) for lat in timed),
        "peak_rss_mb": across(run.rss_mb for run in runs),
    }


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(attempted, failed, metrics) of one benchmark run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    plan = workloads.generate(workload, seed)
    golden = load_golden().get(workload, {}).get(str(seed))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        input_path = Path(tmp) / "input.json"
        input_path.write_bytes(workloads.input_bytes(plan))
        argv = workload_argv(plan, input_path)
        if not trace:
            runs, setups = repeat(plan, golden, argv, seconds, deadline, entry_module(workload))
            metrics = end_to_end(runs, setups)
            print(f"  unscaled medians: wall_s = {statistics.median(r.wall_s for r in runs):.6g} s, "
                  f"setup_s = {statistics.median(s for s, _ in setups):.6g} s; "
                  f"scale = {statistics.median(r.scale for r in runs):.4g}, "
                  f"{len(runs)} processes")
        else:
            runs, _ = repeat(plan, golden, argv, seconds / 2, deadline)
            trace_path = WORK / f"trace-{workload}-{seed}.json"
            trace_path.unlink(missing_ok=True)
            traced = judge(plan, golden, traced_argv(plan, input_path, trace_path),
                           deadline - time.perf_counter())
            # traced reports must equal untraced ones apart from elapsed_s
            traced.verdicts = [ok and d == u for ok, d, u in
                               zip(traced.verdicts, traced.digests, runs[0].digests)]
            traced.verdicts += [False] * (len(plan.expect) - len(traced.verdicts))
            runs.append(traced)
            try:
                record = json.loads(trace_path.read_text())
            except (OSError, ValueError):  # the traced process died before writing
                record = {"spans": [], "counts": {}, "kernels": {}, "import_s": 0.0}
                traced.verdicts = [False] * len(traced.verdicts)
            metrics = tracer.per_layer_metrics(record)
            metrics["cli.report_bytes"] = traced.stdout_bytes if workload != "library-scan" else 0
            metrics["bench.trace_overhead"] = (
                traced.wall_s / statistics.median(run.wall_s for run in runs[:-1]))
    attempted = sum(len(run.verdicts) for run in runs)
    failed = sum(not ok for run in runs for ok in run.verdicts)
    return attempted, failed, metrics


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU, so the reference suites
    and the workload processes they scale share that CPU's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine_facts() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def record_golden(seeds: range) -> None:
    """Pin the per-item digests of the current program for the given seeds."""
    golden = load_golden()
    WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            plan = workloads.generate(workload, seed)
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                input_path = Path(tmp) / "input.json"
                input_path.write_bytes(workloads.input_bytes(plan))
                run = judge(plan, None, workload_argv(plan, input_path), RUN_LIMIT_S)
            if not all(run.verdicts):
                raise SystemExit(f"{workload} seed {seed}: outputs fail their checks")
            golden.setdefault(workload, {})[str(seed)] = run.digests
            print(f"{workload} seed {seed}: {len(run.digests)} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-golden", metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (ROOT / "src" / "defring_audit" / "__init__.py").is_file():
        print("error: no program to measure at src/defring_audit", file=sys.stderr)
        return 2
    if args.record_golden:
        first, last = (int(x) for x in args.record_golden.split("-"))
        record_golden(range(first, last + 1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    pin_to_one_cpu()
    print(f"machine: {json.dumps(machine_facts())}")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            attempted, failed, metrics = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"workload {name}, seed {args.seed}: {attempted} items attempted, {failed} failed")
        total["correct"] = total["correct"] and failed == 0
        total["attempted"] += attempted
        total["failed"] += failed
        for metric, value in metrics.items():
            unit = spec.END_TO_END[metric][0] if metric in spec.END_TO_END else spec.per_layer_unit(metric)
            print(f"  {metric} = {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            total["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
