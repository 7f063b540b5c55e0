"""The benchmark's definition: workloads, metrics, units and bounds.

``python3 perfbench/run.py --write-spec`` writes this as BENCHMARK.json.
"""

from __future__ import annotations

from tracer import per_layer_names
from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 28

# name -> (unit, bound: the share of the parent's median it may worsen by).
# The times are scaled by the host's speed (run.REFERENCE_S), but scaling
# removes only part of a drift that reaches 30% between runs a minute apart,
# so the time bounds stay wide; set-up time gets the widest.
END_TO_END = {
    "wall_s": ("s", 0.24),
    "setup_s": ("s", 0.25),
    "item_p50_ms": ("ms", 0.24),
    "item_p90_ms": ("ms", 0.24),
    "peak_rss_mb": ("MB", 0.1),
}


def per_layer_unit(name: str) -> str:
    if name == "cli.report_bytes":
        return "bytes"
    if name == "bench.trace_overhead":
        return "ratio"
    if "_ns." in name:
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            # every per-layer count is work done, so fewer is better too
            {"name": name, "unit": per_layer_unit(name), "better": "lower"}
            for name in per_layer_names()
        ],
    }
