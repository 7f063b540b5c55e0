#!/usr/bin/env python3
"""Fresh-process cost of a density scenario on nine groups of order up to 5040.

Each case runs ``{"mode": "density", "gamma": ..., "k": 1}`` (H trivial)
through ``run_scenario_obj`` in its own Python process.  This script imports
no part of the library itself, so it is the small launcher: a child's
``ru_maxrss`` also counts the memory of the process that spawned it.  The
table gives the density, the wall time of the process, its peak RSS
(``ru_maxrss`` from ``os.wait4``) and its exit code.
Usage: PYTHONPATH=src python3 scripts/density_probe.py [--group S6 ...]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def _product(*factors):
    return {"type": "product", "factors": list(factors)}


GROUPS = {
    "Z2520": "Z2520",
    "Z5040": "Z5040",
    "Z2xZ2520": _product("Z2", "Z2520"),
    "S6xZ7": _product("S6", "Z7"),
    "S5xZ42": _product("S5", "Z42"),
    "S4xZ210": _product("S4", "Z210"),
    "(Z/2)^12": {"type": "elementary_abelian_2", "k": 12},
    "Z2xS6": _product("Z2", "S6"),
    "S6": "S6",
}


def run_case(name):
    """Child: print the density of the scenario."""
    from defring_audit.cli import run_scenario_obj

    report = run_scenario_obj({"mode": "density", "gamma": GROUPS[name], "k": 1})
    print(report["verdicts"]["density"])


def probe(name):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", name], stdout=subprocess.PIPE, text=True
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for the child again
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    density = (out.split() or ["-"])[0]
    # ru_maxrss is in KiB on Linux
    print(f"{name:>9} {density:>12} {wall:>8.2f} {usage.ru_maxrss / 1024:>9.1f} "
          f"{proc.returncode:>4}")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--group", action="append", choices=GROUPS)
    ap.add_argument("--child", choices=GROUPS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        run_case(args.child)
        return 0
    print(f"{'group':>9} {'density':>12} {'wall_s':>8} {'maxrss_MB':>9} {'exit':>4}")
    codes = [probe(name) for name in args.group or GROUPS]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
