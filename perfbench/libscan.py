"""Library runner of the ``library-scan`` workload.

Usage: ``PYTHONPATH=src python3 perfbench/libscan.py calls.json``

Imports ``defring_audit`` (never the CLI), runs each call of the input file
in order in this one process, and prints a JSON list with one record per
call: the call name, its returned value, the time the call took and the
time of a fixed reference loop run just before it.  The library functions
are looked up on their modules at call time, so a tracer that replaces them
is seen.
"""

from __future__ import annotations

import json
import sys
import time

from defring_audit import density, ff, taylor


def _matrix(call) -> ff.MatrixFF:
    return ff.MatrixFF.from_rows(ff.mk_field(call["p"], call["m"]), call["rows"])


def _jsonable_fraction(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def reference_s() -> float:
    """Time of a fixed loop that runs no code of the program.  The speed of
    a process drifts while it runs, and the loop slows with it, so the
    benchmark scales each call's time by the loop times around it."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    {(i, i % 7): [i] * 3 for i in range(300)}  # and some allocation, as the calls do
    return time.perf_counter() - start


def run(calls, before_item=None) -> list[dict]:
    groups: dict[str, object] = {}
    lattices: dict[str, list] = {}

    def group(name):
        if name not in groups:
            groups[name] = density.build_group(name)
        return groups[name]

    out = []
    for index, call in enumerate(calls):
        if before_item is not None:
            before_item(index)
        reference = reference_s()
        kind = call["call"]
        if kind == "roots":
            M = _matrix(call)
            start = time.perf_counter()
            field, roots = ff.eigenvalues_in_splitting_field(M)
            elapsed = time.perf_counter() - start
            value = {"p": field.p, "m": field.m, "modulus": list(field.modulus),
                     "roots": list(roots)}
        elif kind == "qpower":
            M = _matrix(call)
            start = time.perf_counter()
            value = taylor.eigenvalue_qpower_stable(M, call["q"])
            elapsed = time.perf_counter() - start
        elif kind == "all_subgroups":
            gamma = group(call["group"])
            start = time.perf_counter()
            subgroups = density.all_subgroups(gamma)
            elapsed = time.perf_counter() - start
            lattices[call["group"]] = subgroups
            value = [sorted(h) for h in subgroups]
        elif kind == "certificate":
            gamma = group(call["group"])
            h = lattices[call["group"]][call["subgroup"]]
            problem = density.SplitDensityProblem(gamma, h, call["k"])
            start = time.perf_counter()
            cert = density.bound_certificate(problem)
            elapsed = time.perf_counter() - start
            value = {"density": _jsonable_fraction(cert.density),
                     "bound": _jsonable_fraction(cert.bound),
                     "witness_count": cert.witness_count, "holds": cert.holds}
        else:
            raise ValueError(f"unknown library call {kind!r}")
        out.append({"call": kind, "value": value, "elapsed_s": elapsed,
                    "reference_s": reference})
    return out


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        calls = json.load(fh)
    print(json.dumps(run(calls)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
