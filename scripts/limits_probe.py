#!/usr/bin/env python3
"""Fresh-process cost of the slowest known input at the caps of ``limits``.

Each case runs in its own Python process, this script re-run with ``--child``.
The launcher imports no part of the library, since a child's ``ru_maxrss``
also counts the memory of the process that spawned it.  One row per case gives
the result (a result over 24 characters as 12 hex digits of its SHA-256), the
wall time of the process, its peak RSS (``ru_maxrss`` from ``os.wait4``) and
its exit code.
Usage: PYTHONPATH=src python3 scripts/limits_probe.py [--case S6 ...]
"""

import argparse
import os
import subprocess
import sys
import time

# irreducible over F_2, coefficients lowest degree first
IRREDUCIBLE = {
    3: (1, 1, 0, 1),  # T^3 + T + 1
    4: (1, 1, 0, 0, 1),  # T^4 + T + 1
    5: (1, 0, 1, 0, 0, 1),  # T^5 + T^2 + 1
}


def _hilbert(n, p):
    """The n x n Hilbert matrix mod p, entries (i + j + 1)^-1: dense and symmetric."""
    return [[pow(i + j + 1, -1, p) for j in range(n)] for i in range(n)]


def _density(gamma):
    return {"mode": "density", "gamma": gamma, "k": 1}


def _product(*factors):
    return _density({"type": "product", "factors": list(factors)})


# name -> (the cap it probes, its input, the verdict it prints).  The input is
# a CLI argv, a scenario (run through `run` on a file the child writes), or the
# factor degrees of an F_2 matrix for the splitting-field search, which no CLI
# mode reaches.  A CLI case without a verdict prints the first word of its
# last line.  The two cheapest come first.
CASES = {
    "split4+3": ("MAX_FIELD_ORDER", (4, 3), None),
    "S6": ("MAX_SYMMETRIC_N", _density("S6"), "density"),
    "Z2520": ("MAX_GROUP_ORDER", _density("Z2520"), "density"),
    "Z5040": ("MAX_GROUP_ORDER", _density("Z5040"), "density"),
    "Z2xZ2520": ("MAX_GROUP_ORDER", _product("Z2", "Z2520"), "density"),
    "S6xZ7": ("MAX_GROUP_ORDER", _product("S6", "Z7"), "density"),
    "S5xZ42": ("MAX_GROUP_ORDER", _product("S5", "Z42"), "density"),
    "S4xZ210": ("MAX_GROUP_ORDER", _product("S4", "Z210"), "density"),
    "(Z/2)^12": ("MAX_GROUP_ORDER", _density({"type": "elementary_abelian_2", "k": 12}),
                 "density"),
    "Z2xS6": ("MAX_GROUP_ORDER", _product("Z2", "S6"), "density"),
    "split5+3": ("MAX_FIELD_ORDER", (5, 3), None),
    "split5+4": ("MAX_FIELD_ORDER", (5, 4), None),
    # T^2 + T + 1 gives T order 3, so the tables are walked as 342,056 cosets
    "F1013^2": ("MAX_FIELD_ORDER", {"mode": "partition", "op": "theta", "partition": "2,1",
                                    "p": 1013, "m": 2}, "theta"),
    # a dense symmetric J makes the 144 x 144 sigma dense: the largest
    # elimination the CLI admits
    "involution12": ("MAX_INVOLUTION_N", {"mode": "cohomology", "op": "involution", "n": 12,
                                          "J": {"p": 1021, "m": 1, "rows": _hilbert(12, 1021)}},
                     "minus_eigenspace_dim"),
    "gn-audit": ("MAX_PLACES", ["gn-audit", "--n", "1000000", "--degF", "1", "--s", "9998",
                              "--ell", "1"], "smooth"),
    "theta80": ("MAX_PARTITION_N", ["partition", "theta", "80"], "theta"),
    "verify12": ("MAX_VERIFY_N", ["verify-all", "--max-n", "12"], None),
}


def _digest(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _splitting(degrees):
    """The splitting field, the root count and a digest of the roots."""
    from defring_audit.ff import MatrixFF, block_diag, eigenvalues_in_splitting_field, mk_field

    blocks = []
    for d in degrees:
        # the companion matrix of the irreducible polynomial of degree d
        rows = [[int(i == j + 1) for j in range(d)] for i in range(d)]
        for i, c in enumerate(IRREDUCIBLE[d][:d]):
            rows[i][d - 1] = -c
        blocks.append(MatrixFF.from_rows(mk_field(2), rows))
    field, roots = eigenvalues_in_splitting_field(block_diag(blocks))
    return f"{field!r}/{len(roots)}/{_digest(repr((field.modulus, roots)))}"


def run_case(name):
    """Child: print the case's result; return its exit code."""
    # imported here, so that the launcher's resident set stays small
    import contextlib
    import io
    import json
    import tempfile

    _, given, verdict = CASES[name]
    if isinstance(given, tuple):
        print(_splitting(given))
        return 0
    from defring_audit.cli import main

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        if isinstance(given, dict):
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(given, fh)
            given = ["run", path]
        code = main(given)
    if code:  # a refused input prints no result
        return code
    text = out.getvalue()
    if verdict:
        result = str(json.loads(text)["verdicts"][verdict])
    else:
        result = text.splitlines()[-1].split()[0]
    if len(result) > 24:
        result = _digest(result)
    print(result)
    return code


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
    result = (out.split() or ["-"])[0]
    # ru_maxrss is in KiB on Linux
    print(f"{name:>12} {CASES[name][0]:>16} {result:>21} {wall:>7.2f} "
          f"{usage.ru_maxrss / 1024:>9.1f} {proc.returncode:>4}")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", action="append", choices=CASES)
    ap.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return run_case(args.child)
    print(f"{'case':>12} {'cap':>16} {'result':>21} {'wall_s':>7} {'maxrss_MB':>9} {'exit':>4}")
    codes = [probe(name) for name in args.case or CASES]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
