#!/usr/bin/env python3
"""Fresh-process cost of the splitting-field search on three F_2 matrices.

Each case is ``block_diag`` of the companion matrices of irreducible
polynomials over F_2 of the listed degrees, so its eigenvalues live in
F_{2^D} with D the lcm of the degrees.  Each case runs in its own Python
process; the table gives the splitting field, the wall time of the
process, its peak RSS (``ru_maxrss`` from ``os.wait4``) and its exit code.
Usage: PYTHONPATH=src python3 scripts/splitting_probe.py [--case 4+3 ...]
"""

import argparse
import hashlib
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
CASES = ("5+4", "5+3", "4+3")


def companion(field, coeffs):
    """Companion matrix of the monic polynomial with these coefficients."""
    from defring_audit.ff import MatrixFF

    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return MatrixFF.from_rows(field, rows)


def run_case(case):
    """Child: print the splitting field, the root count and a digest of the roots."""
    from defring_audit.ff import block_diag, eigenvalues_in_splitting_field, mk_field

    f2 = mk_field(2)
    M = block_diag([companion(f2, IRREDUCIBLE[int(d)]) for d in case.split("+")])
    field, roots = eigenvalues_in_splitting_field(M)
    digest = hashlib.sha256(repr((field.modulus, roots)).encode()).hexdigest()[:12]
    print(f"{field!r} {len(roots)} {digest}")


def probe(case):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", case], stdout=subprocess.PIPE, text=True
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for the child again
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    result = out.split() or ["-", "-", "-"]
    # ru_maxrss is in KiB on Linux
    print(f"{case:>5} {result[0]:>8} {result[1]:>5} {result[2]:>12} {wall:>8.2f} "
          f"{usage.ru_maxrss / 1024:>9.1f} {proc.returncode:>4}")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", action="append", choices=CASES)
    ap.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        run_case(args.child)
        return 0
    print(f"{'case':>5} {'field':>8} {'roots':>5} {'digest':>12} {'wall_s':>8} "
          f"{'maxrss_MB':>9} {'exit':>4}")
    codes = [probe(case) for case in args.case or CASES]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
