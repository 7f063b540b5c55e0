#!/usr/bin/env python3
"""Exact splitting densities over a zoo of base groups, one subgroup per class.

The density does not change when H is conjugated in Gamma, so one row per
conjugacy class of subgroups covers every subgroup; the last column is the
size of the class.  Prints |Gamma|, |H|, k, the closed-form density
1 - N_bad/(|Gamma| 2^(k+1)), the 1 - 1/2^k bound and the class size.
Usage: python3 scripts/density_survey.py [--max-k 3]
"""

import argparse
from fractions import Fraction

from defring_audit.density import (
    SplitDensityProblem,
    bound_certificate,
    cyclic_group,
    subgroup_classes,
    symmetric_group,
    trivial_group,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-k", type=int, default=3)
    args = ap.parse_args()

    zoo = [trivial_group(), cyclic_group(2), cyclic_group(3)]
    zoo += [symmetric_group(n) for n in (3, 4, 5, 6)]
    print(f"{'Gamma':>8} {'|H|':>4} {'k':>2} {'density':>10} {'bound':>8} {'holds':>5} "
          f"{'class':>5}")
    for gamma in zoo:
        for h, size in subgroup_classes(gamma):
            for k in range(1, args.max_k + 1):
                cert = bound_certificate(SplitDensityProblem(gamma, h, k))
                print(
                    f"{gamma.name:>8} {len(h):>4} {k:>2} "
                    f"{str(cert.density):>10} {str(cert.bound):>8} {str(cert.holds):>5} "
                    f"{size:>5}"
                )
                assert cert.density >= 1 - Fraction(1, 2**k)


if __name__ == "__main__":
    main()
