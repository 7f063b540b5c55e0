#!/usr/bin/env python3
"""Sweep the preset rank-n audit over a small grid and tabulate verdicts.

Usage: python3 scripts/gn_audit_sweep.py [--max-n 4] [--max-degf 3]
"""

import argparse
import itertools

from defring_audit.ledger import gn_audit


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--max-degf", type=int, default=3)
    ap.add_argument("--max-s", type=int, default=2)
    args = ap.parse_args()

    header = f"{'n':>2} {'degF':>4} {'#S':>3} {'ell':>10} {'gamma':>6} {'r0':>5} {'margin':>6} {'smooth':>6} {'dual=0':>6}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        for deg_f in range(1, args.max_degf + 1):
            for n_ell in range(1, deg_f + 1):
                for degrees in compositions(deg_f, n_ell):
                    for s in range(0, args.max_s + 1):
                        v, _, _ = gn_audit(n, deg_f, s, list(degrees))
                        print(
                            f"{n:>2} {deg_f:>4} {s:>3} {str(list(degrees)):>10} "
                            f"{v['gamma']:>6} {v['r0']:>5} {v['margin']:>6} "
                            f"{str(v['smooth']):>6} {str(v['dual_selmer']['vanishes']):>6}"
                        )


if __name__ == "__main__":
    main()
