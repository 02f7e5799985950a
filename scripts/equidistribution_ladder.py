#!/usr/bin/env python3
"""Star discrepancy of the full vertical angle sample along a prime ladder.

One row per prime, then a `slope` line: the least-squares slope of
log(star discrepancy) against log(p) over the rows printed (about -0.5 on the
default ladder), or `n/a` with fewer than two rows.

Example:
    python scripts/equidistribution_ladder.py --f 0,1 --g 0,1 \
        --primes 1009,10007,100003,1000003
"""

import argparse
import math
import time

import numpy as np

from stlab.family import build_family, check_nondeg_mod_p
from stlab.sato_tate import discrepancy_report
from stlab.traces import angle_sample


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--f", default="0,1")
    ap.add_argument("--g", default="0,1")
    ap.add_argument("--primes", default="1009,10007,100003,1000003")
    args = ap.parse_args()

    fam = build_family([int(c) for c in args.f.split(",")],
                       [int(c) for c in args.g.split(",")])
    print(f"{'p':>8}  {'m':>8}  {'star':>9}  {'interval':>9}  {'bracket':>10}  {'k':>4}  {'sec':>6}")
    points = []
    for p in (int(v) for v in args.primes.split(",")):
        chk = check_nondeg_mod_p(fam, p)
        if not chk.ok:
            print(f"{p:>8}  skipped ({chk.reason})")
            continue
        t0 = time.monotonic()
        sample = angle_sample(fam, p, np.arange(p))
        rep = discrepancy_report(sample)
        points.append((math.log(p), math.log(rep.star)))
        print(f"{p:>8}  {rep.m:>8}  {rep.star:>9.5f}  {rep.interval_bound:>9.5f}"
              f"  {rep.niederreiter_rhs:>10.1f}  {rep.k_used:>4}"
              f"  {time.monotonic() - t0:>6.1f}")
    slope = f"{np.polyfit(*zip(*points), 1)[0]:.4f}" if len(points) > 1 else "n/a"
    print(f"{'slope':>8}  {slope}")


if __name__ == "__main__":
    main()
