#!/usr/bin/env python3
"""Star discrepancy of the full vertical angle sample along a prime ladder.

Example:
    python scripts/equidistribution_ladder.py --f 0,1 --g 0,1 \
        --primes 1009,10007,100003,1000003
"""

import argparse
import time

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
    for p in (int(v) for v in args.primes.split(",")):
        chk = check_nondeg_mod_p(fam, p)
        if not chk.ok:
            print(f"{p:>8}  skipped ({chk.reason})")
            continue
        t0 = time.monotonic()
        sample = angle_sample(fam, p, range(p))
        rep = discrepancy_report(sample)
        print(f"{p:>8}  {rep.m:>8}  {rep.star:>9.5f}  {rep.interval_bound:>9.5f}"
              f"  {rep.niederreiter_rhs:>10.1f}  {rep.k_used:>4}"
              f"  {time.monotonic() - t0:>6.1f}")


if __name__ == "__main__":
    main()
