#!/usr/bin/env python3
"""Paired benchmark of two checkouts over perfbench workloads.

    python3 scripts/bench.py --base ../parent --change . --workload sums \\
        --workload vertical --pairs 10 --out BENCH.json

Runs `perfbench/run.py --trace 0` in each checkout, alternating which side
goes first, with seed = pair index and run.py's own run length.  Each
--workload (repeat it for several) gets --pairs pairs, one workload after
the other.  The JSON file at --out maps each workload to its entry, written
as each workload ends, so one file collects one invocation's workloads and
those of earlier invocations; an entry holds every run's metrics, `correct`
and `failed`, per side the median and quartiles of each end-to-end metric,
the number of
pairs the change wins per metric (by the direction in the change's
BENCHMARK.json), whether each metric is resolved (the two medians differ by
more than the base side's interquartile range, which needs at least two
base runs), per metric `change_over_base` (the change's median over the
base's, minus 1) next to that metric's `bound` from BENCHMARK.json, and each
side's machine record from run.py's diagnostics line.  `change_wins` and
`resolved` are the two halves of a claim: the change better in most pairs,
and by more than the base side's spread.  A lower-is-better metric whose
`change_over_base` is above its `bound` got worse by more than the
benchmark allows.  The
workloads are perfbench's own.  Exits 1 when a run gives no result or is
not correct, after writing the file.

Every run reads its bytecode from one PYTHONPYCACHEPREFIX directory made for
the invocation and removed afterwards, never from a checkout's own
__pycache__ nor the caller's prefix, so a checkout that already holds
bytecode does not start its set-up probe sooner than one that does not.
Before the first timed run of a workload, one untimed `--smoke` run of it
per side compiles the standard library, numpy and that side's sources into
the prefix; the timed runs get PYTHONDONTWRITEBYTECODE=1, so they read it
without writing to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seed: int, smoke: bool, env: dict) -> dict:
    """One untraced perfbench run; its result line and machine record, or the error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0", *(["--smoke"] if smoke else [])]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "returncode": proc.returncode, "error": proc.stderr[-2000:]}
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "machine": record["machine"]}


def summary(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def bench_workload(args, workload: str, warm: dict, timed: dict, spec: dict) -> dict:
    """The --pairs alternating pairs of one workload, after one untimed run per side."""
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {side: [] for side in SIDES}
    for side in SIDES:  # untimed runs that write the bytecode
        run_once(getattr(args, side), workload, 0, True, warm)
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = getattr(args, side)
            runs[side].append(run_once(checkout, workload, pair, args.smoke, timed))
            print(f"{workload} pair {pair} {side}: {runs[side][-1].get('metrics', 'no result')}",
                  file=sys.stderr)

    ok = all(r.get("correct") for side in SIDES for r in runs[side])
    stats = {side: {} for side in SIDES}
    wins, resolved, over = {}, {}, {}
    for name, is_lower in lower.items():
        values = {side: [r.get("metrics", {}).get(name) for r in runs[side]] for side in SIDES}
        for side in SIDES:
            measured = [v for v in values[side] if v is not None]
            if measured:
                stats[side][name] = summary(measured)
        wins[name] = sum(b is not None and c is not None and (c < b if is_lower else c > b)
                         for b, c in zip(values["base"], values["change"]))
        base, change = stats["base"].get(name), stats["change"].get(name)
        resolved[name] = (sum(v is not None for v in values["base"]) > 1 and change is not None
                          and abs(change["median"] - base["median"]) > base["q3"] - base["q1"])
        over[name] = (change["median"] / base["median"] - 1
                      if base and change and base["median"] else None)
    return {
        "pairs": args.pairs, "smoke": args.smoke, "correct": ok,
        "machine": {side: next((r["machine"] for r in runs[side] if "machine" in r), None)
                    for side in SIDES},
        "summary": stats, "change_wins": wins, "resolved": resolved,
        "change_over_base": over, "bound": bound,
        "runs": {side: [{k: v for k, v in r.items() if k != "machine"} for r in runs[side]]
                 for side in SIDES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="perfbench's reduced sizes")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        warm = {**os.environ, "PYTHONPYCACHEPREFIX": pycache}
        warm.pop("PYTHONDONTWRITEBYTECODE", None)
        timed = {**warm, "PYTHONDONTWRITEBYTECODE": "1"}
        for workload in dict.fromkeys(args.workload):  # a repeated name runs once
            out[workload] = bench_workload(args, workload, warm, timed, spec)
            ok = ok and out[workload]["correct"]
            args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
