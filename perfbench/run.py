"""stlab benchmark: four workloads driven in-process through `stlab.cli.run`.

    python3 perfbench/run.py --workload vertical --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  Each
run first times fresh interpreters answering `stlab trace` (set-up), then
repeats whole passes of the workload until `--seconds` is used up, then
checks every report.  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` passes alternate between traced and
untraced and the last line carries the per-layer metrics.  The line before
it records the machine and per-run diagnostics.  `--smoke` runs the reduced
sizes of the benchmark's own test.  `--record` rewrites this workload's
entry in reference.json (seed 0 and `--trace 1` only).

Metric names and units come from BENCHMARK.json; reasons for the workloads
and the layer -> end-to-end predictions are in predictions.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = {"full": 5, "smoke": 2}
PAIRS_PER_RUN = 200
NAIVE_MAX_P = 10_000  # count_points_naive refuses larger primes

# Counters that must repeat exactly between passes and runs of one seed.
EXACT_COUNTERS = ("traces.curve_x", "traces.records", "store.rows_appended",
                  "store.file_bytes", "param_sets.sieve_arith.calls",
                  "finite_field.residue_table.calls")

LAYERS = ("cli", "experiments", "traces", "sato_tate", "finite_field",
          "param_sets", "store", "family")


class Checks:
    """Correctness gate: every check counts as attempted; `error_rate` is
    failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# ---------------------------------------------------------------------------
# running the CLI


def _strip_report(stdout: str) -> str | None:
    """The report without `runtime_ms`, as canonical JSON; None if unparsable."""
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    obj.pop("runtime_ms", None)
    return json.dumps(obj, sort_keys=True)


def _digest(report: str | None) -> str | None:
    return None if report is None else hashlib.sha256(report.encode()).hexdigest()


@dataclass
class Command:
    label: str
    rc: int
    seconds: float
    report: str | None  # canonical JSON without runtime_ms
    error: str
    recorder: object  # the command's spans.Recorder in traced passes, else None


def _run_cli(cli, label, argv, recorder):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)  # a span of its own when a recorder is installed
        except Exception:  # a crash is a failed report, not a benchmark crash
            rc = -1
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    return Command(label, rc, seconds, _strip_report(out.getvalue()),
                   err.getvalue().strip()[-2000:], recorder)


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    commands: list[Command]
    cache_path: Path


def _run_pass(ctx, index: int, traced: bool) -> Pass:
    from spans import Recorder
    from workloads import pass_commands

    cache_path = ctx.workdir / f"traces-{index}.txt"
    cmds = pass_commands(ctx.workload, ctx.inputs, ctx.size, str(cache_path))
    gc.collect()
    commands = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for label, argv in cmds:
        rec = None
        if traced:
            rec = Recorder(HOOKS, COUNTED)
            rec.install(ctx.modules)
        try:
            commands.append(_run_cli(ctx.cli, label, argv, rec))
        finally:
            if rec is not None:
                rec.uninstall()
    wall = time.perf_counter() - t0
    return Pass(traced, wall, time.process_time() - c0, commands, cache_path)


def _measure(ctx, seconds: float, trace: bool) -> tuple[list[Pass], float]:
    """Closed loop, one client: passes run back to back until the next one
    would end after `seconds`.  Traced runs alternate traced and untraced
    passes, starting traced, with at least two traced and one untraced.

    Also returns the peak RSS in MB at the end of the first pass: later
    passes can grow the heap further, and their number depends on speed.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(_run_pass(ctx, len(passes), traced))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n_traced = sum(p.traced for p in passes)
        if trace and (n_traced < 2 or len(passes) - n_traced < 1):
            continue
        nxt = trace and len(passes) % 2 == 0
        typical = statistics.median(p.wall for p in passes if p.traced == nxt)
        if time.perf_counter() - start + typical > seconds:
            return passes, peak_rss_mb


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter answering `stlab trace`


def _measure_setup(ctx, checks: Checks, samples: int) -> list[float]:
    from stlab.family import reduce_at
    from stlab.traces import count_points_naive

    p, t = 101, 1
    expected = p + 1 - count_points_naive(reduce_at(ctx.inputs.family, t, p))
    env = {k: v for k, v in os.environ.items() if k != "STLAB_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    code = "import sys; from stlab.cli import main; sys.argv[0] = 'stlab'; main()"
    argv = [sys.executable, "-c", code, "trace", *ctx.inputs.family_args(),
            "-p", str(p), "-t", str(t)]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        try:
            a = json.loads(proc.stdout)["a"]
        except (json.JSONDecodeError, KeyError, TypeError):
            a = None
        checks.check(proc.returncode == 0 and a == expected,
                     f"set-up probe: rc={proc.returncode} a={a} expected={expected} "
                     f"{proc.stderr.strip()[-300:]}")
    return times


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes


def _after_residue_traces(rec, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    good = int(result[1].sum())
    rec.count("traces.curves", good)
    rec.count("traces.curve_x", good * p)


def _after_batch_traces(rec, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    ts = args[2] if len(args) > 2 else kwargs["ts"]
    rec.count("traces.records", len(result[0]))
    rec.count("traces.params", len(ts))
    rec.count("traces.distinct", len({t % p for t in ts}))


def _after_discrepancy(rec, args, kwargs, result):
    rec.count("sato_tate.samples", result.m)


def _after_cache_get(rec, args, kwargs, result):
    if result is not None:
        rec.count("store.hits")


def _after_open_cache(rec, args, kwargs, result):
    rec.count("store.rows_loaded", len(result))


HOOKS = {
    "residue_traces": _after_residue_traces,
    "batch_traces": _after_batch_traces,
    "discrepancy_report": _after_discrepancy,
    "TraceCache.get": _after_cache_get,
    "open_cache": _after_open_cache,
}
# called once per parameter group or record: counted, not timed
COUNTED = frozenset({"TraceCache.get", "TraceCache.put"})


def _merge(recorders):
    stats: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    layer_of: dict[str, str] = {}
    for rec in recorders:
        layer_of.update(rec.layer_of)
        for name, row in rec.stats().items():
            acc = stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        for key, n in rec.counters().items():
            counters[key] = counters.get(key, 0) + n
    return stats, counters, layer_of


def _layer_self(stats, layer_of) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in stats.items():
        layer = layer_of.get(name)
        if layer in out:
            out[layer] += own / 1e9
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _file_stats(path: Path) -> tuple[int, int]:
    """(data rows, bytes) of a cache file; (0, 0) when absent."""
    if not path.exists():
        return 0, 0
    with open(path, "rb") as fh:
        rows = sum(1 for line in fh if not line.startswith(b"#"))
    return rows, path.stat().st_size


def _pass_layer_metrics(pss: Pass) -> dict[str, float]:
    stats, c, layer_of = _merge(cmd.recorder for cmd in pss.commands)

    def pick(suffixes, idx):
        return sum(row[idx] for name, row in stats.items()
                   if name.endswith(suffixes))

    def calls(*s):
        return pick(s, 0)

    def busy(*s):
        return pick(s, 1) / 1e9

    def own(*s):
        return pick(s, 2) / 1e9

    layer_self = _layer_self(stats, layer_of)
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, row in stats.items():
        if layer_of.get(name) in layer_calls:
            layer_calls[layer_of[name]] += row[0]
    rows_appended, file_bytes = _file_stats(pss.cache_path)
    curve_x = c.get("traces.curve_x", 0)
    m = {
        "traces.residue_traces.calls": calls(".residue_traces"),
        "traces.residue_traces.s": busy(".residue_traces"),
        "traces.curves": c.get("traces.curves", 0),
        "traces.curve_x": curve_x,
        "traces.ns_per_curve_x": _ratio(pick((".residue_traces",), 1), curve_x),
        "traces.batch_traces.calls": calls(".batch_traces"),
        "traces.batch_traces.self_s": own(".batch_traces"),
        "traces.records": c.get("traces.records", 0),
        "traces.dedupe_ratio": _ratio(c.get("traces.distinct", 0), c.get("traces.params", 0)),
        "traces.angle_sample.self_s": own(".angle_sample"),
        "sato_tate.discrepancy.calls": calls(".discrepancy_report"),
        "sato_tate.discrepancy.s": busy(".discrepancy_report"),
        "sato_tate.samples": c.get("sato_tate.samples", 0),
        "cli.calls": layer_calls["cli"],
        "finite_field.residue_table.calls": calls(".ResidueTable.build"),
        "finite_field.residue_table.s": busy(".ResidueTable.build"),
        "finite_field.index_table.calls": calls(".IndexTable.build"),
        "finite_field.index_table.s": busy(".IndexTable.build"),
        "finite_field.mult_order.calls": calls(".mult_order"),
        "finite_field.mult_order.s": busy(".mult_order"),
        "param_sets.sieve_arith.calls": calls(".sieve_arith"),
        "param_sets.sieve_arith.s": busy(".sieve_arith"),
        "param_sets.primes_upto.calls": calls(".primes_upto"),
        "param_sets.primes_upto.s": busy(".primes_upto"),
        "param_sets.order_sum.self_s": own(".order_sum"),
        "param_sets.divisor_window.self_s": own(".divisor_window_count"),
        "experiments.pool_parallelism": _ratio(
            busy("._interval_count_at_prime"),
            busy(".mixed_product", ".mixed_geometric", ".mixed_primes")),
        "store.load.s": busy(".open_cache"),
        "store.rows_loaded": c.get("store.rows_loaded", 0),
        "store.lookups": calls(".TraceCache.get"),
        "store.hit_ratio": _ratio(c.get("store.hits", 0), calls(".TraceCache.get")),
        "store.flush.s": busy(".TraceCache.flush"),
        "store.rows_appended": rows_appended,
        "store.file_bytes": file_bytes,
        "family.calls": layer_calls["family"],
        "family.s": layer_self["family"],
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    return m


def _phase_top_layers(pss: Pass) -> dict[str, str]:
    """Largest self-time layer for the whole pass and for each command."""
    out = {}
    groups = [("pass", pss.commands)] + [(cmd.label, [cmd]) for cmd in pss.commands]
    for label, cmds in groups:
        stats, _, layer_of = _merge(cmd.recorder for cmd in cmds)
        layer_self = _layer_self(stats, layer_of)
        out[label] = max(layer_self, key=layer_self.get)
    return out


# ---------------------------------------------------------------------------
# correctness gate


def _check_reports(ctx, passes, checks: Checks, reference):
    first = passes[0].commands
    for pss in passes:
        for cmd, base in zip(pss.commands, first):
            checks.check(cmd.rc == 0 and cmd.report is not None,
                         f"{cmd.label}: exit {cmd.rc}: {cmd.error[-300:]}")
            if pss is not passes[0]:
                checks.check(cmd.report == base.report,
                             f"{cmd.label}: report differs between pass 1 and a later pass")
            if reference is not None:
                want = reference["digests"].get(cmd.label)
                checks.check(_digest(cmd.report) == want,
                             f"{cmd.label}: report digest differs from the reference")
        if ctx.workload == "mixed-cache":
            cold, warm = pss.commands
            checks.check(cold.report == warm.report,
                         "mixed-cache: cold and warm reports differ")


def _check_pairs(ctx, passes, checks: Checks):
    """Seeded (p, t) pairs: the bulk path the workload uses against the
    direct Legendre sum, and against the exhaustive count where p <= 10^4."""
    from stlab.errors import NondegeneracyError
    from stlab.family import reduce_at
    from stlab.finite_field import ResidueTable
    from stlab.traces import count_points_naive, residue_traces, trace
    from workloads import sample_pairs

    fam = ctx.inputs.family
    if ctx.workload == "mixed-cache":
        # the rows the program computed and stored in the last pass
        path = passes[-1].cache_path
        rows = []
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if not line.startswith("#"):
                    p, t, a = map(int, line.split(","))
                    rows.append((p, t, a))
        rng = random.Random(f"stlab-pairs:mixed-cache:{ctx.inputs.seed}")
        got = {(p, t): a for p, t, a in rng.sample(rows, min(PAIRS_PER_RUN, len(rows)))}
    else:
        by_p: dict[int, list[int]] = {}
        for p, t in sample_pairs(ctx.workload, ctx.inputs, ctx.size, PAIRS_PER_RUN):
            by_p.setdefault(p, []).append(t)
        got = {}
        for p, ts in by_p.items():
            a_vec, good = residue_traces(fam, p, ts)
            for t, a, ok in zip(ts, a_vec, good):
                got[(p, t)] = int(a) if ok else None
    tables = {}
    for (p, t), a in sorted(got.items()):
        try:
            c = reduce_at(fam, t, p)
        except NondegeneracyError:  # bad reduction: the bulk path must say so too
            checks.check(a is None, f"({p},{t}): trace {a} at a bad-reduction parameter")
            continue
        if p not in tables:
            tables[p] = ResidueTable.build(p)
        direct = trace(c, tables[p])
        checks.check(a == direct, f"({p},{t}): bulk trace {a} != direct {direct}")
        if p <= NAIVE_MAX_P:
            naive = p + 1 - count_points_naive(c)
            checks.check(a == naive, f"({p},{t}): bulk trace {a} != p+1-#E {naive}")


def _check_counters(per_pass_metrics, checks: Checks, reference):
    base = per_pass_metrics[0]
    for m in per_pass_metrics[1:]:
        for key in EXACT_COUNTERS:
            if key in m:
                checks.check(m[key] == base[key],
                             f"counter {key} differs between passes: {m[key]} vs {base[key]}")
    if reference is not None:
        for key, want in reference["counters"].items():
            if key in base:
                checks.check(base[key] == want,
                             f"counter {key}: {base[key]} != reference {want}")


# ---------------------------------------------------------------------------
# machine record


def _machine_record(ctx) -> dict:
    import numpy

    import stlab.traces
    from workloads import THREADS

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "stlab_numba_kernel": getattr(stlab.traces, "_HAVE_NUMBA", None),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": ctx.inputs.seed,
        "family": {"f": list(ctx.inputs.f), "g": list(ctx.inputs.g)},
        "interval": [ctx.inputs.alpha, ctx.inputs.beta],
        "threads": THREADS,
    }


# ---------------------------------------------------------------------------


def _load_reference(size_name, workload):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(size_name, {}).get(workload)


def _record_reference(size_name, workload, passes, per_pass_metrics):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(size_name, {})[workload] = {
        "digests": {cmd.label: _digest(cmd.report) for cmd in passes[0].commands},
        "counters": {key: per_pass_metrics[0][key] for key in EXACT_COUNTERS},
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stlab" / "cli.py").is_file():
        print(f"perfbench: no stlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("STLAB_CACHE", None)  # it would redirect every command's cache

    import stlab
    from stlab import cli, experiments, family, finite_field, param_sets, sato_tate, store
    from stlab import traces
    from workloads import SIZES, WORKLOADS, inputs_for

    if not Path(stlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported stlab from {stlab.__file__}, not from src/",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.record and (args.seed != 0 or not args.trace):
        parser.error("--record needs --seed 0 and --trace 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    size_name = "smoke" if args.smoke else "full"
    ctx = types.SimpleNamespace()
    ctx.workload, ctx.size = args.workload, SIZES[size_name]
    ctx.inputs, ctx.cli = inputs_for(args.seed), cli
    ctx.modules = (cli, experiments, traces, sato_tate, finite_field, param_sets, store, family)
    base_tmp = ROOT / ".perfbench_tmp"
    ctx.workdir = base_tmp / f"run-{os.getpid()}"
    checks = Checks()
    reference = None
    if args.seed == 0 and not args.record:
        reference = _load_reference(size_name, args.workload)
        checks.check(reference is not None,
                     f"no reference recorded for {size_name}/{args.workload}")

    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = _measure_setup(ctx, checks, SETUP_SAMPLES[size_name])
        passes, peak_rss_mb = _measure(ctx, 0.0 if args.smoke else args.seconds,
                                       bool(args.trace))
        _check_reports(ctx, passes, checks, reference)
        _check_pairs(ctx, passes, checks)
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]
        if traced:
            per_pass = [_pass_layer_metrics(p) for p in traced]
        elif args.workload == "mixed-cache":  # its file counters need no tracing
            per_pass = [dict(zip(("store.rows_appended", "store.file_bytes"),
                                 _file_stats(p.cache_path))) for p in passes]
        else:
            per_pass = []
        if per_pass:
            _check_counters(per_pass, checks, reference)
        if args.record:
            _record_reference(size_name, args.workload, passes, per_pass)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base_tmp.rmdir()

    metrics: dict[str, float] = {}
    walls = [p.wall for p in untraced]
    if args.trace:
        for key in per_pass[0]:
            values = [m[key] for m in per_pass]
            # exact counts repeat; report them as they are
            metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics["bench.trace_overhead_s"] = (statistics.median([p.wall for p in traced])
                                             - statistics.median(walls))
        metrics["bench.error_rate"] = _ratio(checks.failed, checks.attempted)
    else:
        metrics["wall_s"] = statistics.median(walls)
        if args.workload == "mixed-cache":
            metrics["cold_s"] = statistics.median([p.commands[0].seconds for p in untraced])
            metrics["warm_s"] = statistics.median([p.commands[1].seconds for p in untraced])
        else:  # no cache in this workload: a cold pass is a warm pass
            metrics["cold_s"] = metrics["warm_s"] = metrics["wall_s"]
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb

    out = {}
    for entry in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if entry["name"] not in metrics:
            checks.check(False, f"metric {entry['name']} was not measured")
            continue
        out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}

    diagnostics = {
        "workload": args.workload,
        "size": size_name,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                    "commands": {c.label: c.seconds for c in p.commands}} for p in passes],
        "setup_s": setup,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.messages},
    }
    if traced:
        diagnostics["top_self_layer"] = _phase_top_layers(traced[0])
    for msg in checks.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": _machine_record(ctx), "diagnostics": diagnostics}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
