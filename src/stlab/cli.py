"""Command-line surface.

Every command writes one JSON object to stdout; histograms can additionally
go to CSV (`bin_lo,bin_hi,count,st_mass`, 6-decimal reals) and to a static
SVG with the limiting density drawn over the bars.  Exit codes: 0 ok,
1 usage, 2 hypothesis violation, 3 computation refused, 4 cache error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import experiments as ex
from .errors import CacheError, NondegeneracyError, RefusedError
from .family import build_family, check_nondeg_global, fingerprint_hex, reduce_at
from .finite_field import ResidueTable
from .param_sets import (
    divisor_window_count,
    geometric,
    interval_params,
    order_sum,
    primes_upto,
    product_residues,
    subgroup,
)
from .family import FamilyPoly
from .sato_tate import AngleSample, Interval, discrepancy_report, mu_st
from .store import open_cache
from .traces import TraceRecord, angle, angle_sample, trace


@dataclass
class RunConfig:
    """Validated run parameters shared by the command handlers.

    The interval and family are parsed (and therefore checked) before any
    dispatch; the cache path honours the STLAB_CACHE override.
    """

    command: str
    fam: FamilyPoly | None
    interval: Interval
    threads: int
    cache_path: str | None
    csv_path: str | None
    svg_path: str | None
    seed: int | None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        fam = None
        if getattr(args, "f", None) is not None:
            fam = build_family(_parse_coeffs(args.f), _parse_coeffs(args.g))
        command = args.command
        if getattr(args, "subcommand", None):
            command += " " + args.subcommand
        cache = os.environ.get("STLAB_CACHE") or getattr(args, "cache", None)
        return cls(
            command=command,
            fam=fam,
            interval=Interval(getattr(args, "alpha", 0.0), getattr(args, "beta", math.pi)),
            threads=getattr(args, "threads", os.cpu_count() or 1),
            cache_path=cache,
            csv_path=getattr(args, "csv", None),
            svg_path=getattr(args, "svg", None),
            seed=getattr(args, "seed", None),
        )


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}; expected comma-separated integers")


def _parse_intset(text: str) -> list[int]:
    """Accept '1..50' ranges or comma lists like '1,2,7'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"unserializable {type(obj)}")


def _emit(obj: dict, started: float) -> None:
    obj["runtime_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(json.dumps(obj, default=_json_default) + "\n")


def emit_histogram(sample: AngleSample, bins: int):
    """Equal-width bins over [0, pi]: rows (lo, hi, count, exact law mass)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(sample.psis, bins=bins, range=(0.0, math.pi))
    rows = []
    for i in range(bins):
        lo, hi = float(edges[i]), float(edges[i + 1])
        rows.append((lo, hi, int(counts[i]), mu_st(Interval(lo, hi))))
    return rows


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi,count,st_mass\n")
        for lo, hi, count, mass in rows:
            fh.write(f"{lo:.6f},{hi:.6f},{count},{mass:.6f}\n")


def _write_svg(path: str, rows, m: int) -> None:
    width, height, pad = 640, 360, 40
    dens_max = 2.0 / math.pi
    bar_max = 0.0
    for lo, hi, count, _ in rows:
        if m and hi > lo:
            bar_max = max(bar_max, count / (m * (hi - lo)))
    ymax = max(dens_max, bar_max) * 1.05 or 1.0
    sx = (width - 2 * pad) / math.pi
    sy = (height - 2 * pad) / ymax
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for lo, hi, count, _ in rows:
        d = count / (m * (hi - lo)) if m and hi > lo else 0.0
        x0 = pad + lo * sx
        bw = (hi - lo) * sx
        bh = d * sy
        parts.append(f'<rect x="{x0:.2f}" y="{height - pad - bh:.2f}" width="{bw:.2f}" '
                     f'height="{bh:.2f}" fill="#9ecae1" stroke="#3182bd"/>')
    pts = []
    for i in range(201):
        th = math.pi * i / 200
        d = (2.0 / math.pi) * math.sin(th) ** 2
        pts.append(f"{pad + th * sx:.2f},{height - pad - d * sy:.2f}")
    parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="#de2d26" '
                 'stroke-width="2"/>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="stlab")
    sub = top.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--f", required=True, help="f coefficients, ascending, comma-separated")
        p.add_argument("--g", required=True, help="g coefficients, ascending, comma-separated")

    def add_interval(p):
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--beta", type=float, default=math.pi)

    fam_p = sub.add_parser("family")
    fam_sub = fam_p.add_subparsers(dest="subcommand", required=True)
    chk = fam_sub.add_parser("check")
    add_family(chk)

    tr = sub.add_parser("trace")
    add_family(tr)
    tr.add_argument("-p", "--prime", type=int, required=True)
    tr.add_argument("-t", "--param", type=int, required=True)

    an = sub.add_parser("angles")
    add_family(an)
    an.add_argument("-p", "--prime", type=int, required=True)
    an.add_argument("--kind", default="full",
                    choices=["full", "subgroup", "product", "primes", "geometric", "interval"])
    an.add_argument("-r", "--order", type=int)
    an.add_argument("--set-u")
    an.add_argument("--set-v")
    an.add_argument("-L", "--limit", type=int)
    an.add_argument("--lam", type=int)
    an.add_argument("-T", "--length", type=int)
    an.add_argument("-M", "--offset", type=int)
    an.add_argument("-N", "--window", type=int)
    an.add_argument("--bins", type=int, default=30)
    an.add_argument("--csv", default=None)
    an.add_argument("--svg", default=None)

    ver = sub.add_parser("verify")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)
    ch = ver_sub.add_parser("charsum")
    add_family(ch)
    ch.add_argument("-p", "--prime", type=int, required=True)
    ch.add_argument("--n-max", type=int, default=5)
    ch.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    ch.add_argument("--count", type=int, default=None)
    ch.add_argument("--seed", type=int, default=None)
    ch.add_argument("--subgroup-r", type=int, default=None)

    exp = sub.add_parser("experiment")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)
    for name in ("vertical-subgroup", "vertical-product", "vertical-primes",
                 "mixed-product", "mixed-geometric", "mixed-primes"):
        p = exp_sub.add_parser(name)
        add_family(p)
        add_interval(p)
        if name.startswith("vertical"):
            p.add_argument("-p", "--prime", type=int, required=True)
        else:
            p.add_argument("-x", "--xmax", type=int, required=True)
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
            p.add_argument("--cache", default=None)
        if name.endswith("subgroup"):
            p.add_argument("-r", "--order", type=int, required=True)
        elif name.endswith("product"):
            p.add_argument("--set-u", required=True)
            p.add_argument("--set-v", required=True)
        elif name.endswith("primes"):
            p.add_argument("-L", "--limit", type=int, required=True)
        else:  # mixed-geometric
            p.add_argument("--lam", type=int, required=True)
            p.add_argument("-T", "--length", type=int, required=True)

    sums = sub.add_parser("sums")
    sums_sub = sums.add_subparsers(dest="subcommand", required=True)
    for name in ("vaughan", "mobius", "prime-sym"):
        p = sums_sub.add_parser(name)
        add_family(p)
        p.add_argument("-p", "--prime", type=int, required=True)
        p.add_argument("-L", "--limit", type=int, required=True)
        p.add_argument("-n", "--degree", type=int, default=1)
        if name in ("vaughan", "mobius"):
            p.add_argument("-K", "--k-cut", type=float, default=None)
            p.add_argument("-M", "--m-cut", type=float, default=None)
    orders = sums_sub.add_parser("orders")
    orders.add_argument("-x", "--xmax", type=int, required=True)
    orders.add_argument("--lam", type=int, required=True)
    orders.add_argument("--alpha-exp", type=float, default=1.0)
    orders.add_argument("--window-y", type=int, default=None)

    cache_p = sub.add_parser("cache")
    cache_sub = cache_p.add_subparsers(dest="subcommand", required=True)
    stats = cache_sub.add_parser("stats")
    add_family(stats)
    stats.add_argument("--cache", required=True)

    return top


def _angles_params(args, p):
    kind = args.kind
    if kind == "full":
        return list(range(p)), "full"
    if kind == "subgroup":
        if args.order is None:
            raise ValueError("subgroup kind needs -r")
        ps = subgroup(p, args.order)
    elif kind == "product":
        if not args.set_u or not args.set_v:
            raise ValueError("product kind needs --set-u and --set-v")
        ps = product_residues(_parse_intset(args.set_u), _parse_intset(args.set_v), p)
    elif kind == "primes":
        if args.limit is None:
            raise ValueError("primes kind needs -L")
        ps = primes_upto(args.limit)
    elif kind == "geometric":
        if args.lam is None or args.length is None:
            raise ValueError("geometric kind needs --lam and -T")
        ps = geometric(args.lam, args.length, p)
    else:
        if args.offset is None or args.window is None:
            raise ValueError("interval kind needs -M and -N")
        ps = interval_params(args.offset, args.window)
    return list(ps.elements), ps.descriptor


def _experiment_json(command, fam, params, mu, value, bracket, ratio, detail):
    return {
        "command": command,
        "family_fingerprint": fingerprint_hex(fam),
        "params": params,
        "mu": mu,
        "count_or_average": value,
        "bracket": bracket,
        "ratio": ratio,
        "detail": detail,
    }


def _run_family_check(cfg, started):
    chk = check_nondeg_global(cfg.fam)
    out = {
        "command": "family check",
        "family_fingerprint": fingerprint_hex(cfg.fam),
        "nondeg_global": "pass" if chk.ok else "fail",
        "deg_delta": cfg.fam.deg_delta,
    }
    if not chk.ok:
        out["reason"] = chk.reason
    _emit(out, started)
    return 0 if chk.ok else 2


def _run_trace(cfg, args, started):
    fam = cfg.fam
    c = reduce_at(fam, args.param, args.prime)
    rec_a = trace(c, ResidueTable.build(args.prime))
    psi = angle(TraceRecord(args.prime, args.param, rec_a))
    _emit({
        "command": "trace",
        "family_fingerprint": fingerprint_hex(fam),
        "params": {"p": args.prime, "t": args.param},
        "a": rec_a,
        "psi": psi,
    }, started)
    return 0


def _run_angles(cfg, args, started):
    fam = cfg.fam
    p = args.prime
    params, desc = _angles_params(args, p)
    sample = angle_sample(fam, p, params, descriptor=f"fam={fingerprint_hex(fam)}:p={p}:{desc}")
    rep = discrepancy_report(sample)
    rows = emit_histogram(sample, args.bins)
    if cfg.csv_path:
        _write_csv(cfg.csv_path, rows)
    if cfg.svg_path:
        _write_svg(cfg.svg_path, rows, sample.m)
    _emit({
        "command": "angles",
        "family_fingerprint": fingerprint_hex(fam),
        "params": {"p": p, "set": desc, "bins": args.bins},
        "m": sample.m,
        "star_discrepancy": rep.star,
        "interval_discrepancy": rep.interval_bound,
        "interval_exact": rep.interval_exact,
        "niederreiter_rhs": rep.niederreiter_rhs,
        "k_used": rep.k_used,
    }, started)
    return 0


def _run_charsum(cfg, args, started):
    fam = cfg.fam
    reports = ex.charsum_verify(fam, args.prime, args.n_max, mode=args.mode,
                                seed=cfg.seed, count=args.count,
                                subgroup_r=args.subgroup_r)
    worst = max(reports, key=lambda r: r.max_abs / r.bound)
    detail = [{"n": r.n, "max_abs": r.max_abs, "bound": r.bound,
               "worst_character_index": r.worst_character_index} for r in reports]
    out = _experiment_json("verify charsum", fam,
                           {"p": args.prime, "n_max": args.n_max, "mode": reports[0].mode,
                            "subgroup_r": args.subgroup_r},
                           None, worst.max_abs, worst.bound, worst.max_abs / worst.bound,
                           detail)
    _emit(out, started)
    return 0


def _run_experiment(cfg, args, started):
    fam = cfg.fam
    iv = cfg.interval
    name = args.subcommand
    cache = open_cache(cfg.cache_path, fam) if cfg.cache_path else None
    try:
        if name == "vertical-subgroup":
            rep = ex.vertical_subgroup(fam, args.prime, args.order, iv)
        elif name == "vertical-product":
            rep = ex.vertical_product(fam, args.prime, _parse_intset(args.set_u),
                                      _parse_intset(args.set_v), iv)
        elif name == "vertical-primes":
            rep = ex.vertical_primes(fam, args.prime, args.limit, iv)
        elif name == "mixed-product":
            rep = ex.mixed_product(fam, args.xmax, _parse_intset(args.set_u),
                                   _parse_intset(args.set_v), iv, cache=cache,
                                   threads=cfg.threads)
        elif name == "mixed-geometric":
            rep = ex.mixed_geometric(fam, args.xmax, args.lam, args.length, iv,
                                     cache=cache, threads=cfg.threads)
        else:
            rep = ex.mixed_primes(fam, args.xmax, args.limit, iv, cache=cache,
                                  threads=cfg.threads)
    finally:
        if cache is not None:
            cache.close()

    if name.startswith("vertical"):
        params = {"p": rep.p, "set": rep.set_descriptor,
                  "alpha": iv.alpha, "beta": iv.beta}
        detail = {"count": rep.count, "m": rep.m, "expected": rep.expected,
                  "empirical_error": rep.empirical_error}
        if rep.bracket_note:
            detail["bracket_note"] = rep.bracket_note
        value, ratio = rep.count, rep.ratio
        mu = mu_st(iv)
    else:
        params = {"x": rep.x, "set": rep.set_descriptor,
                  "alpha": iv.alpha, "beta": iv.beta}
        detail = {"raw_count": rep.raw_count, "denominator": rep.denominator,
                  "pi_x": rep.pi_x, "skipped_primes": list(rep.skipped_primes),
                  "skipped_params": rep.skipped_params,
                  "deviation": rep.deviation}
        if rep.order_sum_half is not None:
            detail["order_sum_half"] = rep.order_sum_half
        if rep.bracket_note:
            detail["bracket_note"] = rep.bracket_note
        value = rep.normalized_average
        ratio = rep.deviation / rep.theorem_bracket
        mu = rep.mu
    out = _experiment_json(f"experiment {name}", fam, params, mu, value,
                           rep.theorem_bracket, ratio, detail)
    _emit(out, started)
    return 0


def _run_sums(cfg, args, started):
    if args.subcommand == "orders":
        s = order_sum(args.xmax, args.lam, args.alpha_exp)
        out = {
            "command": "sums orders",
            "params": {"x": args.xmax, "lambda": args.lam, "alpha": args.alpha_exp},
            "order_sum": s,
        }
        if args.window_y is not None:
            out["divisor_window_count"] = divisor_window_count(args.xmax, args.window_y)
        _emit(out, started)
        return 0

    fam = cfg.fam
    if args.subcommand == "vaughan":
        rep = ex.vaughan_decompose(fam, args.prime, args.limit, K=args.k_cut,
                                   M=args.m_cut, n=args.degree)
        detail = {"direct_sum": rep.direct_sum, "sigma1": rep.sigma1,
                  "sigma2": rep.sigma2, "sigma3": rep.sigma3, "sigma4": rep.sigma4,
                  "K": rep.K, "M": rep.M}
        value, bracket = rep.direct_sum, rep.lambda_bracket
    elif args.subcommand == "mobius":
        rep = ex.mobius_sums(fam, args.prime, args.limit, args.degree,
                             K=args.k_cut, M=args.m_cut)
        detail = {"abs_mu_sum": rep.abs_mu_sum, "mu_sum": rep.mu_sum,
                  "omega1": rep.omega1, "omega2": rep.omega2,
                  "omega3": rep.omega3, "omega4": rep.omega4}
        value, bracket = rep.mu_sum, None
    else:
        value, bracket, prime1 = ex.prime_sym_sum(fam, args.prime, args.limit,
                                                  args.degree)
        detail = {"prime1_bracket_hint": prime1,
                  "bracket_note": ex.PRIME2_NOTE}
    out = _experiment_json(f"sums {args.subcommand}", fam,
                           {"p": args.prime, "L": args.limit, "n": args.degree},
                           None, value, bracket,
                           (abs(value) / bracket) if bracket else None, detail)
    _emit(out, started)
    return 0


def _run_cache_stats(cfg, started):
    rows = open_cache(cfg.cache_path, cfg.fam).keys()
    primes = sorted({p for p, _ in rows})
    _emit({
        "command": "cache stats",
        "family_fingerprint": fingerprint_hex(cfg.fam),
        "path": cfg.cache_path,
        "rows": len(rows),
        "distinct_primes": len(primes),
        "p_min": primes[0] if primes else None,
        "p_max": primes[-1] if primes else None,
    }, started)
    return 0


def run(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = RunConfig.from_args(args)
        if args.command == "family":
            return _run_family_check(cfg, started)
        if args.command == "trace":
            return _run_trace(cfg, args, started)
        if args.command == "angles":
            return _run_angles(cfg, args, started)
        if args.command == "verify":
            return _run_charsum(cfg, args, started)
        if args.command == "experiment":
            return _run_experiment(cfg, args, started)
        if args.command == "sums":
            return _run_sums(cfg, args, started)
        if args.command == "cache":
            return _run_cache_stats(cfg, started)
        return 1
    except NondegeneracyError as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return 2
    except RefusedError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except CacheError as e:
        print(f"cache error: {e}", file=sys.stderr)
        return 4
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
