"""Command-line surface.

Every command writes one JSON object to stdout; histograms can additionally
go to CSV (`bin_lo,bin_hi,count,st_mass`, 6-decimal reals) and to a static
SVG with the limiting density drawn over the bars.  Exit codes: 0 ok,
1 usage, 2 hypothesis violation, 3 computation refused, 4 cache error,
5 internal invariant failure (a bug; the message starts with `bug:`).

`COMMANDS` maps each command's words to the arguments it declares and to
its handler; a run builds the parser of its own command only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from . import experiments as ex
from .errors import CacheError, NondegeneracyError, RefusedError
from .family import build_family, check_nondeg_global, fingerprint_hex, reduce_at
from .finite_field import (
    TABLE_LIMIT,
    ResidueTable,
    require_prime_above_3,
    require_table_size,
)
from .param_sets import (
    divisor_window_count,
    geometric,
    interval_params,
    order_sum,
    primes_upto,
    product_residues,
    require_size,
    subgroup,
)
from .sato_tate import AngleSample, Interval, discrepancy_report, mu_st
from .store import open_cache
from .traces import TraceRecord, angle, angle_sample, trace


# --bins of angles.  Each bin is one histogram row: about 190 bytes over the
# interpreter's own and 2.4 us, or 500 bytes and 8.4 us with --csv and --svg
# (ru_maxrss at 10**5 and 4 * 10**5 bins, p = 1009), so 0.2-0.5 GB and up to
# 8 s at the limit.
BINS_LIMIT = 10**6


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}; expected comma-separated integers")


def _parse_intset(text: str, flag: str) -> range | list[int]:
    """Accept '1..50' ranges (kept as a range, so nothing is listed yet) or
    comma lists like '1,2,7'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}; expected lo..hi or comma-separated "
                         "integers") from None


def _product_sets(args):
    """U and V of --set-u and --set-v, refused with exit 3 when U x V has more
    than TABLE_LIMIT elements, before either set is listed."""
    U, V = _parse_intset(args.set_u, "--set-u"), _parse_intset(args.set_v, "--set-v")
    # len() of a range past sys.maxsize raises OverflowError
    size = math.prod(max(s.stop - s.start, 0) if isinstance(s, range) else len(s)
                     for s in (U, V))
    require_size(size, TABLE_LIMIT, "#U*#V")
    return U, V


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


@contextlib.contextmanager
def _output(path: str):
    """The text file at path, open for writing; a failed open or write is a
    usage error (exit 1)."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            yield fh
    except OSError as e:
        raise ValueError(f"{path}: cannot write: {e.strerror}") from None


def _write_csv(path: str, rows) -> None:
    with _output(path) as fh:
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
    with _output(path) as fh:
        fh.write("\n".join(parts) + "\n")


def _angles_params(args, p):
    kind = args.kind
    if kind == "full":
        return np.arange(p), "full"
    if kind == "subgroup":
        if args.order is None:
            raise ValueError("subgroup kind needs -r")
        ps = subgroup(p, args.order)
    elif kind == "product":
        if not args.set_u or not args.set_v:
            raise ValueError("product kind needs --set-u and --set-v")
        ps = product_residues(*_product_sets(args), p)
    elif kind == "primes":
        if args.limit is None:
            raise ValueError("primes kind needs -L")
        require_size(args.limit, ex.PRIMES_LIMIT, "L")
        ps = primes_upto(args.limit)
    elif kind == "geometric":
        if args.lam is None or args.length is None:
            raise ValueError("geometric kind needs --lam and -T")
        require_size(args.length, TABLE_LIMIT, "T")
        ps = geometric(args.lam, args.length, p)
    else:
        if args.offset is None or args.window is None:
            raise ValueError("interval kind needs -M and -N")
        require_size(args.window, TABLE_LIMIT, "N")
        ps = interval_params(args.offset, args.window)
    return list(ps.elements), ps.descriptor


def _cache_path(args) -> str | None:
    """The cache file: a non-empty STLAB_CACHE, else --cache (absent: none)."""
    path = os.environ.get("STLAB_CACHE") or args.cache
    if path == "":
        raise ValueError("--cache needs a file path, got an empty string")
    return path


def _mixed_cache(args, fam):
    """The open cache of a mixed experiment, or a null context without one."""
    path = _cache_path(args)
    return open_cache(path, fam) if path else contextlib.nullcontext()


def _experiment_json(params, mu, value, bracket, ratio, detail):
    return {"params": params, "mu": mu, "count_or_average": value,
            "bracket": bracket, "ratio": ratio, "detail": detail}


def _vertical_report(rep, iv):
    detail = {"count": rep.count, "m": rep.m, "expected": rep.expected,
              "empirical_error": rep.empirical_error}
    if rep.bracket_note:
        detail["bracket_note"] = rep.bracket_note
    params = {"p": rep.p, "set": rep.set_descriptor, "alpha": iv.alpha, "beta": iv.beta}
    return _experiment_json(params, mu_st(iv), rep.count, rep.theorem_bracket,
                            rep.ratio, detail), 0


def _mixed_report(rep, iv):
    detail = {"raw_count": rep.raw_count, "denominator": rep.denominator,
              "pi_x": rep.pi_x, "skipped_primes": list(rep.skipped_primes),
              "skipped_params": rep.skipped_params, "deviation": rep.deviation}
    if rep.order_sum_half is not None:
        detail["order_sum_half"] = rep.order_sum_half
    if rep.bracket_note:
        detail["bracket_note"] = rep.bracket_note
    params = {"x": rep.x, "set": rep.set_descriptor, "alpha": iv.alpha, "beta": iv.beta}
    return _experiment_json(params, rep.mu, rep.normalized_average, rep.theorem_bracket,
                            rep.deviation / rep.theorem_bracket, detail), 0


def _sums_report(args, value, bracket, detail):
    return _experiment_json({"p": args.prime, "L": args.limit, "n": args.degree}, None,
                            value, bracket, (abs(value) / bracket) if bracket else None,
                            detail), 0


# Handlers: handler(args, fam, iv) -> (report, exit code).  run() puts the
# command's words and the family fingerprint in front of the report.


def _family_check(args, fam, iv):
    chk = check_nondeg_global(fam)
    out = {"nondeg_global": "pass" if chk.ok else "fail", "deg_delta": fam.deg_delta}
    if not chk.ok:
        out["reason"] = chk.reason
    return out, 0 if chk.ok else 2


def _trace(args, fam, iv):
    p, t = args.prime, args.param
    require_prime_above_3(p)
    tbl = ResidueTable.build(p)  # refuses p > 2**23 before any O(p) array
    a = trace(reduce_at(fam, t, p), tbl)
    return {"params": {"p": p, "t": t}, "a": a, "psi": angle(TraceRecord(p, t, a))}, 0


def _angles(args, fam, iv):
    p = args.prime
    require_prime_above_3(p)  # a subgroup or progression mod a non-prime is undefined
    require_table_size(p)
    if args.bins < 1:  # emit_histogram's own check, made before the sample is traced
        raise ValueError("bins must be >= 1")
    require_size(args.bins, BINS_LIMIT, "bins")
    params, desc = _angles_params(args, p)
    sample = angle_sample(fam, p, params)
    rep = discrepancy_report(sample)
    rows = emit_histogram(sample, args.bins)
    if args.csv:
        _write_csv(args.csv, rows)
    if args.svg:
        _write_svg(args.svg, rows, sample.m)
    return {
        "params": {"p": p, "set": desc, "bins": args.bins},
        "m": sample.m,
        "star_discrepancy": rep.star,
        "interval_discrepancy": rep.interval_bound,
        "interval_exact": rep.interval_exact,
        "niederreiter_rhs": rep.niederreiter_rhs,
        "k_used": rep.k_used,
    }, 0


def _charsum(args, fam, iv):
    reports = ex.charsum_verify(fam, args.prime, args.n_max, mode=args.mode,
                                seed=args.seed, count=args.count,
                                subgroup_r=args.subgroup_r)
    worst = max(reports, key=lambda r: r.max_abs / r.bound)
    detail = [{"n": r.n, "max_abs": r.max_abs, "bound": r.bound,
               "worst_character_index": r.worst_character_index} for r in reports]
    params = {"p": args.prime, "n_max": args.n_max, "mode": reports[0].mode,
              "subgroup_r": args.subgroup_r}
    return _experiment_json(params, None, worst.max_abs, worst.bound,
                            worst.max_abs / worst.bound, detail), 0


def _vertical_subgroup(args, fam, iv):
    return _vertical_report(ex.vertical_subgroup(fam, args.prime, args.order, iv), iv)


def _vertical_product(args, fam, iv):
    return _vertical_report(ex.vertical_product(fam, args.prime, *_product_sets(args), iv),
                            iv)


def _vertical_primes(args, fam, iv):
    return _vertical_report(ex.vertical_primes(fam, args.prime, args.limit, iv), iv)


def _mixed_product(args, fam, iv):
    with _mixed_cache(args, fam) as cache:
        rep = ex.mixed_product(fam, args.xmax, *_product_sets(args), iv, cache=cache,
                               threads=args.threads)
    return _mixed_report(rep, iv)


def _mixed_geometric(args, fam, iv):
    with _mixed_cache(args, fam) as cache:
        rep = ex.mixed_geometric(fam, args.xmax, args.lam, args.length, iv,
                                 cache=cache, threads=args.threads)
    return _mixed_report(rep, iv)


def _mixed_primes(args, fam, iv):
    with _mixed_cache(args, fam) as cache:
        rep = ex.mixed_primes(fam, args.xmax, args.limit, iv, cache=cache,
                              threads=args.threads)
    return _mixed_report(rep, iv)


def _vaughan(args, fam, iv):
    rep = ex.vaughan_decompose(fam, args.prime, args.limit, K=args.k_cut,
                               M=args.m_cut, n=args.degree)
    detail = {"direct_sum": rep.direct_sum, "sigma1": rep.sigma1,
              "sigma2": rep.sigma2, "sigma3": rep.sigma3, "sigma4": rep.sigma4,
              "K": rep.K, "M": rep.M}
    return _sums_report(args, rep.direct_sum, rep.lambda_bracket, detail)


def _mobius(args, fam, iv):
    rep = ex.mobius_sums(fam, args.prime, args.limit, args.degree,
                         K=args.k_cut, M=args.m_cut)
    detail = {"abs_mu_sum": rep.abs_mu_sum, "mu_sum": rep.mu_sum,
              "omega1": rep.omega1, "omega2": rep.omega2,
              "omega3": rep.omega3, "omega4": rep.omega4}
    return _sums_report(args, rep.mu_sum, None, detail)


def _prime_sym(args, fam, iv):
    value, bracket, prime1 = ex.prime_sym_sum(fam, args.prime, args.limit, args.degree)
    detail = {"prime1_bracket_hint": prime1, "bracket_note": ex.PRIME2_NOTE}
    return _sums_report(args, value, bracket, detail)


def _orders(args, fam, iv):
    out = {"params": {"x": args.xmax, "lambda": args.lam, "alpha": args.alpha_exp},
           "order_sum": order_sum(args.xmax, args.lam, args.alpha_exp)}
    if args.window_y is not None:
        out["divisor_window_count"] = divisor_window_count(args.xmax, args.window_y)
    return out, 0


def _cache_stats(args, fam, iv):
    path = _cache_path(args)
    cache = open_cache(path, fam)
    primes = cache.primes()
    return {
        "path": path,
        "rows": len(cache),
        "distinct_primes": len(primes),
        "p_min": primes[0] if primes else None,
        "p_max": primes[-1] if primes else None,
    }, 0


def _arg(*flags, **kwargs):
    return flags, kwargs


_FAMILY = (_arg("--f", required=True, help="f coefficients, ascending, comma-separated"),
           _arg("--g", required=True, help="g coefficients, ascending, comma-separated"))
_INTERVAL = (_arg("--alpha", type=float, default=0.0),
             _arg("--beta", type=float, default=math.pi))
_PRIME = _arg("-p", "--prime", type=int, required=True)
_VERTICAL = (*_FAMILY, *_INTERVAL, _PRIME)
_MIXED = (*_FAMILY, *_INTERVAL, _arg("-x", "--xmax", type=int, required=True),
          _arg("--threads", type=int, default=1),  # >= 1; no effect
          _arg("--cache"))
_SETS = (_arg("--set-u", required=True), _arg("--set-v", required=True))
_LIMIT = _arg("-L", "--limit", type=int, required=True)
_GEOMETRIC = (_arg("--lam", type=int, required=True),
              _arg("-T", "--length", type=int, required=True))
_SUMS = (*_FAMILY, _PRIME, _LIMIT, _arg("-n", "--degree", type=int, default=1))
_CUTS = (_arg("-K", "--k-cut", type=float), _arg("-M", "--m-cut", type=float))

# words -> (arguments, handler).  A family (--f, --g) is built and an
# interval (--alpha, --beta) checked, in that order, before the handler runs.
COMMANDS = {
    "family check": (_FAMILY, _family_check),
    "trace": ((*_FAMILY, _PRIME, _arg("-t", "--param", type=int, required=True)), _trace),
    "angles": ((*_FAMILY, _PRIME,
                _arg("--kind", default="full", choices=["full", "subgroup", "product",
                                                        "primes", "geometric", "interval"]),
                _arg("-r", "--order", type=int), _arg("--set-u"), _arg("--set-v"),
                _arg("-L", "--limit", type=int), _arg("--lam", type=int),
                _arg("-T", "--length", type=int), _arg("-M", "--offset", type=int),
                _arg("-N", "--window", type=int), _arg("--bins", type=int, default=30),
                _arg("--csv"), _arg("--svg")), _angles),
    "verify charsum": ((*_FAMILY, _PRIME, _arg("--n-max", type=int, default=5),
                        _arg("--mode", choices=["exhaustive", "sampled"], default="exhaustive"),
                        _arg("--count", type=int), _arg("--seed", type=int),
                        _arg("--subgroup-r", type=int)), _charsum),
    "experiment vertical-subgroup": ((*_VERTICAL, _arg("-r", "--order", type=int, required=True)),
                                     _vertical_subgroup),
    "experiment vertical-product": ((*_VERTICAL, *_SETS), _vertical_product),
    "experiment vertical-primes": ((*_VERTICAL, _LIMIT), _vertical_primes),
    "experiment mixed-product": ((*_MIXED, *_SETS), _mixed_product),
    "experiment mixed-geometric": ((*_MIXED, *_GEOMETRIC), _mixed_geometric),
    "experiment mixed-primes": ((*_MIXED, _LIMIT), _mixed_primes),
    "sums vaughan": ((*_SUMS, *_CUTS), _vaughan),
    "sums mobius": ((*_SUMS, *_CUTS), _mobius),
    "sums prime-sym": (_SUMS, _prime_sym),
    "sums orders": ((_arg("-x", "--xmax", type=int, required=True),
                     _arg("--lam", type=int, required=True),
                     _arg("--alpha-exp", type=float, default=1.0),
                     _arg("--window-y", type=int)), _orders),
    "cache stats": ((*_FAMILY, _arg("--cache", required=True)), _cache_stats),
}


def run(argv=None) -> int:
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    n = 2 if " ".join(argv[:2]) in COMMANDS else 1
    words = " ".join(argv[:n])
    if words not in COMMANDS:
        wants_help = "-h" in argv or "--help" in argv
        print("usage: stlab <command> [options]; stlab <command> --help lists the options\n"
              "commands:\n" + "\n".join(f"  {w}" for w in COMMANDS),
              file=sys.stdout if wants_help else sys.stderr)
        return 0 if wants_help else 1
    arguments, handler = COMMANDS[words]
    parser = argparse.ArgumentParser(prog=f"stlab {words}")
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    try:
        args = parser.parse_args(argv[n:])
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        fam = build_family(_parse_coeffs(args.f), _parse_coeffs(args.g)) if "f" in args else None
        iv = Interval(args.alpha, args.beta) if "alpha" in args else None
        report, code = handler(args, fam, iv)
    except NondegeneracyError as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return 2
    except RefusedError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except CacheError as e:
        print(f"cache error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:  # an internal invariant failed
        print(f"bug: {e}", file=sys.stderr)
        return 5
    head = {"command": words}
    if fam is not None:
        head["family_fingerprint"] = fingerprint_hex(fam)
    _emit({**head, **report}, started)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
