"""Frobenius traces and angles, with batch amortization per prime.

The production path is the Legendre-sum identity a = -sum_x (x^3+ax+b | p)
over a shared residue table, O(p) per distinct curve.  count_points_naive is
the independent oracle: it enumerates squares directly and never touches the
Legendre machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusedError
from .family import CurveInstance, FamilyPoly, fingerprint_hex, poly_eval_mod
from .finite_field import ResidueTable
from .sato_tate import AngleSample

NAIVE_LIMIT = 10_000


def _sweep(x3, leg, a_arr, b_arr, p: int, block: int = 64) -> np.ndarray:
    x = np.arange(p, dtype=np.int64)
    out = np.empty(len(a_arr), dtype=np.int64)
    for lo in range(0, len(a_arr), block):
        hi = min(lo + block, len(a_arr))
        vals = a_arr[lo:hi, None] * x[None, :]
        vals %= p
        vals += x3[None, :]
        vals += b_arr[lo:hi, None]
        vals %= p
        out[lo:hi] = -leg[vals].sum(axis=1, dtype=np.int64)
    return out


@dataclass(frozen=True)
class TraceRecord:
    p: int
    t: int
    a: int


def count_points_naive(c: CurveInstance) -> int:
    """#E(F_p) by exhaustive enumeration (squares table built from scratch).

    Oracle-scale only: refuses p > 10^4.
    """
    p = c.p
    if p > NAIVE_LIMIT:
        raise RefusedError(f"naive count refused for p={p} > {NAIVE_LIMIT}")
    y = np.arange(p, dtype=np.int64)
    sqcount = np.bincount((y * y) % p, minlength=p)
    x = np.arange(p, dtype=np.int64)
    rhs = (((x * x % p) * x % p) + c.a * x + c.b) % p
    return 1 + int(sqcount[rhs].sum())


def _hasse_ok(a: int, p: int) -> bool:
    return a * a <= 4 * p


def trace(c: CurveInstance, tbl: ResidueTable) -> int:
    """Frobenius trace via the Legendre sum over the shared table."""
    if tbl.p != c.p:
        raise ValueError("residue table built for a different prime")
    p = c.p
    x = np.arange(p, dtype=np.int64)
    rhs = (((x * x % p) * x % p) + c.a * x + c.b) % p
    a = -int(tbl.leg[rhs].sum())
    if not _hasse_ok(a, p):
        raise RuntimeError(f"Hasse violated: a={a}, p={p} (bug)")
    return a


def residue_traces(fam: FamilyPoly, p: int, ws, tbl: ResidueTable | None = None):
    """Traces for many residue parameters of one family at one prime.

    Returns (a_vec, good) where good[i] marks delta(ws[i]) != 0 mod p and
    a_vec[i] is the trace there (0 at bad slots, to be ignored).
    """
    if tbl is None:
        tbl = ResidueTable.build(p)
    ws = np.asarray(ws, dtype=np.int64) % p
    good = poly_eval_mod(fam.delta_coeffs, ws, p) != 0
    a_par = poly_eval_mod(fam.f_coeffs, ws, p)
    b_par = poly_eval_mod(fam.g_coeffs, ws, p)

    x = np.arange(p, dtype=np.int64)
    x3 = (x * x % p) * x % p
    out = np.zeros(len(ws), dtype=np.int64)
    idx = np.flatnonzero(good)
    if idx.size:
        out[idx] = _sweep(x3, tbl.leg, a_par[idx], b_par[idx], p)
        worst = int(np.max(out[idx] * out[idx] - 4 * p))
        if worst > 0:
            raise RuntimeError(f"Hasse violated in sweep at p={p} (bug)")
    return out, good


def batch_traces(p: int, fam: FamilyPoly, ts, cache=None, skip_bad: bool = True):
    """One residue-table build, traces for every parameter in ts.

    Distinct residues t mod p are computed once and reused; the cache (when
    attached) is consulted per integer parameter and updated with fresh rows.
    Returns (records, skipped) with records in input order.
    """
    ts = list(ts)
    res_of = {}
    for t in ts:
        res_of.setdefault(t % p, []).append(t)

    trace_by_res: dict[int, int | None] = {}
    pending = []
    for w, group in res_of.items():
        hit = cache.get(p, group[0]) if cache is not None else None
        if hit is not None:
            trace_by_res[w] = hit
        else:
            pending.append(w)

    if pending:
        tbl = ResidueTable.build(p)
        a_vec, good = residue_traces(fam, p, pending, tbl)
        for i, w in enumerate(pending):
            trace_by_res[w] = int(a_vec[i]) if good[i] else None
    # residues resolved from cache are good by construction (cache holds traces only)

    records, skipped = [], []
    for t in ts:
        a = trace_by_res[t % p]
        if a is None:
            if not skip_bad:
                raise ValueError(f"bad reduction at t={t} mod p={p}")
            skipped.append(t)
        else:
            records.append(TraceRecord(p, t, a))
    if cache is not None:
        for rec in records:
            cache.put(rec)
    return records, skipped


def angle(rec: TraceRecord) -> float:
    """Frobenius angle psi in [0, pi] with cos(psi) = a / (2 sqrt(p))."""
    if not _hasse_ok(rec.a, rec.p):
        raise ValueError(f"trace {rec.a} violates the Hasse bound at p={rec.p}")
    return math.acos(rec.a / (2.0 * math.sqrt(rec.p)))


def residue_angles(fam: FamilyPoly, p: int, params, tbl: ResidueTable | None = None):
    """Per-parameter (psis, good) arrays in input order, psi NaN at bad reduction.

    params may repeat (multiset semantics); each distinct residue is traced once.
    """
    ws, where = np.unique(np.array([t % p for t in params], dtype=np.int64),
                          return_inverse=True)
    a_vec, good = residue_traces(fam, p, ws, tbl)
    z = a_vec / (2.0 * math.sqrt(p))
    psi_of = np.full(len(ws), np.nan)
    for i in np.flatnonzero(good):
        psi_of[i] = math.acos(z[i])
    return psi_of[where], good[where]


def angle_sample(fam: FamilyPoly, p: int, params, descriptor: str = "",
                 tbl: ResidueTable | None = None) -> AngleSample:
    """Angles of E(t) for every parameter with good reduction, in input order."""
    psis, good = residue_angles(fam, p, params, tbl)
    desc = descriptor or f"fam={fingerprint_hex(fam)}:p={p}"
    return AngleSample(psis[good], desc)
