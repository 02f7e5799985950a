"""Frobenius traces and angles, with batch amortization per prime.

The production path builds per-prime trace rows, each one FFT correlation of
a weight vector with the Legendre symbol chi; every curve then costs one table
lookup (see residue_traces).  trace() is the direct Legendre sum
a = -sum_x chi(x^3+ax+b), O(p) per curve, and count_points_naive is the
independent oracle: it enumerates squares directly and never touches the
Legendre machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusedError
from .family import CurveInstance, FamilyPoly, fingerprint_hex, poly_eval_mod
from .finite_field import ResidueTable, power_table, primitive_root
from .sato_tate import AngleSample

NAIVE_LIMIT = 10_000


def _smooth_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (a fast numpy.fft length)."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _correlate(weights, chi_hat, size: int, p: int) -> np.ndarray:
    """c[s] = sum_y weights[y] chi(y + s mod p) for s in [0, p), as exact int64.

    chi_hat is the rfft of chi repeated twice; size >= 2p - 1 keeps the linear
    correlation free of wrap-around.
    """
    c = np.fft.irfft(np.conj(np.fft.rfft(weights, size)) * chi_hat, size)[:p]
    r = np.rint(c)
    err = float(np.max(np.abs(c - r)))
    if not err < 0.25:
        raise RuntimeError(f"FFT correlation not integral at p={p}: residual {err:.3g} (bug)")
    return r.astype(np.int64)


def _table_traces(leg, a_arr, b_arr, p: int) -> np.ndarray:
    """-sum_x chi(x^3 + a x + b) for each (a, b), from at most three rows.

    - a = 0: T0[b] = -sum_y N[y] chi(y + b), N[y] = #{x : x^3 = y}.
    - b = 0: T1728[a] = -sum_y M2[y] chi(y + a), M2[y] = sum_{x^2 = y} chi(x).
    - otherwise (s, s) with s = a^3 / b^2 is the twist of (a, b) by c = a/b
      (x -> c x multiplies the cubic by c^3), so the trace is chi(a b) T[s].
      x = w - 1 turns x^3 + s x + s into w ((w-1)^3 / w + s), hence
      T[s] = -chi(-1) - sum_y M[y] chi(y + s), M[y] = sum_{(w-1)^3/w = y} chi(w).

    Only the rows some curve uses are built.
    """
    size = _smooth_len(2 * p - 1)
    chi_hat = np.fft.rfft(np.concatenate((leg, leg)), size)
    x = np.arange(p, dtype=np.int64)
    out = np.empty(len(a_arr), dtype=np.int64)
    j0 = a_arr == 0
    j1728 = (b_arr == 0) & ~j0
    rest = ~(j0 | j1728)
    if j0.any():
        n0 = np.bincount(x * x % p * x % p, minlength=p)
        out[j0] = -_correlate(n0, chi_hat, size, p)[b_arr[j0]]
    if j1728.any():
        m2 = np.bincount(x * x % p, weights=leg, minlength=p)
        out[j1728] = -_correlate(m2, chi_hat, size, p)[a_arr[j1728]]
    if rest.any():
        pw = power_table(primitive_root(p), p)
        inv = np.zeros(p, dtype=np.int64)
        inv[pw] = np.concatenate((pw[:1], pw[:0:-1]))  # 1/g^z = g^(p-1-z)
        w = x[1:]
        u = w - 1
        m = np.bincount(u * u % p * u % p * inv[w] % p, weights=leg[1:], minlength=p)
        row = -int(leg[p - 1]) - _correlate(m, chi_hat, size, p)
        a, b = a_arr[rest], b_arr[rest]
        ib = inv[b]
        s = a * a % p * a % p * (ib * ib % p) % p
        out[rest] = leg[a * b % p] * row[s]
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

    out = np.zeros(len(ws), dtype=np.int64)
    idx = np.flatnonzero(good)
    if idx.size:
        out[idx] = _table_traces(tbl.leg, a_par[idx], b_par[idx], p)
        worst = int(np.max(out[idx] * out[idx] - 4 * p))
        if worst > 0:
            raise RuntimeError(f"Hasse violated in trace table at p={p} (bug)")
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
