"""Frobenius traces and angles, with batch amortization per prime.

The production path reads per-prime trace rows, each a correlation of a
weight vector with the Legendre symbol chi, computed by exact dot products at
the few shifts a sparse row needs or by one FFT for a dense row; every curve
then costs one table lookup (see residue_traces).  trace() is the direct
Legendre sum a = -sum_x chi(x^3+ax+b), O(p) per curve, and count_points_naive
is the independent oracle: it enumerates squares directly and never touches
the Legendre machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusedError
from .family import CurveInstance, FamilyPoly, nonsingular, poly_eval_mod
from .finite_field import ResidueTable, _mod_inplace
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


def _chi_hat(leg, p: int):
    """(rfft of chi repeated twice, its length size): size >= 2p - 1 keeps the
    linear correlation in _correlate free of wrap-around."""
    size = _smooth_len(2 * p - 1)
    return np.fft.rfft(np.concatenate((leg, leg)), size), size


def _correlate(weights, chi_hat, size: int, p: int) -> np.ndarray:
    """c[s] = sum_y weights[y] chi(y + s mod p) for s in [0, p), as exact int64.

    The spectrum product and the rounding residual are formed in place, so
    the transform holds chi_hat and two more size-long arrays at most.
    """
    f = np.fft.rfft(weights, size)
    np.conjugate(f, out=f)
    f *= chi_hat
    c = np.fft.irfft(f, size)[:p]
    del f
    r = np.rint(c)
    c -= r
    err = float(np.abs(c, out=c).max())
    del c
    if not err < 0.25:
        raise RuntimeError(f"FFT correlation not integral at p={p}: residual {err:.3g} (bug)")
    return r.astype(np.int64)


def _dot_row(weights, chi2, shifts, p: int) -> np.ndarray:
    """c[s] = weights . chi2[s : s + p] for each s in shifts, as exact int64.

    chi2 is chi followed by chi[:-1] (length 2p - 1) as float32, so the slice
    holds chi(y + s mod p).  The weights are integers and chi is -1, 0 or 1,
    so while sum |weights| < 2**24 every partial sum is an integer below 2**24
    and the float32 dot product is exact in any summation order.  Each row of
    _table_traces has sum |weights| <= p <= 2**23; the bound is checked here.
    """
    total = float(np.abs(weights).sum())
    if not total < 2**24:
        raise RuntimeError(f"dot row weights sum to {total:.0f} >= 2**24 at p={p} (bug)")
    w = np.asarray(weights, dtype=np.float32)
    return np.array([w.dot(chi2[s:s + p]) for s in shifts.tolist()]).astype(np.int64)


def _few_shifts(k: int, p: int) -> bool:
    """True when k exact dots (_dot_row) cost less than one FFT row at p.

    Fitted on 2 vCPUs (numpy 2.4.6) for 31 <= p <= 10**6: a float32 dot of
    length p takes about 1.5 us + p / 4 ns, and an FFT row about 40 us +
    10 p log2(p) ns, counting the transform of chi it needs (a sparse row is
    nearly always the only row at its prime).
    """
    return k * (1500 + p / 4) < 40_000 + 10 * p * p.bit_length()


def _table_traces(tbl: ResidueTable, a_arr, b_arr) -> np.ndarray:
    """-sum_x chi(x^3 + a x + b) for each (a, b) in [0, p)^2, from at most
    three rows.

    - a = 0: T0[b] = -sum_y N[y] chi(y + b), N[y] = #{x : x^3 = y}.
    - b = 0: T1728[a] = -sum_y M2[y] chi(y + a), M2[y] = sum_{x^2 = y} chi(x).
    - otherwise (s, s) with s = a^3 / b^2 is the twist of (a, b) by c = a/b
      (x -> c x multiplies the cubic by c^3), so the trace is chi(a b) T[s].
      x = w - 1 turns x^3 + s x + s into w ((w-1)^3 / w + s), hence
      T[s] = -chi(-1) - sum_y M[y] chi(y + s), M[y] = sum_{(w-1)^3/w = y} chi(w).

    The weights are built over w = g^z from the power table pw, with no
    product mod p and one reduction mod p in all; with h = (p - 1) / 2,
    - the cubes g^(3z) are pw[::3], each hit three times, when 3 | p - 1, and
      all of F_p^* once otherwise;
    - g^k and g^(k+h) are the roots of g^(2k) = pw[2k];
    - (w-1)^3 / w = w^2 - 3 w + 3 - 1/w, with w^2 = pw[2z mod (p-1)] and
      1/w = pw[-z mod (p-1)].
    chi(w) is read from leg, the table every other trace path reads.

    Only the rows some curve uses are built.  Each row is a correlation
    c[s] = sum_y W[y] chi(y + s); a row asked for few distinct shifts reads
    them as exact dot products (_dot_row), any other row is one FFT
    correlation (_correlate), and chi's transform is built only for those.

    A full-field call holds each O(p) array once: its residues, a b, the
    inverse table and 1/b go as soon as the shift s and the sign chi(a b)
    exist, chi's float32 copy goes before an FFT row, and the output is
    allocated only after the rows are read.
    """
    p, leg, pw = tbl.p, tbl.leg, tbl.pw
    chi2 = chi_hat = None

    def read(weights, shifts):
        nonlocal chi2, chi_hat
        need = np.zeros(p, dtype=bool)
        need[shifts] = True
        if _few_shifts(np.count_nonzero(need), p):
            uniq = np.flatnonzero(need)
            del need
            if chi2 is None:
                chi2 = np.concatenate((leg, leg[:-1])).astype(np.float32)
            c = np.zeros(p, dtype=np.int64)
            c[uniq] = _dot_row(weights, chi2, uniq, p)
        else:
            del need
            chi2 = None
            if chi_hat is None:
                chi_hat = _chi_hat(leg, p)
            c = _correlate(weights, *chi_hat, p)
        return c[shifts]

    chi_w = leg[pw]  # chi(g^z)
    parts = []  # (where, traces) per row, written to the output last
    ab = a_arr * b_arr % p
    rest = ab != 0
    if rest.all():
        rest = slice(None)  # no j = 0 or j = 1728 curve: skip the masks
    else:
        j0 = a_arr == 0
        j1728 = (b_arr == 0) & ~j0
        if j0.any():
            n0 = np.zeros(p, dtype=np.int64)
            if (p - 1) % 3:
                n0[1:] = 1
            else:
                n0[pw[::3]] = 3
            n0[0] = 1
            parts.append((j0, -read(n0, b_arr[j0])))
            del n0
        if j1728.any():
            h = (p - 1) // 2
            m2 = np.zeros(p)
            m2[pw[::2]] = chi_w[:h] + chi_w[h:]
            parts.append((j1728, -read(m2, a_arr[j1728])))
            del m2
        ab = ab[rest]
    if ab.size:
        a, b = a_arr[rest], b_arr[rest]
        sign = leg[ab]  # chi(a b)
        del ab
        inv = np.zeros(p, dtype=np.int64)
        inv[pw[1:]] = pw[:0:-1]  # 1/g^z = g^(p-1-z)
        inv[1] = 1
        ib = inv[b]
        del inv, b
        ib *= ib
        s = a * a % p * a % p * _mod_inplace(ib, p)
        del a, ib
        _mod_inplace(s, p)
        y = np.tile(pw[::2] + 3, 2)
        y -= 3 * pw
        y[0] -= 1
        y[1:] -= pw[:0:-1]
        m = np.bincount(_mod_inplace(y, p), weights=chi_w, minlength=p)
        del y, chi_w
        twist = read(m, s)
        del m, s
        np.subtract(-int(leg[p - 1]), twist, out=twist)
        twist *= sign
        if not parts:
            return twist
        parts.append((rest, twist))
    out = np.empty(len(a_arr), dtype=np.int64)
    for where, traces in parts:
        out[where] = traces
    return out


@dataclass(frozen=True)
class TraceRecord:
    p: int
    t: int
    a: int


def param_array(ts) -> np.ndarray:
    """Integer parameters as an int64 array, or as exact Python ints (dtype
    object) when one of them leaves int64."""
    if isinstance(ts, np.ndarray):
        if ts.dtype in (np.int64, object):
            return ts
        ts = ts.tolist()
    elif not isinstance(ts, (list, tuple, range)):
        ts = list(ts)
    try:
        return np.asarray(ts, dtype=np.int64)
    except OverflowError:
        return np.array(ts, dtype=object)


def _residues(ts, p: int) -> np.ndarray:
    """t mod p in [0, p) for every parameter, exact at any size."""
    return (param_array(ts) % p).astype(np.int64, copy=False)


def acos_once(a: np.ndarray, z_of) -> np.ndarray:
    """math.acos(z_of(v)) for every trace v in a, evaluated once per distinct v.

    Traces at p take at most 4 sqrt(p) + 1 values, so the loop is short.
    z_of maps an int64 array elementwise to the doubles the caller forms, so
    the angles are bit-identical to calling math.acos per trace (np.arccos
    may differ in the last bit).
    """
    lo = int(a.min()) if a.size else 0
    present = np.flatnonzero(np.bincount(a - lo)) + lo
    table = np.zeros(int(present[-1]) - lo + 1 if a.size else 0)
    table[present - lo] = [math.acos(z) for z in z_of(present).tolist()]
    return table[a - lo]


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


def hasse_limit(p: int) -> int:
    """isqrt(4p): a trace a at p satisfies the Hasse bound |a| <= 2 sqrt(p)
    exactly when |a| <= hasse_limit(p).  -1 for p < 0, so no trace passes."""
    return math.isqrt(4 * p) if p >= 0 else -1


def trace(c: CurveInstance, tbl: ResidueTable) -> int:
    """Frobenius trace via the Legendre sum over the shared table."""
    if tbl.p != c.p:
        raise ValueError("residue table built for a different prime")
    p = c.p
    x = np.arange(p, dtype=np.int64)
    rhs = (((x * x % p) * x % p) + c.a * x + c.b) % p
    a = -int(tbl.leg[rhs].sum())
    if abs(a) > hasse_limit(p):
        raise RuntimeError(f"Hasse violated: a={a}, p={p} (bug)")
    return a


def residue_traces(fam: FamilyPoly, p: int, ws, tbl: ResidueTable | None = None):
    """Traces for many residue parameters of one family at one prime.

    Returns (a_vec, good) where good[i] marks delta(ws[i]) != 0 mod p and
    a_vec[i] is the trace there (0 at bad slots, to be ignored).
    """
    if tbl is None:
        tbl = ResidueTable.build(p)
    ws = _residues(ws, p)
    a_par = poly_eval_mod(fam.f_coeffs, ws, p)
    b_par = poly_eval_mod(fam.g_coeffs, ws, p)
    del ws
    good = nonsingular(a_par, b_par, p)
    if not good.any():
        return np.zeros(good.size, dtype=np.int64), good
    if not good.all():  # otherwise the residues go on uncopied
        a_par, b_par = a_par[good], b_par[good]
    traced = _table_traces(tbl, a_par, b_par)
    del a_par, b_par
    lim = hasse_limit(p)
    if int(traced.max()) > lim or int(traced.min()) < -lim:
        raise RuntimeError(f"Hasse violated in trace table at p={p} (bug)")
    if traced.size == good.size:
        return traced, good
    out = np.zeros(good.size, dtype=np.int64)
    out[good] = traced
    return out, good


def batch_traces(p: int, fam: FamilyPoly, ts, cache=None):
    """Traces of E(t) at p for every parameter in ts, as arrays.

    Parameters are reduced mod p exactly (they may exceed int64) and each
    distinct residue is traced once.  The cache (when attached) is asked for
    the first parameter of each residue, one residue table serves the
    residues it lacks, and every good parameter goes back in one put_many.
    Returns (a, good): good[i] marks good reduction at ts[i], and a holds the
    traces of the good parameters in input order.
    """
    ts = param_array(ts)
    ws, first, where = np.unique(_residues(ts, p), return_index=True, return_inverse=True)
    if cache is not None:
        a_w, good_w = cache.lookup(p, ts[first])
    else:
        a_w, good_w = np.zeros(len(ws), dtype=np.int64), np.zeros(len(ws), dtype=bool)
    pending = np.flatnonzero(~good_w)  # a cached row is good by construction
    if pending.size:
        a_w[pending], good_w[pending] = residue_traces(fam, p, ws[pending])
    good = good_w[where]
    a = a_w[where[good]]
    if cache is not None and a.size:
        cache.put_many(p, ts[good], a)
    return a, good


def angle(rec: TraceRecord) -> float:
    """Frobenius angle psi in [0, pi] with cos(psi) = a / (2 sqrt(p))."""
    if abs(rec.a) > hasse_limit(rec.p):
        raise ValueError(f"trace {rec.a} violates the Hasse bound at p={rec.p}")
    return math.acos(rec.a / (2.0 * math.sqrt(rec.p)))


def residue_angles(fam: FamilyPoly, p: int, params):
    """Per-parameter (psis, good) arrays in input order, psi NaN at bad reduction.

    params may repeat (multiset semantics); each distinct residue is traced once.
    The full field in order, p strictly increasing residues, is traced as it
    stands, with no sort and no gather.
    """
    ws = _residues(params, p)
    where = None
    if not (ws.size == p and (ws[1:] > ws[:-1]).all()):
        ws, where = np.unique(ws, return_inverse=True)
    a_vec, good = residue_traces(fam, p, ws)
    del ws
    a_good = a_vec if good.all() else a_vec[good]
    del a_vec
    psi_of = np.full(good.size, np.nan)
    psi_of[good] = acos_once(a_good, lambda v: v / (2.0 * math.sqrt(p)))
    del a_good
    if where is None:
        return psi_of, good
    return psi_of[where], good[where]


def angle_sample(fam: FamilyPoly, p: int, params) -> AngleSample:
    """Angles of E(t) for every parameter with good reduction, in input order."""
    psis, good = residue_angles(fam, p, params)
    return AngleSample(psis[good])
