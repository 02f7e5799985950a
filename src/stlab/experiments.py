"""Runnable experiments: vertical counts with theorem brackets, mixed
averages over primes, exhaustive character-sum verification, bilinear-sum
diagnostics, the von Mangoldt identity decomposition (sigma 1..4), the
Mobius analogue (omega 1..4), and direct sums over prime parameters.

Brackets are reported without implied constants; factors of the shape
L^(c/log log L) with non-effective c are omitted and noted.  The character
sum bound is the one exact inequality here: exhaustive mode asserts it and a
violation is treated as an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NondegeneracyError, RefusedError
from .family import FamilyPoly, check_nondeg_global, check_nondeg_mod_p
from .finite_field import TABLE_LIMIT, ResidueTable, mult_order, require_table_size
from .param_sets import (
    divisor_counts,
    erdos_delta,
    geometric,
    order_sum,
    prime_array,
    primes_upto,
    product_residues,
    require_size,
    sieve_arith,
    subgroup,
    subgroup_index,
)
from .sato_tate import Interval, chebyshev_U, mu_st, sym_sum, sym_terms
from .traces import (
    acos_once,
    angle_sample,
    batch_traces,
    param_array,
    residue_angles,
    residue_traces,
)

PRIME2_NOTE = "bracket omits the L^(c/log log L) factor; c is not effective"

# L of the sums over t <= L.  Over the interpreter's own, a run peaks at about
# 11 bytes per unit of L for mobius_sums and 12 for vaughan_decompose (psi,
# their one float64 array over [0, L], the int8 Mobius table and the von
# Mangoldt support) and 5 for prime_sym_sum (the prime mask, the primes as
# int64 and their angles), by ru_maxrss at L = 10**6 and 4 * 10**6 with
# p = 1009: about 0.24 and 0.5 GB at the limits.  Those two figures hold at
# the default cuts.  _type_ii's arrays over M < m <= L / K and
# k <= L / (M + 1) add up to about 20 bytes per unit of L / K and 32 per unit
# of L / (int(M) + 1), and vaughan_decompose's dense lambda over [0, L / K]
# 8 more per unit of L / K (ru_maxrss at the same L and p, K and M from 1 to
# 10 and the default): 44-46 bytes per unit of L at K = M = 1.  _cuts
# charges 19 bytes per unit of L for the rest, the figure from when each sum
# held a second float64 array over [0, L], so it errs on the safe side, and
# refuses the cuts that would take a run of either sum past IDENTITY_BUDGET
# bytes; the default cuts at IDENTITY_LIMIT are charged 0.384 GB.
IDENTITY_LIMIT = 2 * 10**7
IDENTITY_BUDGET = 4 * 10**8
PRIME_SUM_LIMIT = 10**8
# mixed_geometric builds lam^1 .. lam^T as Python ints: about
# T^2 log2|lam| / 15 bytes (4 bytes per 30-bit digit).  Traced at T = 16000
# with lam = 2, 3 and 10, T = 4000 with lam = 10**6 + 3 and T = 2000 with
# lam = 2**61 - 1, they held 17.7, 27.7, 14.5, 21.4 and 16.3 MB, 0.5-3.5%
# above that figure (ru_maxrss 8-52% above).  mixed_geometric refuses a T
# and lam whose powers would pass POWERS_BUDGET bytes by it.
POWERS_BUDGET = 4 * 10**8
# mixed_geometric --cache writes a row `p,t,a` for each prime p <= x and
# good t = lam^1 .. lam^T, whose decimal t alone take about
# T^2 log10|lam| / 2 bytes per prime, and a warm run loads them all.  Over
# the interpreter's own, a warm run held about 40 bytes per row when every t
# fits int64 (numpy's loader; ru_maxrss at x = 2 * 10**4 and 8 * 10**4,
# lam = 2, T = 60: 42 and 38) and 290 bytes per row plus 2.5 per byte of
# the file otherwise (the exact line parser, one Python int per t; at
# x = 4000, T = 63 and 120, and x = 1000, T = 300 and 600, lam = 2: 335, 339,
# 408 and 533 bytes per row).  mixed_geometric charges 48 and 290 + 2.5 per
# byte, with at most 2 len(str(x)) + 5 + t log10|lam| bytes in row t and
# fewer than 1.25506 x / log x primes (Rosser and Schoenfeld), and with a
# cache attached refuses a run past CACHE_BUDGET bytes by that charge.
CACHE_BUDGET = 4 * 10**8
# L of the prime parameter sets (angles --kind primes, experiment
# vertical-primes and mixed-primes).  Over the interpreter's own, the first
# two peak at about 5.5 bytes per unit of L and mixed-primes at about 7 (the
# prime mask, the primes as Python ints and their residues; ru_maxrss at
# L = 4 * 10**6 and 1.6 * 10**7 with p = 1009 and x = 11): about 0.28 and
# 0.35 GB at the limit.
PRIMES_LIMIT = 5 * 10**7
# x of the mixed runs.  The driver holds the primes up to x and one row per
# prime, about 6.5 bytes per unit of x over the interpreter's own (ru_maxrss
# at x = 10**7 and 4 * 10**7 with the per-prime trace work stubbed out): 55 MB
# at the limit.  A larger x could only fail late: every prime up to x is
# traced, and a prime above TABLE_LIMIT is refused after all smaller ones.
MIXED_X_LIMIT = TABLE_LIMIT
# Work of verify charsum.  A run makes n_max passes over its period (the p - 1
# values of F_p*, or the r of --subgroup-r), one FFT each, or n_max * count
# in sampled mode, one character sum each; a pass costs one unit per value
# and _PASS_COST more (its Python work and report).  A unit took 100 ns
# exhaustive at p = 10007 (--n-max 50 and 200) and 290 ns at p = 1000003
# (5 and 20), 15 ns sampled at p = 10007 (--n-max 2, --count 100 and 1000)
# and 32 ns at p = 100003 (1, 100 and 400; 25 and 39 ns when each character
# was formed once per n), and a pass 30 us at p = 5 (--n-max 10**4 and
# 10**5), so a run at the limit takes 5-40 s.  Each pass
# holds about 600 bytes of report over the interpreter's own (ru_maxrss at
# p = 5), 0.3 GB at the limit, and each sampled character 16 bytes more.
# charsum_verify refuses more than CHARSUM_WORK_LIMIT units before the
# residue table is built.
CHARSUM_WORK_LIMIT = 1 << 27
_PASS_COST = 256
# Work of the sym_n sums of sums vaughan, sums mobius and sums prime-sym:
# U_n is n steps of its recurrence over the values summed (the p residues, or
# at most L primes), a step costing one unit per value and _STEP_COST more.
# A unit took 1.3-3 ns (10**4 and 10**6 values, n = 20 and 200) and a step
# over three values 1.3 us (n = 10**5 and 10**6), so the recurrence of a run
# at the limit takes 5-13 s.  Each sum refuses more than SYM_WORK_LIMIT units
# before any sieve.
SYM_WORK_LIMIT = 1 << 32
_STEP_COST = 1024

# charsum_verify holds the residue table, the traces over F_p* and one batch
# of complex rows at a time: about 210 bytes per unit of p over the
# interpreter's own, whatever n_max (ru_maxrss at --n-max 5: +102.0, +202.2
# and +402.6 MiB at p = 500009, 1000003 and 2000003; 250 bytes before the
# rows shared one in-place batch), so 1.47 GB at CHARSUM_PRIME_LIMIT.  A
# larger p is refused before the residue table is built.
CHARSUM_PRIME_LIMIT = 7_000_000

# exhaustive charsum_verify transforms its sym_n rows in batches of at most
# CHARSUM_BATCH_ELEMENTS complex values, one numpy.fft call per batch.  A call
# sets up its plan once (at a length with a large prime factor, such as
# 10006 = 2 * 5003, pocketfft's Bluestein set-up), and it transforms each row
# of a batch exactly as it would that row alone.  One ifft of length 10006
# took 1.31 ms, and five rows in one call 0.66 ms each (2 vCPUs, numpy
# 2.4.6).  The cap keeps a batch at 4 MiB: near p = 10**6 it is one row.
CHARSUM_BATCH_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# report records


@dataclass(frozen=True)
class VerticalReport:
    p: int
    set_descriptor: str
    count: int
    m: int
    expected: float
    empirical_error: float
    theorem_bracket: float
    ratio: float
    bracket_note: str = ""


@dataclass(frozen=True)
class MixedReport:
    x: int
    set_descriptor: str
    normalized_average: float
    mu: float
    deviation: float
    theorem_bracket: float
    raw_count: int
    denominator: int
    pi_x: int
    skipped_primes: tuple[int, ...]
    skipped_params: int
    per_prime: tuple[tuple[int, int, int], ...] | None = None  # (p, count, good)
    order_sum_half: float | None = None
    bracket_note: str = ""


@dataclass(frozen=True)
class CharSumReport:
    p: int
    n: int
    mode: str
    max_abs: float
    bound: float
    worst_character_index: int
    subgroup_r: int | None = None


@dataclass(frozen=True)
class VaughanReport:
    p: int
    L: int
    K: float
    M: float
    n: int
    direct_sum: float
    sigma1: float
    sigma2: float
    sigma3: float
    sigma4: float
    lambda_bracket: float


@dataclass(frozen=True)
class MobiusReport:
    p: int
    L: int
    n: int
    abs_mu_sum: float
    mu_sum: float
    omega1: float
    omega2: float
    omega3: float
    omega4: float


# ---------------------------------------------------------------------------
# shared plumbing


def _require_nondeg_mod_p(fam: FamilyPoly, p: int):
    """A prime 3 < p <= TABLE_LIMIT where fam is nondegenerate, before any set or sieve."""
    chk = check_nondeg_mod_p(fam, p)
    if not chk.ok:
        raise NondegeneracyError(f"family degenerate mod {p}: {chk.reason}")
    require_table_size(p)


def _require_nondeg_global(fam: FamilyPoly):
    chk = check_nondeg_global(fam)
    if not chk.ok:
        raise NondegeneracyError(f"family degenerate over Q: {chk.reason}")


def _require_degree(n: int):
    if n < 1:
        raise ValueError(f"sym degree n must be >= 1, got {n}")


def _require_sym_work(n: int, values: int):
    """Refuse n recurrence steps over `values` values past SYM_WORK_LIMIT."""
    work = n * (values + _STEP_COST)
    if work > SYM_WORK_LIMIT:
        raise RefusedError(f"sym degree n={n} over {values} values is {work} work units, "
                           f"above the {SYM_WORK_LIMIT} limit")


def _vertical_report(fam, p, descriptor, elements, iv, bracket, note=""):
    psis, good = residue_angles(fam, p, elements)
    count = int((good & (psis >= iv.alpha) & (psis <= iv.beta)).sum())
    m = int(good.sum())
    expected = mu_st(iv) * m
    err = abs(count - expected)
    return VerticalReport(p, descriptor, count, m, expected, err,
                          bracket, err / bracket, note)


# ---------------------------------------------------------------------------
# vertical experiments (fixed prime, structured parameter set)


def vertical_subgroup(fam: FamilyPoly, p: int, r: int, iv: Interval) -> VerticalReport:
    """Angle count over the order-r subgroup; bracket r^(1/2) p^(1/4)."""
    _require_nondeg_mod_p(fam, p)
    pset = subgroup(p, r)
    bracket = math.sqrt(r) * p**0.25
    return _vertical_report(fam, p, pset.descriptor, pset.elements, iv, bracket)


def vertical_product(fam: FamilyPoly, p: int, U, V, iv: Interval) -> VerticalReport:
    """Pair count over the product multiset U*V; bracket (#U #V)^(3/4) p^(1/4)."""
    _require_nondeg_mod_p(fam, p)
    pset = product_residues(U, V, p)
    size = len(pset.elements)
    bracket = size**0.75 * p**0.25
    return _vertical_report(fam, p, pset.descriptor, pset.elements, iv, bracket)


def vertical_primes(fam: FamilyPoly, p: int, L: int, iv: Interval) -> VerticalReport:
    """Count over prime parameters l <= L; bracket L p^(-1/4) + L^(11/12) + L^(3/4) p^(1/4)."""
    _require_nondeg_mod_p(fam, p)
    if L < 3:
        raise ValueError("L must be >= 3")
    require_size(L, PRIMES_LIMIT, "L")
    pset = primes_upto(L)
    bracket = L * p**-0.25 + L ** (11.0 / 12.0) + L**0.75 * p**0.25
    return _vertical_report(fam, p, pset.descriptor, pset.elements, iv, bracket,
                            note=PRIME2_NOTE)


# ---------------------------------------------------------------------------
# mixed experiments (prime and parameter both vary)


def _interval_count_at_prime(fam, p, param_mults, iv, cache):
    """Weighted (in-interval, good, skipped) at one prime; param_mults is the
    pair (parameters, int64 multiplicities) of arrays."""
    ts, mults = param_mults
    a, good = batch_traces(p, fam, ts, cache=cache)
    inv = 1.0 / (2.0 * math.sqrt(p))
    psi = acos_once(a, lambda v: v * inv)
    w = mults[good]
    n_good = int(w.sum())
    n_in = int(w[(psi >= iv.alpha) & (psi <= iv.beta)].sum())
    return n_in, n_good, int(mults.sum()) - n_good


def _run_mixed(fam, x, params, mults, iv, desc, bracket_of, cache, threads,
               keep_per_prime, skip_divisors_of: int | None = None,
               **extra) -> MixedReport:
    """The mixed report over the primes p <= x, counted one prime after another.

    params carry int multiplicities mults; the denominator is pi(x) times
    their total.  bracket_of(x) is evaluated once x is checked, and extra
    holds the report fields one family adds.  `threads` must be >= 1 and
    has no other effect: a thread pool over the primes measured slower.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _require_nondeg_global(fam)
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    all_primes = primes_upto(int(x)).elements
    skipped = [q for q in (2, 3) if q <= x]
    arrays = (param_array(params), np.array(mults, dtype=np.int64))
    raw = skipped_params = 0
    per_prime = []
    for p in all_primes:
        if p < 5:
            continue
        if skip_divisors_of is not None and skip_divisors_of % p == 0:
            skipped.append(p)
            continue
        n_in, n_good, n_bad = _interval_count_at_prime(fam, p, arrays, iv, cache)
        raw += n_in
        skipped_params += n_bad
        per_prime.append((p, n_in, n_good))
    pi_x = len(all_primes)
    denom = pi_x * sum(mults)
    avg = raw / denom
    mu = mu_st(iv)
    return MixedReport(x, desc, avg, mu, abs(avg - mu), bracket_of(x), raw, denom,
                       pi_x, tuple(skipped), skipped_params,
                       tuple(per_prime) if keep_per_prime else None, **extra)


def mixed_product(fam: FamilyPoly, x: int, U, V, iv: Interval, cache=None,
                  threads: int = 1, keep_per_prime: bool = False) -> MixedReport:
    """Normalized average of per-prime pair counts over primes p <= x.

    Accumulates sum_p M_p exactly (pairs with p | uv stay in whenever the
    reduced parameter keeps good reduction); bracket (x / (#U #V))^(1/4).
    """
    require_size(x, MIXED_X_LIMIT, "x")
    U, V = list(U), list(V)
    if not U or not V:
        raise ValueError("U and V must be non-empty")
    mults: dict[int, int] = {}
    for u in U:
        for v in V:
            mults[u * v] = mults.get(u * v, 0) + 1
    params, counts = zip(*sorted(mults.items()))
    size = len(U) * len(V)
    return _run_mixed(fam, x, params, counts, iv,
                      f"mixed-product:x={x}:#U={len(U)}:#V={len(V)}",
                      lambda x: (x / size) ** 0.25, cache, threads, keep_per_prime)


def mixed_geometric(fam: FamilyPoly, x: int, lam: int, T: int, iv: Interval,
                    cache=None, threads: int = 1,
                    keep_per_prime: bool = False) -> MixedReport:
    """Normalized average over parameters lam^t, 1 <= t <= T, and primes p <= x.

    Primes dividing lam are skipped and tallied.  Reports the order sum
    S_(1/2)(x; lam) alongside; bracket (log x)^(-3 delta/4) (log log x)^(-9/8).
    """
    if abs(lam) < 2:
        raise ValueError("|lambda| must be >= 2")
    if T < 1:
        raise ValueError("T must be >= 1")
    if x < 3:
        raise ValueError("x must be >= 3")
    require_size(x, MIXED_X_LIMIT, "x")
    # bytes, by the POWERS_BUDGET comment; a T past the budget is past it at
    # every |lam| >= 2, and T * T may not convert to a float
    need = math.inf if T > POWERS_BUDGET else T * T * math.log2(abs(lam)) / 15
    if need > POWERS_BUDGET:
        raise RefusedError(f"T={T} powers of a {abs(lam).bit_length()}-bit lambda need about "
                           f"{need / 1e9:.2g} GB, above the {POWERS_BUDGET / 1e9:g} GB budget")
    if cache is not None:  # bytes, by the CACHE_BUDGET comment
        primes = 1.25506 * x / math.log(x)
        if T * math.log2(abs(lam)) < 63:
            need = primes * T * 48
        else:
            chars = T * (2 * len(str(x)) + 5) + math.log10(abs(lam)) * T * (T + 1) / 2
            need = primes * (290 * T + 2.5 * chars)
        if need > CACHE_BUDGET:
            raise RefusedError(f"cache rows of T={T} powers of a {abs(lam).bit_length()}-bit "
                               f"lambda at x={x} need about {need / 1e9:.2g} GB, above the "
                               f"{CACHE_BUDGET / 1e9:g} GB budget")
    d = erdos_delta()
    return _run_mixed(fam, x, [lam**t for t in range(1, T + 1)], [1] * T, iv,
                      f"mixed-geom:x={x}:lambda={lam}:T={T}",
                      lambda x: math.log(x) ** (-0.75 * d) * math.log(math.log(x)) ** -1.125,
                      cache, threads, keep_per_prime, skip_divisors_of=lam,
                      order_sum_half=order_sum(int(x), lam, 0.5),
                      bracket_note="implied constant depends on lambda")


def mixed_primes(fam: FamilyPoly, x: int, L: int, iv: Interval, cache=None,
                 threads: int = 1, keep_per_prime: bool = False) -> MixedReport:
    """Normalized average over prime parameters l <= L and primes p <= x.

    Bracket x^(-1/4) + L^(-1/12) + L^(-1/4) x^(1/4).
    """
    if L < 3:
        raise ValueError("L must be >= 3")
    require_size(x, MIXED_X_LIMIT, "x")
    require_size(L, PRIMES_LIMIT, "L")
    ells = primes_upto(L).elements
    return _run_mixed(fam, x, ells, [1] * len(ells), iv, f"mixed-primes:x={x}:L={L}",
                      lambda x: x**-0.25 + L ** (-1.0 / 12.0) + L**-0.25 * x**0.25,
                      cache, threads, keep_per_prime, bracket_note=PRIME2_NOTE)


# ---------------------------------------------------------------------------
# character sums


def charsum_verify(fam: FamilyPoly, p: int, n_max: int, mode: str = "exhaustive",
                   seed: int | None = None, count: int | None = None,
                   subgroup_r: int | None = None) -> list[CharSumReport]:
    """max over characters chi of |sum_w sym_n(psi(E(w))) chi(w)| versus the
    exact bound (n+1) deg(delta) sqrt(p).

    Exhaustive mode covers all p-1 characters (via an FFT over values ordered
    by discrete log) and asserts the bound; sampled mode draws `count`
    character indices from a seeded generator and only reports.
    """
    _require_nondeg_mod_p(fam, p)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mode == "sampled":
        if count is None or count < 1:
            raise ValueError("sampled mode needs a positive count")
        if seed is None:  # characters drawn from OS entropy would change the report
            raise ValueError("sampled mode needs a seed")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    # F_p* ordered by index, w_of[z] = g^z, or its subgroup of order r, h^i
    # with h = g^((p-1)/r)
    step = 1 if subgroup_r is None else subgroup_index(p, subgroup_r)
    period = (p - 1) // step
    if p > CHARSUM_PRIME_LIMIT:
        raise RefusedError(f"character sums at p={p} exceed the {CHARSUM_PRIME_LIMIT} limit")
    work = n_max * (count if mode == "sampled" else 1) * (period + _PASS_COST)
    if work > CHARSUM_WORK_LIMIT:
        sampled = f", count={count}" if mode == "sampled" else ""
        raise RefusedError(f"n_max={n_max}{sampled} over {period} values is {work} "
                           f"work units, above the {CHARSUM_WORK_LIMIT} limit")
    tbl = ResidueTable.build(p)
    w_of = tbl.pw[::step]

    a_vec, good = residue_traces(fam, p, w_of, tbl)
    z = a_vec / (2.0 * math.sqrt(p))
    mask = good.astype(np.float64)
    bound_unit = fam.deg_delta * math.sqrt(p)

    if mode == "exhaustive":
        mode_str = "exhaustive"
        rows = _charsum_rows(z, mask, n_max, p, bound_unit)
    else:
        mode_str = f"sampled(seed={seed},count={count})"
        # (max_abs, worst) per n; the first s of a maximal value keeps it.  Each
        # character is formed once and the recurrence re-run under it, so no
        # n_max rows are held.
        best = [(-1.0, 0)] * n_max
        zs = np.arange(period, dtype=np.float64)
        for s in np.sort(np.random.default_rng(seed).integers(0, p - 1, size=count)):
            # characters repeat with period `period` on the ordered values
            e = np.exp(2j * math.pi * ((s % period) * zs) / period)
            for n, u in sym_terms(z, n_max):
                val = abs(np.sum(u * mask * e))  # zero at bad slots
                if val > best[n - 1][0]:
                    best[n - 1] = (float(val), int(s))
        rows = [(n, *nb) for n, nb in enumerate(best, start=1)]
    return [CharSumReport(p, n, mode_str, max_abs, (n + 1) * bound_unit, worst, subgroup_r)
            for n, max_abs, worst in rows]


def _charsum_rows(z, mask, n_max: int, p: int, bound_unit: float):
    """(n, max_abs, worst) over every character, each row checked against its bound.

    S(chi_s) = sum_z y[z] e(+ s z / period) is the inverse DFT of the row
    y = U_n(z) * mask, scaled by its length.  The rows of a batch share one
    complex array and one transform, in place.
    """
    period = mask.size
    terms = sym_terms(z, n_max)
    rows = min(n_max, max(1, CHARSUM_BATCH_ELEMENTS // period))
    batch = np.empty((rows, period), dtype=complex)
    out = []
    for n0 in range(1, n_max + 1, rows):
        S = batch[:n_max + 1 - n0]  # the last batch may be short
        S.imag = 0.0
        for row, (_, u) in zip(S.real, terms):
            np.multiply(u, mask, out=row)  # zero at bad slots
        np.fft.ifft(S, axis=1, out=S)
        S *= period
        for n, row in enumerate(S, start=n0):
            mags = np.abs(row)
            worst = int(np.argmax(mags))
            max_abs = float(mags[worst])
            bound = (n + 1) * bound_unit
            if max_abs > bound + 1e-6:
                raise RuntimeError(
                    f"character-sum bound violated at p={p}, n={n}: "
                    f"{max_abs} > {bound} (bug)")
            out.append((n, max_abs, worst))
    return out


# ---------------------------------------------------------------------------
# single and bilinear sums (exact values with diagnostic brackets)


def incomplete_geom_sum(fam: FamilyPoly, p: int, lam: int, T: int, n: int):
    """Exact sum over lam^t, t <= T (T at most the order); bracket n sqrt(p) log p."""
    _require_degree(n)
    _require_nondeg_global(fam)
    r = mult_order(lam, p)
    if T > r:
        raise ValueError(f"T={T} exceeds the multiplicative order {r}")
    pset = geometric(lam, T, p)
    value = sym_sum(angle_sample(fam, p, pset.elements), n).real
    return value, n * math.sqrt(p) * math.log(p)


def interval_sum(fam: FamilyPoly, p: int, k: int, M: int, N: int, n: int):
    """Exact sum over t = km, M < m <= M+N; bracket n (N p^(-1/2) + p^(1/2) log p)."""
    _require_degree(n)
    if math.gcd(k, p) != 1:
        raise ValueError("k must be coprime to p")
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return 0.0, n * math.sqrt(p) * math.log(p)
    params = [k * m for m in range(M + 1, M + N + 1)]
    value = sym_sum(angle_sample(fam, p, params), n).real
    return value, n * (N / math.sqrt(p) + math.sqrt(p) * math.log(p))


def bilinear_sum(fam: FamilyPoly, p: int, U, V, alpha_weights, beta_weights, n: int):
    """Exact weighted double sum over pairs (u, v) with p not dividing uv.

    Bracket n A B sqrt(#U (maxU/p + 1) #V (maxV/p + 1) p) with A, B the
    weight sup norms.
    """
    _require_degree(n)
    U, V = list(U), list(V)
    aw = list(alpha_weights)
    bw = list(beta_weights)
    if len(aw) != len(U) or len(bw) != len(V):
        raise ValueError("weight lengths must match the sets")
    pairs = [(i, j) for i in range(len(U)) for j in range(len(V))
             if (U[i] * V[j]) % p != 0]
    params = [U[i] * V[j] for i, j in pairs]
    psis, good = residue_angles(fam, p, params)
    value = 0j
    if good.any():
        w = np.array([aw[i] * bw[j] for (i, j), g in zip(pairs, good) if g])
        value = complex(np.sum(w * chebyshev_U(n, np.cos(psis[good]))))
    A = max((abs(a) for a in aw), default=0.0)
    B = max((abs(b) for b in bw), default=0.0)
    ucap, vcap = max(U), max(V)
    bracket = n * A * B * math.sqrt(len(U) * (ucap / p + 1) * len(V) * (vcap / p + 1) * p)
    return value, bracket


# ---------------------------------------------------------------------------
# identity decompositions over t <= L


def _psi_of_t(fam: FamilyPoly, p: int, L: int, n: int, psi_fn=None) -> np.ndarray:
    """Array indexed by t in [0, L]: sym_n(psi(E(t))) times the good-reduction
    indicator, or psi_fn(t) when the surrogate hook is supplied."""
    if psi_fn is not None:
        out = np.zeros(L + 1)
        out[1:] = [psi_fn(t) for t in range(1, L + 1)]
        return out
    ws = np.arange(p, dtype=np.int64)
    a_vec, good = residue_traces(fam, p, ws)
    z = a_vec / (2.0 * math.sqrt(p))
    res_vals = np.where(good, chebyshev_U(n, z), 0.0)
    out = np.resize(res_vals[:L + 1], L + 1)  # out[t] = res_vals[t % p]
    out[0] = 0.0
    return out


def _mobius_window_coeffs(mu, K: float, kmax: int) -> np.ndarray:
    """c[k] = sum of mu(d) over d | k with d <= K, for k <= kmax."""
    c = np.zeros(kmax + 1, dtype=np.int64)
    for d in range(1, min(int(K), kmax) + 1):
        md = int(mu[d])
        if md:
            c[d::d] += md
    return c


# Entries of one suffix-sum chunk in vaughan_decompose's sigma3.
_SUFFIX_CHUNK = 1 << 16


def _suffix_sums(arr: np.ndarray, chunk: int = _SUFFIX_CHUNK):
    """np.cumsum(arr[::-1]), the suffix sums last first, one chunk at a time:
    each chunk after the first is summed behind the running sum carried from
    the last, and np.cumsum adds in sequence, so every chunk holds the bits
    of one np.cumsum over the whole.  Each chunk is a view of one reused
    buffer, which the caller may overwrite before asking for the next."""
    rev = arr[::-1]
    buf = np.empty(min(rev.size, chunk) + 1)
    for i in range(0, rev.size, chunk):
        piece = rev[i:i + chunk]
        run = buf[1:piece.size + 1]
        if i:
            run[...] = piece
            np.cumsum(buf[:piece.size + 1], out=buf[:piece.size + 1])  # behind buf[0]
        else:
            np.cumsum(piece, out=run)
        carry = run[-1]
        yield run
        buf[0] = carry


def _cuts(L: int, K: float | None, M: float | None) -> tuple[float, float]:
    """Validated cut parameters; K and M default to L^(1/3)."""
    if L < 2:
        raise ValueError("L must be >= 2")
    if K is None:
        K = L ** (1.0 / 3.0)
    if M is None:
        M = L ** (1.0 / 3.0)
    if not (K >= 1 and M >= 1 and K * M <= L + 1e-9):  # so NaN is refused too
        raise ValueError("need K, M >= 1 and K*M <= L")
    require_size(L, IDENTITY_LIMIT, "L")
    need = L * (19 + 20 / K + 32 / (int(M) + 1))  # bytes, by the IDENTITY_LIMIT comment
    if need > IDENTITY_BUDGET:
        raise RefusedError(f"cuts K={K:g}, M={M:g} at L={L} need about {need / 1e9:.2g} GB, "
                           f"above the {IDENTITY_BUDGET / 1e9:g} GB budget")
    return K, M


def _type_ii(weights, mu, psi, L: int, K: float, M: float) -> float:
    """|sum over M < m <= L/K, K < k <= L/m of weights[m] c[k] psi[km]|, with
    c from the Mobius table mu (see _mobius_window_coeffs).

    Row m holds c[k] psi[km] for K < k <= L/m; its sum is np.sum of that
    C-contiguous row.  Ascending m have non-increasing row lengths, so each
    run of one length is read by one 2-D gather, whose .sum(axis=1) is the
    same pairwise sum row by row.  The weighted row sums are then added in
    ascending m.
    """
    Mi, Ki = int(M), int(K)
    kmax = L // (Mi + 1) if L // (Mi + 1) >= 1 else 0
    c = _mobius_window_coeffs(mu, K, max(kmax, 1))
    ks, cs = np.arange(Ki + 1, kmax + 1), c[Ki + 1:]  # a row of length n reads ks[:n]
    ms = np.arange(Mi + 1, int(L / K) + 1)
    ms = ms[(weights[ms] != 0.0) & (L // ms > Ki)]
    lengths = L // ms - Ki
    starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
    row_sums = np.empty(ms.size)
    for i, j, n in zip(starts, starts[1:] + [ms.size], lengths[starts].tolist()):
        row_sums[i:j] = (cs[:n] * psi[ms[i:j, None] * ks[:n]]).sum(axis=1)
    total = 0.0
    for w, s in zip(weights[ms].tolist(), row_sums.tolist()):
        total += w * s
    return abs(total)


def vaughan_decompose(fam: FamilyPoly, p: int, L: int, K: float | None = None,
                      M: float | None = None, n: int = 1,
                      psi_fn=None) -> VaughanReport:
    """Direct Lambda-weighted sum and its four-piece identity decomposition.

    Defaults K = M = L^(1/3); the psi_fn hook replaces the curve values
    (psi == 1 reproduces the Chebyshev psi function as a plumbing check).
    """
    _require_degree(n)
    K, M = _cuts(L, K, M)
    _require_nondeg_mod_p(fam, p)
    _require_sym_work(n, p)
    tables = sieve_arith(L)
    big_logs = tables.big_logs  # before psi, so that forming them adds nothing to its peak
    psi = _psi_of_t(fam, p, L, n, psi_fn)

    Mi, Ki = int(M), int(K)
    lam = tables.lam_upto(max(Mi, int(L / K)))  # what sigma1 and sigma4 read
    sigma1 = abs(float(np.sum(lam[1:Mi + 1] * psi[1:Mi + 1])))
    sigma4 = _type_ii(lam, tables.mu, psi, L, K, M)
    del lam

    km = int(K * M)
    sigma2 = 0.0
    for k in range(1, km + 1):
        sigma2 += abs(float(psi[k::k].sum()))

    sigma3 = 0.0
    for k in range(1, Ki + 1):
        sigma3 += float(np.max([np.abs(s, out=s).max() for s in _suffix_sums(psi[k::k])]))

    # The direct sum, written over psi, which nothing reads after it: lam * psi
    # is log q * psi at the prime powers and 0.0 * psi elsewhere, signed zeros
    # and all, so its np.sum is that of the dense product.
    small = tables.logs * psi[tables.powers]
    big = big_logs * psi[tables.big]
    psi *= 0.0
    psi[tables.powers] = small
    psi[tables.big] = big
    direct = float(np.sum(psi[1:L + 1]))

    bracket = L / math.sqrt(p) + L ** (5.0 / 6.0) + math.sqrt(L * p)
    return VaughanReport(p, L, K, M, n, direct, sigma1, sigma2, sigma3, sigma4,
                         bracket)


def prime_sym_sum(fam: FamilyPoly, p: int, L: int, n: int):
    """Exact sum over prime parameters l <= L with good reduction.

    Returns (value, bracket, prime1_bracket_hint): the first bracket is
    L p^(-1/2) + L^(5/6) + (L p)^(1/2); the second instantiates the
    non-effective bound n^A pi(L) (1 + p/L)^(1/12) p^(-eta) at the hint
    values A = 1, eta = 1/48 and is diagnostic only.
    """
    _require_degree(n)
    if L < 2:
        raise ValueError("L must be >= 2")
    require_size(L, PRIME_SUM_LIMIT, "L")
    _require_nondeg_mod_p(fam, p)
    _require_sym_work(n, L)
    ells = prime_array(L)
    value = sym_sum(angle_sample(fam, p, ells), n).real
    bracket = L / math.sqrt(p) + L ** (5.0 / 6.0) + math.sqrt(L * p)
    prime1 = n**1.0 * len(ells) * (1.0 + p / L) ** (1.0 / 12.0) * p**-(1.0 / 48.0)
    return value, bracket, prime1


def mobius_sums(fam: FamilyPoly, p: int, L: int, n: int, K: float | None = None,
                M: float | None = None) -> MobiusReport:
    """Mobius-weighted sums over t <= L plus the omega 1..4 decomposition."""
    _require_degree(n)
    K, M = _cuts(L, K, M)
    _require_nondeg_mod_p(fam, p)
    _require_sym_work(n, p)
    mu = sieve_arith(L).mu  # lambda goes at once, its big primes' logs never formed
    psi = _psi_of_t(fam, p, L, n)

    cut = int(max(K, M))
    omega1 = abs(float(np.sum(mu[1:cut + 1] * psi[1:cut + 1])))

    tau = divisor_counts(int(K * M)).tolist()
    omega2 = 0.0
    for k in range(1, len(tau)):
        omega2 += tau[k] * abs(float(psi[k::k].sum()))

    omega4 = _type_ii(mu, mu, psi, L, K, M)

    # The two weighted sums, written over psi, which nothing reads after them.
    # mu stays int8: a weight 0 or +-1 times a float64 is the same product as
    # in float64.  mu * (mu * psi) is |mu| * psi bit for bit: +-1 twice gives
    # psi back, and 0 * (0 * psi) keeps the sign of zero of 0 * psi.
    rest = psi[1:]
    mu_sum = float(np.sum(np.multiply(mu[1:], rest, out=rest)))
    abs_mu = float(np.sum(np.multiply(mu[1:], rest, out=rest)))

    return MobiusReport(p, L, n, abs_mu, mu_sum, omega1, omega2, 0.0, omega4)
