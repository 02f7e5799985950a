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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NondegeneracyError
from .family import FamilyPoly, check_nondeg_global, check_nondeg_mod_p, fingerprint_hex
from .finite_field import ResidueTable, mult_order, power_table, primitive_root
from .param_sets import (
    erdos_delta,
    geometric,
    order_sum,
    primes_upto,
    product_residues,
    sieve_arith,
    subgroup,
)
from .sato_tate import Interval, chebyshev_U, mu_st, sym_terms
from .traces import acos_once, batch_traces, param_array, residue_angles, residue_traces

PRIME2_NOTE = "bracket omits the L^(c/log log L) factor; c is not effective"


# ---------------------------------------------------------------------------
# report records


@dataclass(frozen=True)
class VerticalReport:
    p: int
    set_descriptor: str
    interval: Interval
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
    interval: Interval
    normalized_average: float
    mu: float
    deviation: float
    theorem_bracket: float
    raw_count: int
    denominator: float
    pi_x: int
    skipped_primes: tuple[int, ...]
    skipped_params: int
    per_prime: tuple[tuple[int, int, int], ...] | None = None  # (p, count, good)
    order_sum_half: float | None = None
    bracket_note: str = ""


@dataclass(frozen=True)
class CharSumReport:
    p: int
    family: str
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
    chk = check_nondeg_mod_p(fam, p)
    if not chk.ok:
        raise NondegeneracyError(f"family degenerate mod {p}: {chk.reason}")


def _require_nondeg_global(fam: FamilyPoly):
    chk = check_nondeg_global(fam)
    if not chk.ok:
        raise NondegeneracyError(f"family degenerate over Q: {chk.reason}")


def _require_degree(n: int):
    if n < 1:
        raise ValueError(f"sym degree n must be >= 1, got {n}")


def _count_interval(psis, good, iv: Interval, weights=None) -> tuple[int, int]:
    inside = good & (psis >= iv.alpha) & (psis <= iv.beta)
    if weights is None:
        return int(inside.sum()), int(good.sum())
    w = np.asarray(weights)
    return int(w[inside].sum()), int(w[good].sum())


def _vertical_report(fam, p, descriptor, elements, iv, bracket, note="", weights=None):
    psis, good = residue_angles(fam, p, elements)
    count, m = _count_interval(psis, good, iv, weights)
    expected = mu_st(iv) * m
    err = abs(count - expected)
    return VerticalReport(p, descriptor, iv, count, m, expected, err,
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


def _run_mixed(fam, x, param_mults, iv, cache, threads, keep_per_prime,
               skip_divisors_of: int | None = None):
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _require_nondeg_global(fam)
    all_primes = primes_upto(int(x)).elements
    skipped = [q for q in (2, 3) if q <= x]
    run_primes = []
    for p in all_primes:
        if p < 5:
            continue
        if skip_divisors_of is not None and skip_divisors_of % p == 0:
            skipped.append(p)
            continue
        run_primes.append(p)
    arrays = (param_array([t for t, _ in param_mults]),
              np.array([m for _, m in param_mults], dtype=np.int64))

    def work(p):
        return _interval_count_at_prime(fam, p, arrays, iv, cache)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(work, run_primes))
    else:
        results = [work(p) for p in run_primes]

    raw = sum(r[0] for r in results)
    skipped_params = sum(r[2] for r in results)
    per_prime = tuple((p, r[0], r[1]) for p, r in zip(run_primes, results)) \
        if keep_per_prime else None
    return raw, len(all_primes), tuple(skipped), skipped_params, per_prime


def mixed_product(fam: FamilyPoly, x: int, U, V, iv: Interval, cache=None,
                  threads: int = 1, keep_per_prime: bool = False) -> MixedReport:
    """Normalized average of per-prime pair counts over primes p <= x.

    Accumulates sum_p M_p exactly (pairs with p | uv stay in whenever the
    reduced parameter keeps good reduction); bracket (x / (#U #V))^(1/4).
    """
    U, V = list(U), list(V)
    if not U or not V:
        raise ValueError("U and V must be non-empty")
    mults: dict[int, int] = {}
    for u in U:
        for v in V:
            mults[u * v] = mults.get(u * v, 0) + 1
    raw, pi_x, skipped, skipped_params, per_prime = _run_mixed(
        fam, x, sorted(mults.items()), iv, cache, threads, keep_per_prime)
    denom = pi_x * len(U) * len(V)
    avg = raw / denom
    mu = mu_st(iv)
    bracket = (x / (len(U) * len(V))) ** 0.25
    desc = f"mixed-product:x={x}:#U={len(U)}:#V={len(V)}"
    return MixedReport(x, desc, iv, avg, mu, abs(avg - mu), bracket, raw, denom,
                       pi_x, skipped, skipped_params, per_prime)


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
    params = [(lam**t, 1) for t in range(1, T + 1)]
    raw, pi_x, skipped, skipped_params, per_prime = _run_mixed(
        fam, x, params, iv, cache, threads, keep_per_prime, skip_divisors_of=lam)
    denom = pi_x * T
    avg = raw / denom
    mu = mu_st(iv)
    d = erdos_delta()
    bracket = math.log(x) ** (-0.75 * d) * math.log(math.log(x)) ** -1.125
    desc = f"mixed-geom:x={x}:lambda={lam}:T={T}"
    return MixedReport(x, desc, iv, avg, mu, abs(avg - mu), bracket, raw, denom,
                       pi_x, skipped, skipped_params, per_prime,
                       order_sum_half=order_sum(int(x), lam, 0.5),
                       bracket_note="implied constant depends on lambda")


def mixed_primes(fam: FamilyPoly, x: int, L: int, iv: Interval, cache=None,
                 threads: int = 1, keep_per_prime: bool = False) -> MixedReport:
    """Normalized average over prime parameters l <= L and primes p <= x.

    Bracket x^(-1/4) + L^(-1/12) + L^(-1/4) x^(1/4).
    """
    if L < 3:
        raise ValueError("L must be >= 3")
    ells = primes_upto(L).elements
    params = [(ell, 1) for ell in ells]
    raw, pi_x, skipped, skipped_params, per_prime = _run_mixed(
        fam, x, params, iv, cache, threads, keep_per_prime)
    denom = pi_x * len(ells)
    avg = raw / denom
    mu = mu_st(iv)
    bracket = x**-0.25 + L ** (-1.0 / 12.0) + L**-0.25 * x**0.25
    desc = f"mixed-primes:x={x}:L={L}"
    return MixedReport(x, desc, iv, avg, mu, abs(avg - mu), bracket, raw, denom,
                       pi_x, skipped, skipped_params, per_prime,
                       bracket_note=PRIME2_NOTE)


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
    tbl = ResidueTable.build(p)  # refuses p above TABLE_LIMIT before any O(p) array

    if subgroup_r is None:
        # order all of F_p* by index: w_of[z] = g^z
        w_of = power_table(primitive_root(p), p)
        period = p - 1
    else:
        pset = subgroup(p, subgroup_r)
        w_of = np.array(pset.elements, dtype=np.int64)  # h^i in index order
        period = subgroup_r

    a_vec, good = residue_traces(fam, p, w_of, tbl)
    z = a_vec / (2.0 * math.sqrt(p))
    mask = good.astype(np.float64)
    bound_unit = fam.deg_delta * math.sqrt(p)
    fp = fingerprint_hex(fam)

    if mode == "exhaustive":
        mode_str = "exhaustive"
        s_eval = None
    elif mode == "sampled":
        if count is None or count < 1:
            raise ValueError("sampled mode needs a positive count")
        rng = np.random.default_rng(seed)
        s_eval = np.sort(rng.integers(0, p - 1, size=count))
        mode_str = f"sampled(seed={seed},count={count})"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    reports = []
    for n, u in sym_terms(z, n_max):
        y = u * mask  # zero at bad slots
        bound = (n + 1) * bound_unit
        if s_eval is None:
            # S(chi_s) = sum_z y[z] e(+ s z / period): inverse DFT scaled by length
            S = np.fft.ifft(y) * period
            mags = np.abs(S)
            worst = int(np.argmax(mags))
            max_abs = float(mags[worst])
            if max_abs > bound + 1e-6:
                raise RuntimeError(
                    f"character-sum bound violated at p={p}, n={n}: "
                    f"{max_abs} > {bound} (bug)")
        else:
            zs = np.arange(period, dtype=np.float64)
            max_abs, worst = -1.0, 0
            for s in s_eval:
                # characters repeat with period `period` on the ordered values
                val = abs(np.sum(y * np.exp(2j * math.pi * ((s % period) * zs) / period)))
                if val > max_abs:
                    max_abs, worst = float(val), int(s)
        reports.append(CharSumReport(p, fp, n, mode_str, max_abs, bound, worst,
                                     subgroup_r))
    return reports


# ---------------------------------------------------------------------------
# single and bilinear sums (exact values with diagnostic brackets)


def _sym_over_params(fam: FamilyPoly, p: int, params, n: int):
    """sum of sym_n(psi(E(t))) over parameters with good reduction."""
    psis, good = residue_angles(fam, p, params)
    if not good.any():
        return 0.0
    return float(np.sum(chebyshev_U(n, np.cos(psis[good]))))


def incomplete_geom_sum(fam: FamilyPoly, p: int, lam: int, T: int, n: int):
    """Exact sum over lam^t, t <= T (T at most the order); bracket n sqrt(p) log p."""
    _require_degree(n)
    _require_nondeg_global(fam)
    r = mult_order(lam, p)
    if T > r:
        raise ValueError(f"T={T} exceeds the multiplicative order {r}")
    pset = geometric(lam, T, p)
    value = _sym_over_params(fam, p, pset.elements, n)
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
    value = _sym_over_params(fam, p, params, n)
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
    out = np.zeros(L + 1)
    if psi_fn is not None:
        out[1:] = [psi_fn(t) for t in range(1, L + 1)]
        return out
    ws = np.arange(p, dtype=np.int64)
    a_vec, good = residue_traces(fam, p, ws)
    z = a_vec / (2.0 * math.sqrt(p))
    res_vals = np.where(good, chebyshev_U(n, z), 0.0)
    t = np.arange(1, L + 1, dtype=np.int64)
    out[1:] = res_vals[t % p]
    return out


def _mobius_window_coeffs(tables, K: float, kmax: int) -> np.ndarray:
    """c[k] = sum of mu(d) over d | k with d <= K, for k <= kmax."""
    c = np.zeros(kmax + 1, dtype=np.int64)
    for d in range(1, min(int(K), kmax) + 1):
        md = int(tables.mu[d])
        if md:
            c[d::d] += md
    return c


def _cuts(L: int, K: float | None, M: float | None) -> tuple[float, float]:
    """Validated cut parameters; K and M default to L^(1/3)."""
    if L < 2:
        raise ValueError("L must be >= 2")
    if K is None:
        K = L ** (1.0 / 3.0)
    if M is None:
        M = L ** (1.0 / 3.0)
    if K < 1 or M < 1 or K * M > L + 1e-9:
        raise ValueError("need K, M >= 1 and K*M <= L")
    return K, M


def _type_ii(weights, tables, psi, L: int, K: float, M: float) -> float:
    """|sum over M < m <= L/K, K < k <= L/m of weights[m] c[k] psi[km]|."""
    Mi, Ki = int(M), int(K)
    kmax = L // (Mi + 1) if L // (Mi + 1) >= 1 else 0
    c = _mobius_window_coeffs(tables, K, max(kmax, 1))
    total = 0.0
    for m in range(Mi + 1, int(L / K) + 1):
        if weights[m] == 0.0:
            continue
        k_hi = L // m
        if k_hi <= Ki:
            continue
        ks = np.arange(Ki + 1, k_hi + 1)
        total += weights[m] * float(np.sum(c[ks] * psi[ks * m]))
    return abs(float(total))


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
    tables = sieve_arith(L)
    psi = _psi_of_t(fam, p, L, n, psi_fn)
    lam_vals = tables.lam

    direct = float(np.sum(lam_vals[1:L + 1] * psi[1:L + 1]))

    Mi, Ki = int(M), int(K)
    sigma1 = abs(float(np.sum(lam_vals[1:Mi + 1] * psi[1:Mi + 1])))

    km = int(K * M)
    sigma2 = 0.0
    for k in range(1, km + 1):
        sigma2 += abs(float(psi[k::k].sum()))

    sigma3 = 0.0
    for k in range(1, Ki + 1):
        arr = psi[k::k]
        if arr.size == 0:
            continue
        suffix = np.cumsum(arr[::-1])[::-1]
        sigma3 += float(np.max(np.abs(suffix)))

    sigma4 = _type_ii(lam_vals, tables, psi, L, K, M)

    bracket = L / math.sqrt(p) + L ** (5.0 / 6.0) + math.sqrt(L * p)
    return VaughanReport(p, L, K, M, n, direct, sigma1, sigma2, sigma3, sigma4,
                         bracket)


def prime_sym_sum(fam: FamilyPoly, p: int, L: int, n: int,
                  a_hint: float = 1.0, eta_hint: float = 1.0 / 48.0):
    """Exact sum over prime parameters l <= L with good reduction.

    Returns (value, bracket, prime1_bracket_hint): the first bracket is
    L p^(-1/2) + L^(5/6) + (L p)^(1/2); the second instantiates the
    non-effective bound n^A pi(L) (1 + p/L)^(1/12) p^(-eta) at hint values
    and is diagnostic only.
    """
    _require_degree(n)
    if L < 2:
        raise ValueError("L must be >= 2")
    _require_nondeg_mod_p(fam, p)
    ells = primes_upto(L).elements
    value = _sym_over_params(fam, p, ells, n)
    bracket = L / math.sqrt(p) + L ** (5.0 / 6.0) + math.sqrt(L * p)
    prime1 = n**a_hint * len(ells) * (1.0 + p / L) ** (1.0 / 12.0) * p**-eta_hint
    return value, bracket, prime1


def mobius_sums(fam: FamilyPoly, p: int, L: int, n: int, K: float | None = None,
                M: float | None = None) -> MobiusReport:
    """Mobius-weighted sums over t <= L plus the omega 1..4 decomposition."""
    _require_degree(n)
    K, M = _cuts(L, K, M)
    _require_nondeg_mod_p(fam, p)
    tables = sieve_arith(L)
    psi = _psi_of_t(fam, p, L, n)
    mu = tables.mu.astype(np.float64)

    abs_mu = float(np.sum(np.abs(mu[1:L + 1]) * psi[1:L + 1]))
    mu_sum = float(np.sum(mu[1:L + 1] * psi[1:L + 1]))

    cut = int(max(K, M))
    omega1 = abs(float(np.sum(mu[1:cut + 1] * psi[1:cut + 1])))

    km = int(K * M)
    omega2 = 0.0
    for k in range(1, km + 1):
        omega2 += int(tables.tau[k]) * abs(float(psi[k::k].sum()))

    omega4 = _type_ii(mu, tables, psi, L, K, M)

    return MobiusReport(p, L, n, abs_mu, mu_sum, omega1, omega2, 0.0, omega4)
