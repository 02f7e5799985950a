"""Test oracles only: the discrete-log table and multiplicative characters,
multiplicative orders by stepping and by stripping, and the per-prime and
per-row loops that the array passes of order_sum and the identity sums
replaced.

No production path reads discrete logs; the tests use these to check
character sums and power tables against an independent construction.  The
loops are kept as the code had them, so the array passes can be held to
their float totals with ==.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from stlab.errors import RefusedError
from stlab.experiments import _mobius_window_coeffs
from stlab.finite_field import power_table, primitive_root
from stlab.param_sets import _least_prime_factors
from stlab.sato_tate import chebyshev_U
from stlab.traces import residue_traces

# ind tables take O(p) words; larger p are refused.
INDEX_TABLE_LIMIT = 1 << 22


@dataclass(frozen=True)
class IndexTable:
    """Discrete-log table: ind[g**z mod p] = z for z in [0, p-2].

    ind is a bijection {1..p-1} -> {0..p-2}; ind[0] is the sentinel -1.
    """

    p: int
    g: int
    ind: np.ndarray

    @classmethod
    def build(cls, p: int) -> "IndexTable":
        if p > INDEX_TABLE_LIMIT:
            raise RefusedError(f"index table for p={p} exceeds the {INDEX_TABLE_LIMIT} limit")
        g = primitive_root(p)
        ind = np.full(p, -1, dtype=np.int64)
        ind[power_table(g, p)] = np.arange(p - 1, dtype=np.int64)
        ind.setflags(write=False)
        return cls(p, g, ind)


def character_eval(s: int, w: int, tbl: IndexTable) -> complex:
    """Value of the multiplicative character chi_s at w: e(s * ind(w) / (p-1)).

    chi_0 is the trivial character; chi_{(p-1)/2} is the quadratic one.
    """
    w %= tbl.p
    if w == 0:
        raise ValueError("character undefined at 0 mod p")
    z = int(tbl.ind[w])
    return cmath.exp(2j * cmath.pi * (s * z % (tbl.p - 1)) / (tbl.p - 1))


def orders_by_stepping(lam: int, primes) -> list[int]:
    """ord_p(lam) for each p by stepping through lam, lam**2, ... until 1, and
    0 where p divides lam; one numpy step multiplies every unfinished power."""
    p = np.array(primes, dtype=np.int64)
    base = np.array([lam % q for q in primes], dtype=np.int64)
    w = base.copy()
    r = np.where(base == 0, 0, 1)
    live = np.flatnonzero((base != 0) & (w != 1))
    while live.size:
        w[live] = w[live] * base[live] % p[live]
        r[live] += 1
        live = live[w[live] != 1]
    return r.tolist()


def order_by_stripping(lam: int, p: int, factors) -> int:
    """ord_p(lam) for lam in [1, p), given p - 1 as (prime, exponent) pairs:
    start from p - 1 and divide out each prime while lam**r stays 1."""
    r = p - 1
    for q, e in factors:
        for _ in range(e):
            if pow(lam, r // q, p) == 1:
                r //= q
            else:
                break
    return r


def order_sum_per_prime(x: int, lam: int, alpha: float) -> float:
    """order_sum as one Python step per prime: factor p - 1 from the
    least-prime-factor table, strip, add 1 / r**alpha in ascending p."""
    spf = _least_prime_factors(x)
    primes = np.flatnonzero(spf == 0)[2:].tolist()
    spf = spf.tolist()
    total = 0.0
    for p in primes:
        b = lam % p
        if b == 0:
            continue
        factors = []
        n = p - 1
        while n > 1:
            q = spf[n] or n
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        total += 1.0 / order_by_stripping(b, p, factors) ** alpha
    return total


def psi_of_t_by_index(fam, p: int, L: int, n: int, psi_fn=None) -> np.ndarray:
    """The identity sums' psi table read as res_vals[t % p] for every t."""
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


def type_ii_per_row(weights, mu, psi, L: int, K: float, M: float) -> float:
    """The type-II sum with one gather and np.sum per m, added in ascending m."""
    Mi, Ki = int(M), int(K)
    kmax = L // (Mi + 1) if L // (Mi + 1) >= 1 else 0
    c = _mobius_window_coeffs(mu, K, max(kmax, 1))
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
