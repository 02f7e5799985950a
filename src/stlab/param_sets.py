"""Parameter sets with multiplicative structure, and arithmetic-function sieves.

Generators: multiplicative subgroups of F_p*, product multisets U*V, primes
up to L, geometric progressions lambda^t, plain intervals.  Sieves fill the
von Mangoldt, Mobius, omega and tau tables; order_sum and
divisor_window_count give the order statistics used by the
geometric-progression experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import fnv1a_hex
from .finite_field import factor, mult_order, primitive_root


@dataclass(frozen=True)
class ParamSet:
    """A materialized parameter list; product/geometric kinds keep repeats."""

    kind: str
    elements: tuple[int, ...]
    descriptor: str
    pairs: tuple[tuple[int, int], ...] | None = None  # provenance for product sets


def subgroup(p: int, r: int) -> ParamSet:
    """The multiplicative subgroup of order r in F_p*; requires r | p-1."""
    if r < 1 or (p - 1) % r != 0:
        raise ValueError(f"r={r} does not divide p-1={p - 1}")
    g = primitive_root(p)
    d = (p - 1) // r
    h = pow(g, d, p)
    elems = []
    w = 1
    for _ in range(r):
        elems.append(w)
        w = w * h % p
    return ParamSet("subgroup", tuple(elems), f"subgroup:p={p}:r={r}")


def product_residues(U, V, p: int) -> ParamSet:
    """Multiset {u*v mod p} over U x V with pair provenance; needs U, V in F_p*."""
    U = [u % p for u in U]
    V = [v % p for v in V]
    if any(u == 0 for u in U) or any(v == 0 for v in V):
        raise ValueError("product sets must avoid 0 mod p")
    elems, pairs = [], []
    for u in U:
        for v in V:
            elems.append(u * v % p)
            pairs.append((u, v))
    desc = (f"product:p={p}:U={fnv1a_hex(','.join(map(str, U)))}"
            f":V={fnv1a_hex(','.join(map(str, V)))}")
    return ParamSet("product", tuple(elems), desc, tuple(pairs))


def primes_upto(L: int) -> ParamSet:
    """All primes <= L by a segmented sieve."""
    if L < 2:
        raise ValueError("L must be >= 2")
    return ParamSet("primes", tuple(_segmented_sieve(L)), f"primes:L={L}")


def _segmented_sieve(L: int, segment: int = 1 << 18) -> list[int]:
    root = math.isqrt(L)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if base[q]:
            base[q * q::q] = False
    small = np.flatnonzero(base)
    primes = [int(q) for q in small]
    lo = root + 1
    while lo <= L:
        hi = min(lo + segment - 1, L)
        seg = np.ones(hi - lo + 1, dtype=bool)
        for q in small:
            start = max(q * q, ((lo + q - 1) // q) * q)
            if start <= hi:
                seg[start - lo::q] = False
        primes.extend(int(v) for v in np.flatnonzero(seg) + lo)
        lo = hi + 1
    return primes


def geometric(lam: int, T: int, p: int) -> ParamSet:
    """Residues lam^1 .. lam^T mod p, computed iteratively (multiset).

    The distribution theorems assume |lam| >= 2; any lam coprime to p is
    accepted here so order-2 cases like lam = -1 stay usable.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if lam % p == 0:
        raise ValueError("p divides lambda")
    base = lam % p
    elems = []
    w = 1
    for _ in range(T):
        w = w * base % p
        elems.append(w)
    return ParamSet("geometric", tuple(elems), f"geom:lambda={lam}:T={T}:p={p}")


def interval_params(M: int, N: int) -> ParamSet:
    """Integers M+1 .. M+N."""
    return ParamSet("interval", tuple(range(M + 1, M + N + 1)), f"interval:M={M}:N={N}")


@dataclass(frozen=True)
class ArithTables:
    """lam = von Mangoldt, mu = Mobius, omega = #prime divisors, tau = #divisors."""

    limit: int
    lam: np.ndarray
    mu: np.ndarray
    omega: np.ndarray
    tau: np.ndarray


def sieve_arith(L: int) -> ArithTables:
    """Fill the four arithmetic tables for 1 <= t <= L."""
    if L < 2:
        raise ValueError("L must be >= 2")
    lam = np.zeros(L + 1, dtype=np.float64)
    mu = np.zeros(L + 1, dtype=np.int8)
    omega = np.zeros(L + 1, dtype=np.int16)
    tau = np.zeros(L + 1, dtype=np.int64)
    mu[1] = 1
    tau[1:] = 1  # divisor d = 1
    for d in range(2, L + 1):
        tau[d::d] += 1
    is_comp = np.zeros(L + 1, dtype=bool)
    for q in range(2, L + 1):
        if is_comp[q]:
            continue
        is_comp[q * q::q] = True
        omega[q::q] += 1
        logq = math.log(q)
        qk = q
        while qk <= L:
            lam[qk] = logq
            qk *= q
    # Mobius: mu(t) = (-1)^omega(t) on squarefree t, else 0
    t = np.arange(1, L + 1)
    sqfree = np.ones(L + 1, dtype=bool)
    q = 2
    while q * q <= L:
        if not is_comp[q]:
            sqfree[q * q::q * q] = False
        q += 1
    mu_vals = np.where(sqfree[1:], np.where(omega[1:] % 2 == 0, 1, -1), 0)
    mu[1:] = mu_vals.astype(np.int8)
    return ArithTables(L, lam, mu, omega, tau)


def order_sum(x: int, lam: int, alpha: float) -> float:
    """sum over primes p <= x, p not dividing lam, of 1 / ord_p(lam)^alpha."""
    if abs(lam) <= 1:
        raise ValueError("|lambda| must exceed 1")
    total = 0.0
    for p in _segmented_sieve(x) if x >= 2 else []:
        if lam % p == 0:
            continue
        total += 1.0 / mult_order(lam, p) ** alpha
    return total


def divisor_window_count(x: int, y: int) -> int:
    """#{p <= x : some divisor d of p-1 lies in (y, 2y]}, by factoring p-1."""
    if y < 3:
        raise ValueError("y must be >= 3")
    count = 0
    for p in _segmented_sieve(x) if x >= 2 else []:
        n = p - 1
        divs = [1]
        for q, e in factor(n):
            divs = [d * q**k for d in divs for k in range(e + 1)]
        if any(y < d <= 2 * y for d in divs):
            count += 1
    return count


def erdos_delta() -> float:
    """1 - (1 + log log 2) / log 2 = 0.086071..."""
    return 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)
