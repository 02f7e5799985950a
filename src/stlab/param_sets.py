"""Parameter sets with multiplicative structure, and arithmetic-function sieves.

Generators: multiplicative subgroups of F_p*, product multisets U*V, primes
up to L, geometric progressions lambda^t, plain intervals.  One Eratosthenes
prime mask underlies the primes, the Mobius table, the von Mangoldt function
and divisor_window_count.  sieve_arith keeps von Mangoldt at its prime
powers, with the log q of the small primes only, and no float64 array over
[0, L]: it peaks at about 2.4 bytes per unit of L traced at L = 10**6.  The
logs of the primes above isqrt(L) are formed on first read, which only the
von Mangoldt sums make, and ArithTables.lam_upto fills the dense table over
a prefix where a sum needs one.  order_sum, the other order statistic of the
geometric-progression experiments, reads its primes and the factorization of
each p - 1 from one least-prime-factor table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RefusedError
from .family import fnv1a_hex
from .finite_field import mult_orders, power_table, primitive_root


@dataclass(frozen=True)
class ParamSet:
    """A materialized parameter list; product and geometric sets keep repeats."""

    elements: tuple[int, ...]
    descriptor: str


def subgroup_index(p: int, r: int) -> int:
    """(p - 1) / r, the index of the subgroup of order r in F_p*; requires r | p-1."""
    if r < 1 or (p - 1) % r != 0:
        raise ValueError(f"r={r} does not divide p-1={p - 1}")
    return (p - 1) // r


def subgroup(p: int, r: int) -> ParamSet:
    """The multiplicative subgroup of order r in F_p*; requires r | p-1."""
    h = pow(primitive_root(p), subgroup_index(p, r), p)
    return ParamSet(tuple(power_table(h, p, r).tolist()), f"subgroup:p={p}:r={r}")


def product_residues(U, V, p: int) -> ParamSet:
    """Multiset {u*v mod p} over U x V; needs U, V non-empty and in F_p*."""
    U = [u % p for u in U]
    V = [v % p for v in V]
    if not U or not V:
        raise ValueError("U and V must be non-empty")
    if any(u == 0 for u in U) or any(v == 0 for v in V):
        raise ValueError("product sets must avoid 0 mod p")
    elems = tuple(u * v % p for u in U for v in V)
    desc = (f"product:p={p}:U={fnv1a_hex(','.join(map(str, U)))}"
            f":V={fnv1a_hex(','.join(map(str, V)))}")
    return ParamSet(elems, desc)


def primes_upto(L: int) -> ParamSet:
    """All primes <= L."""
    if L < 2:
        raise ValueError("L must be >= 2")
    return ParamSet(tuple(prime_array(L).tolist()), f"primes:L={L}")


def prime_array(n: int) -> np.ndarray:
    """The primes <= n, ascending, as an int64 array."""
    return np.flatnonzero(_prime_mask(n))


def _prime_mask(n: int) -> np.ndarray:
    """Sieve of Eratosthenes: mask[k] is True exactly for the primes k <= n."""
    n = max(n, 1)  # no primes below 2; keeps isqrt off negative n
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if mask[q]:
            mask[q * q::q] = False
    return mask


def geometric(lam: int, T: int, p: int) -> ParamSet:
    """Residues lam^1 .. lam^T mod p (multiset).

    The distribution theorems assume |lam| >= 2; any lam coprime to p is
    accepted here so order-2 cases like lam = -1 stay usable.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if lam % p == 0:
        raise ValueError("p divides lambda")
    elems = power_table(lam % p, p, T + 1)[1:]
    return ParamSet(tuple(elems.tolist()), f"geom:lambda={lam}:T={T}:p={p}")


def interval_params(M: int, N: int) -> ParamSet:
    """Integers M+1 .. M+N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return ParamSet(tuple(range(M + 1, M + N + 1)), f"interval:M={M}:N={N}")


@dataclass(frozen=True)
class ArithTables:
    """mu = Mobius over [0, L]; von Mangoldt by its support.

    lam(t) = log q at the prime powers t = q**k <= L and 0 elsewhere.  The
    powers of the primes q <= isqrt(L) are `powers`, with their log q in
    `logs`; a prime q above isqrt(L) has q**2 > L, so those primes are `big`
    alone (a view of the sieve's ascending primes), with log q in `big_logs`,
    formed on first read.  lam_upto fills the dense table over a prefix.
    """

    mu: np.ndarray
    powers: np.ndarray
    logs: np.ndarray
    big: np.ndarray

    @cached_property
    def big_logs(self) -> np.ndarray:
        """log q of each big prime: math.log of the int q (np.log may differ
        in the last bit), _LOG_CHUNK primes per Python list.  Only the von
        Mangoldt sums read them, so the Mobius sums never pay for them."""
        logs = np.empty(self.big.size)
        for i in range(0, self.big.size, _LOG_CHUNK):
            logs[i:i + _LOG_CHUNK] = list(map(math.log, self.big[i:i + _LOG_CHUNK].tolist()))
        return logs

    def lam_upto(self, n: int) -> np.ndarray:
        """The dense von Mangoldt table over [0, n], for n <= L."""
        if n >= self.mu.size:
            raise ValueError(f"n={n} is past L={self.mu.size - 1}")
        lam = np.zeros(n + 1)
        inside = self.powers <= n
        lam[self.powers[inside]] = self.logs[inside]
        end = int(np.searchsorted(self.big, n, side="right"))
        lam[self.big[:end]] = self.big_logs[:end]
        return lam


# Big primes whose logs one Python list holds at a time in big_logs.
_LOG_CHUNK = 1 << 14


def sieve_arith(L: int) -> ArithTables:
    """The Mobius table for 0 <= t <= L and the von Mangoldt support."""
    if L < 2:
        raise ValueError("L must be >= 2")
    primes = prime_array(L)  # first, so the prime mask is gone before mu exists
    # mu(t) = (-1)^omega(t) on squarefree t, else 0: each prime q | t flips the
    # sign once, and q**2 | t zeroes it for good; mu(0) = 0
    mu = np.ones(L + 1, dtype=np.int8)
    n_small = int(np.searchsorted(primes, math.isqrt(L), side="right"))
    powers, logs = [], []
    for q in primes[:n_small].tolist():
        sign = mu[q::q]
        np.negative(sign, out=sign)
        mu[q * q::q * q] = 0
        logq = math.log(q)
        qk = q
        while qk <= L:
            powers.append(qk)
            logs.append(logq)
            qk *= q
    # A prime q > isqrt(L) has q**2 > L: lam is log q at q alone and mu only
    # flips sign.  For each m the multiples m*q of the big primes q <= L // m
    # are distinct, so one scatter per m flips them all.  Bertrand puts a big
    # prime in (isqrt(L), L], so big is never empty.
    big = primes[n_small:]
    m = np.arange(1, L // int(big[0]) + 1)
    ends = np.searchsorted(big, L // m, side="right").tolist()
    for k, end in zip(m.tolist(), ends):
        mu[k * big[:end]] *= -1
    mu[0] = 0
    return ArithTables(mu, np.array(powers, dtype=np.int64), np.array(logs), big)


def divisor_counts(n: int) -> np.ndarray:
    """tau[t] = #divisors of t for 1 <= t <= n, and tau[0] = 0."""
    tau = np.zeros(n + 1, dtype=np.int64)
    # tau counts the divisor pairs (d, t/d): once at t = d^2, twice when d < t/d
    for d in range(1, math.isqrt(n) + 1):
        tau[d * d] += 1
        tau[d * (d + 1)::d] += 2
    return tau


def require_size(n: int, limit: int, what: str) -> None:
    """Raise RefusedError for a size n (a sieve bound, a set's element count)
    above limit, before any O(n) array."""
    if n > limit:
        raise RefusedError(f"{what}={n} exceeds the {limit} limit")


# x of the order statistics.  `sums orders` peaks at about 5.4 bytes per unit
# of x over the interpreter's own (the least-prime-factor table, then the
# prime mask of divisor_window_count; ru_maxrss at x = 10**6 and 4 * 10**6),
# about 0.54 GB at the limit.
ORDERS_LIMIT = 10**8

# Primes per array pass of order_sum.  At x = 3 * 10**5 the traced peak is
# 2.9 MB (1.2 MB of it the least-prime-factor table) against 10.3 MB in one
# pass, at the same speed (2 vCPUs, numpy 2.4.6).
_ORDER_BLOCK = 4096

# log of the largest double, 709.7827..., rounded down
_LOG_FLOAT_MAX = 709.78


def order_sum(x: int, lam: int, alpha: float) -> float:
    """sum over primes p <= x, p not dividing lam, of 1 / ord_p(lam)^alpha."""
    if abs(lam) <= 1:
        raise ValueError("|lambda| must exceed 1")
    require_size(x, ORDERS_LIMIT, "x")
    # each order r has 1 <= r < x and there are fewer than x terms, so this
    # keeps r**alpha, every term and the total finite and nonzero; it refuses
    # nan and +-inf too
    if not (abs(alpha) + 1) * math.log(max(x, 2)) <= _LOG_FLOAT_MAX:
        raise ValueError(f"alpha={alpha} takes 1 / ord**alpha out of the float range "
                         f"at x={x}")
    spf = _least_prime_factors(x)
    primes = np.flatnonzero(spf == 0)[2:]  # 0 and 1 are no primes
    total = 0.0
    for i in range(0, primes.size, _ORDER_BLOCK):
        block = primes[i:i + _ORDER_BLOCK]
        # ascending p, each term added in turn to a Python float, so the total
        # does not depend on the block size
        for r in mult_orders(lam, block, *_factor_by_spf(block - 1, spf)).tolist():
            if r:  # 0: p divides lam
                total += 1.0 / r ** alpha
    return total


def _factor_by_spf(n: np.ndarray, spf: np.ndarray):
    """The factorization of every n[i] >= 1 as flat (owner, q, e) arrays, q**e
    exactly dividing n[owner]: one round per prime factor counted with
    multiplicity, each dividing every unfinished n by its least prime factor."""
    rest = n.astype(np.int64)
    owners, qs = [], []
    live = np.flatnonzero(rest > 1)
    while live.size:
        q = spf[rest[live]].astype(np.int64)
        q = np.where(q == 0, rest[live], q)  # 0: rest is prime
        owners.append(live)
        qs.append(q)
        rest[live] //= q
        live = live[rest[live] > 1]
    owner = np.concatenate([np.zeros(0, dtype=np.int64), *owners])
    q = np.concatenate([np.zeros(0, dtype=np.int64), *qs])
    # each round finds every q of an owner in ascending order, so a stable
    # sort by owner makes every run of one (owner, q) adjacent
    order = np.argsort(owner, kind="stable")
    owner, q = owner[order], q[order]
    first = np.flatnonzero(np.diff(owner, prepend=-1) | np.diff(q, prepend=-1))
    return owner[first], q[first], np.diff(first, append=owner.size)


def _least_prime_factors(n: int) -> np.ndarray:
    """spf[k] is the least prime factor of a composite k <= n, and 0 where k is
    0, 1 or a prime; the same loop shape as _prime_mask."""
    n = max(n, 1)
    spf = np.zeros(n + 1, dtype=np.int32)
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == 0:
            tail = spf[q * q::q]
            tail[tail == 0] = q
    return spf


def divisor_window_count(x: int, y: int) -> int:
    """#{p <= x : some divisor d of p-1 lies in (y, 2y]}."""
    if y < 3:
        raise ValueError("y must be >= 3")
    require_size(x, ORDERS_LIMIT, "x")
    prime = _prime_mask(x)
    hit = np.zeros(len(prime), dtype=bool)
    for d in range(y + 1, min(2 * y, x) + 1):
        hit[1::d] = True  # n = 1 mod d, i.e. d | n - 1
    return int(np.count_nonzero(hit & prime))


def erdos_delta() -> float:
    """1 - (1 + log log 2) / log 2 = 0.086071..."""
    return 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)
