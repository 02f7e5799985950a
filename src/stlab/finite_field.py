"""Prime-field arithmetic: primality, factoring, quadratic residues, primitive
roots, power tables and multiplicative orders.

Everything here targets primes p > 3 at desk scale.  Tables are built once per
prime, are immutable afterwards, and may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusedError

# The first 13 primes: Miller-Rabin to these bases is deterministic below
# psi_13 = 3,317,044,064,679,887,385,961,981, the least strong pseudoprime to
# all of them (Sorenson-Webster).  The first 12 alone pass the composite
# psi_12 = 318,665,857,834,031,151,167,461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Every trace path builds a ResidueTable first, so this one cap refuses a prime
# before any O(p) array exists.  Tracing at one prime peaks at about 46 bytes
# per unit of p when its rows are read by dots (four residues) and at about
# 178 when every residue is asked for (an FFT twist row), over the
# interpreter's own (ru_maxrss of `angles` at p = 1000003 and 2000003); at
# 2**23 that is 0.39 and 1.5 GB.  Of the 178, about 116 are numpy's arrays
# (tracemalloc); the rest is pocketfft's plan and work buffers and heap
# fragmentation.
TABLE_LIMIT = 1 << 23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3,317,044,064,679,887,385,961,981."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> list[tuple[int, int]]:
    """Complete factorization by trial division, as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factor requires n >= 1")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                out.append((q, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


def require_prime_above_3(p: int) -> None:
    """Raise ValueError unless p is an odd prime, then unless p > 3 (where
    y^2 = x^3 + ax + b is a general model of an elliptic curve)."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if p == 3:
        raise ValueError("requires p > 3")


def require_table_size(p: int) -> None:
    """Raise RefusedError for p > TABLE_LIMIT, before any O(p) work."""
    if p > TABLE_LIMIT:
        raise RefusedError(f"residue table for p={p} exceeds the {TABLE_LIMIT} limit")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} via the Euler criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@dataclass(frozen=True)
class ResidueTable:
    """Per-prime tables, both read-only: pw[z] = g**z mod p for the smallest
    primitive root g (see power_table), and leg[x], the Legendre symbol as
    int8, 1 exactly on the (p-1)/2 nonzero squares and leg[0] = 0."""

    p: int
    leg: np.ndarray
    pw: np.ndarray

    @classmethod
    def build(cls, p: int) -> "ResidueTable":
        if p != 3:  # the tables are well defined at p = 3, and the oracle tests use them
            require_prime_above_3(p)
        require_table_size(p)
        pw = power_table(primitive_root(p), p)
        leg = np.full(p, -1, dtype=np.int8)
        leg[pw[::2]] = 1  # the nonzero squares are the even powers of g
        leg[0] = 0
        leg.setflags(write=False)
        pw.setflags(write=False)
        return cls(p, leg, pw)


def primitive_root(p: int) -> int:
    """Smallest g in [2, p) of multiplicative order p - 1."""
    if p == 2:
        return 1
    n = p - 1
    prime_divs = [q for q, _ in factor(n)]
    g = 2
    while True:
        if all(pow(g, n // q, p) != 1 for q in prime_divs):
            return g
        g += 1


def power_table(g: int, p: int, n: int | None = None) -> np.ndarray:
    """pw[z] = g**z mod p for z in [0, n), as int64; n defaults to p - 1.

    Built blockwise: about 2 sqrt(n) Python steps for the inner and outer
    powers, then one outer product of entries below p**2 < 2**63.
    """
    _require_int64_products(p, "power table")
    if n is None:
        n = p - 1
    m = max(1, math.isqrt(n))
    inner = np.empty(m, dtype=np.int64)
    w = 1
    for j in range(m):
        inner[j] = w
        w = w * g % p
    outer = np.empty(-(-n // m), dtype=np.int64)
    v = 1
    for i in range(len(outer)):
        outer[i] = v
        v = v * w % p
    return _mod_inplace((outer[:, None] * inner[None, :]).ravel()[:n], p)


def _mod_inplace(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p) for an int64 array, written over x.  numpy divides
    by a scalar faster than it takes a remainder (13 against 20 us on 4662
    values; 2 vCPUs, numpy 2.4.6)."""
    x -= x // p * p
    return x


def _require_int64_products(p: int, what: str) -> None:
    """Refuse a modulus p whose product of two residues may leave int64."""
    if p * p >= 1 << 63:
        raise RefusedError(f"{what} needs p**2 < 2**63, got p={p}")


def _powmod(b: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b**n mod p entrywise, for int64 arrays with 0 <= b < p, n >= 0 and
    p**2 < 2**63: one square-and-multiply round per bit of max(n).  With a
    modulus per entry, `%` beats _mod_inplace (24 against 28 ms over 78k
    entries of p <= 3 * 10**5; 2 vCPUs, numpy 2.4.6)."""
    out = np.ones_like(b)
    n = n.copy()
    while n.any():
        out = np.where((n & 1) == 1, out * b % p, out)
        n >>= 1
        b = b * b % p
    return out


def _reduce_mod(lam: int, p: np.ndarray) -> np.ndarray:
    """lam mod p for every entry of p (int64, 0 < p < 2**32), exact for a
    Python int lam of any size: Horner's rule over its 31-bit digits."""
    mag = abs(lam)
    digits = []
    while mag:
        digits.append(mag & 0x7FFFFFFF)
        mag >>= 31
    r = np.zeros_like(p)
    for d in reversed(digits):
        r = ((r << 31) + d) % p
    return r if lam >= 0 else -r % p


def mult_orders(lam: int, primes: np.ndarray, owner: np.ndarray, q: np.ndarray,
                e: np.ndarray) -> np.ndarray:
    """ord_p(lam) for every p in the int64 array primes, and 0 where p
    divides lam.

    p - 1 comes factored as flat int64 arrays: q[j]**e[j] exactly divides
    primes[owner[j]] - 1, one entry per prime factor.  Per entry,
    y = lam**((p-1) / q**e) has order q**k with k <= e, found by the steps
    y <- y**q until y = 1; ord_p(lam) is the product of the q**k.
    """
    if primes.size:
        _require_int64_products(int(primes.max()), "multiplicative order")
    b = _reduce_mod(lam, primes)
    p = primes[owner]
    qe = q ** e
    y = _powmod(b[owner], (p - 1) // qe, p)
    part = np.ones_like(q)  # q**k once y**(q**k) = 1
    live = np.flatnonzero(y != 1)
    while live.size:
        part[live] *= q[live]
        live = live[part[live] < qe[live]]  # y**(q**e) = 1 needs no step
        y[live] = _powmod(y[live], q[live], p[live])
        live = live[y[live] != 1]
    out = np.ones(primes.size, dtype=np.int64)
    np.multiply.at(out, owner, part)
    out[b == 0] = 0
    return out


def mult_order(lam: int, p: int) -> int:
    """Least r >= 1 with lam**r = 1 mod p: mult_orders at one prime."""
    if lam % p == 0:
        raise ValueError("order undefined: p divides lambda")
    _require_int64_products(p, "multiplicative order")  # before factoring p - 1
    q, e = np.array(factor(p - 1), dtype=np.int64).reshape(-1, 2).T
    return int(mult_orders(lam, np.array([p]), np.zeros(q.size, dtype=np.int64), q, e)[0])
