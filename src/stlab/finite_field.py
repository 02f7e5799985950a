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

# Witness set making Miller-Rabin deterministic below 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Every trace path builds a ResidueTable first, so this one cap refuses a prime
# before any O(p) array exists.  Tracing at one prime peaks at about 60 bytes
# per unit of p when its rows are read by dots (four residues) and at about
# 210 when every residue is asked for (FFT rows), over the interpreter's own
# (measured at p = 1000003 and 2000003); at 2**23 that is 0.5 and 1.8 GB.
TABLE_LIMIT = 1 << 23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    if p * p >= 1 << 63:
        raise RefusedError(f"power table needs p**2 < 2**63, got p={p}")
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


def mult_order(lam: int, p: int) -> int:
    """Least r >= 1 with lam**r = 1 mod p, found by stripping factors of p-1."""
    lam %= p
    if lam == 0:
        raise ValueError("order undefined: p divides lambda")
    return _order_by_stripping(lam, p, factor(p - 1))


def _order_by_stripping(lam: int, p: int, factors) -> int:
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
