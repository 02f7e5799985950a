import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import order_sum_per_prime
from stlab.finite_field import is_prime, mult_order, primitive_root
from stlab.param_sets import (
    ArithTables,
    divisor_counts,
    divisor_window_count,
    erdos_delta,
    geometric,
    interval_params,
    order_sum,
    primes_upto,
    product_residues,
    sieve_arith,
    subgroup,
)


def test_subgroup_examples():
    assert set(subgroup(7, 3).elements) == {1, 2, 4}
    assert subgroup(7, 1).elements == (1,)
    assert set(subgroup(7, 6).elements) == {1, 2, 3, 4, 5, 6}
    assert subgroup(7, 3).descriptor == "subgroup:p=7:r=3"
    with pytest.raises(ValueError):
        subgroup(7, 4)


def test_subgroup_and_geometric_match_pow_below_500():
    # both read power_table; the reference steps through pow for every prime
    # below 500, every r | p - 1, T up to 2(p - 1) and lambda = +-1 mod p
    for p in [q for q in range(3, 500) if is_prime(q)]:
        g = primitive_root(p)
        for r in [r for r in range(1, p) if (p - 1) % r == 0]:
            h = pow(g, (p - 1) // r, p)
            assert subgroup(p, r).elements == tuple(pow(h, i, p) for i in range(r))
        for lam in (2, 3, -2, p + 1, 1, p - 1, -1, 2 * p - 1, 10**30 + 7):
            if lam % p == 0:
                continue
            want = [pow(lam, t, p) for t in range(1, 2 * (p - 1) + 1)]
            for T in (1, 2, p - 2, p - 1, p, 2 * (p - 1)):
                if T >= 1:
                    assert geometric(lam, T, p).elements == tuple(want[:T]), (p, lam, T)


def test_product_residues_refuses_empty_sets():
    for U, V in (([], [1, 2]), ([1, 2], []), ([], [])):
        with pytest.raises(ValueError, match="U and V must be non-empty"):
            product_residues(U, V, 101)


@pytest.mark.parametrize("p", [5, 13, 101, 997])
def test_subgroup_closed_under_multiplication(p):
    for r in [r for r in range(1, p) if (p - 1) % r == 0]:
        elems = set(subgroup(p, r).elements)
        assert len(elems) == r and 1 in elems
        sample = sorted(elems)[:8]
        for a in sample:
            for b in sample:
                assert (a * b) % p in elems


def test_product_examples():
    assert product_residues([1], [3, 5, 6], 7).elements == (3, 5, 6)
    got = Counter(product_residues([2, 3], [2, 3], 7).elements)
    assert got == Counter({4: 1, 6: 2, 2: 1})
    assert Counter(product_residues([1, 6], [1, 6], 7).elements) == Counter({1: 2, 6: 2})
    assert product_residues([2, 3], [4], 11).elements == (8, 1)
    with pytest.raises(ValueError):
        product_residues([7], [1], 7)


def test_primes_examples():
    assert primes_upto(10).elements == (2, 3, 5, 7)
    assert primes_upto(2).elements == (2,)
    assert len(primes_upto(100).elements) == 25
    with pytest.raises(ValueError):
        primes_upto(1)


def test_primes_against_is_prime():
    expected = [n for n in range(2, 1001) if is_prime(n)]
    for L in range(2, 1001):
        assert primes_upto(L).elements == tuple(q for q in expected if q <= L)


def test_primes_against_independent_odd_sieve():
    L = 1_000_000
    # second sieve: odd-only bitset
    half = np.ones((L - 1) // 2 + 1, dtype=bool)  # index i -> 2i + 1
    half[0] = False
    for i in range(1, (math.isqrt(L) - 1) // 2 + 1):
        if half[i]:
            q = 2 * i + 1
            half[(q * q - 1) // 2::q] = False
    count = 1 + int(half.sum())  # the prime 2
    assert len(primes_upto(L).elements) == count == 78498


def test_geometric_examples():
    assert geometric(2, 4, 7).elements == (2, 4, 1, 2)
    assert geometric(9, 1, 7).elements == (2,)
    assert geometric(-1, 3, 11).elements == (10, 1, 10)
    with pytest.raises(ValueError):
        geometric(14, 2, 7)


@pytest.mark.parametrize("lam,p", [(2, 11), (3, 13), (10, 101)])
def test_geometric_periodicity(lam, p):
    r = mult_order(lam, p)
    seq = geometric(lam, 3 * r, p).elements
    assert seq[:r] * 3 == seq


def test_interval_params():
    assert interval_params(5, 3).elements == (6, 7, 8)
    assert interval_params(0, 2).descriptor == "interval:M=0:N=2"
    assert interval_params(3, 0).elements == ()
    with pytest.raises(ValueError, match="N must be >= 0"):
        interval_params(0, -5)


def test_sieve_examples():
    t = sieve_arith(20)
    lam = t.lam_upto(20)
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[7] == pytest.approx(math.log(7))
    assert lam[6] == 0.0
    assert t.mu[6] == 1 and t.mu[12] == 0 and t.mu[10] == 1 and t.mu[7] == -1
    assert divisor_counts(20)[12] == 6


def _trial_factor(n):
    fs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            fs.append((d, e))
        d += 1
    if n > 1:
        fs.append((n, 1))
    return fs


def test_sieve_against_trial_division():
    # small limits hit perfect squares and the ends d(d+1) of the divisor
    # pairs behind divisor_counts at the last index; the larger ones give
    # primes above isqrt(L) several multiples, and 9408, 9409 = 97**2 and
    # 9506 = 97 * 98 sit on both sides of the point where 97 moves below
    # isqrt(L)
    for L in (2, 3, 4, 6, 12, 49, 500, 3000, 9408, 9409, 9506):
        t = sieve_arith(L)
        lam = t.lam_upto(L)
        tau = divisor_counts(L)
        assert len(lam) == len(t.mu) == len(tau) == L + 1
        assert tau[0] == 0 and t.mu[0] == 0
        for n in range(1, L + 1):
            fs = _trial_factor(n)
            omega = len(fs)
            sqfree = all(e == 1 for _, e in fs)
            assert tau[n] == math.prod(e + 1 for _, e in fs), (L, n)
            assert t.mu[n] == ((-1) ** omega if sqfree else 0), (L, n)
            if len(fs) == 1:
                assert lam[n] == math.log(fs[0][0]), (L, n)
            else:
                assert lam[n] == 0.0


def test_sieve_bytes_pinned():
    # sha256 of the dense lam and the mu bytes, and of the divisor-count
    # bytes, at L = 10**6, recorded from the earlier sieve that also filled
    # the omega and tau tables; the reports of sums vaughan and mobius read
    # these tables, so any bit that moves shows here first
    t = sieve_arith(10**6)
    lam = t.lam_upto(10**6)
    tau = divisor_counts(10**6)
    assert [a.dtype for a in (lam, t.mu, tau)] == [np.float64, np.int8, np.int64]
    assert hashlib.sha256(lam.tobytes() + t.mu.tobytes()).hexdigest() == (
        "e285ff3462904ab5170c94e1b27ed987900b25484ec2d60a5c23238cf1115b24")
    assert hashlib.sha256(tau.tobytes()).hexdigest() == (
        "639ea2e313c455650a0ed30d0160ae304883e08fc9d492fc338282dac63611b7")


def test_chebyshev_identity():
    L = 1000
    t = sieve_arith(L)
    lcm = 1
    for n in range(2, L + 1):
        lcm = math.lcm(lcm, n)
    assert float(t.lam_upto(L).sum()) == pytest.approx(math.log(lcm), abs=1e-6)


def test_lam_upto_is_a_prefix_of_the_dense_table():
    # n on both sides of isqrt(L), where the small primes' powers end and the
    # big primes begin; n past L is refused
    for L in (2, 9, 100, 9409):
        t = sieve_arith(L)
        full = t.lam_upto(L)
        for n in sorted({0, 1, 2, math.isqrt(L), math.isqrt(L) + 1, L // 2, L - 1, L}):
            assert t.lam_upto(n).tobytes() == full[:n + 1].tobytes(), (L, n)
        with pytest.raises(ValueError, match="past L"):
            t.lam_upto(L + 1)


def test_squarefree_count_identity():
    L = 2000
    t = sieve_arith(L)
    lhs = int(np.sum(t.mu[1:] * t.mu[1:]))
    rhs = sum(1 for n in range(1, L + 1)
              if all(n % (q * q) for q in range(2, math.isqrt(n) + 1)))
    assert lhs == rhs


def test_order_sum_examples():
    assert order_sum(20, 2, 1.0) == pytest.approx(1.4472222222222222, abs=1e-12)
    assert order_sum(3, 2, 1.0) == pytest.approx(0.5)
    assert order_sum(50, 2, 0.5) > order_sum(50, 2, 1.0)
    for x in (-5, 0, 1):
        assert order_sum(x, 2, 1.0) == 0.0
    assert order_sum(2, 3, 1.0) == 1.0  # ord_2(3) = 1
    assert order_sum(3, 3, 1.0) == 1.0  # 3 divides lambda
    with pytest.raises(ValueError):
        order_sum(20, 1, 1.0)


@pytest.mark.parametrize("x,lam,alpha", [
    *((20000, lam, alpha) for lam in (2, -6, 30) for alpha in (0.5, 1.0)),
    *((x, 2, 1.0) for x in (-5, 0, 1, 2, 3)),
])
def test_order_sum_against_mult_order(x, lam, alpha):
    # same primes, same ascending order, so the float sums agree exactly; the
    # loop adds left to right like order_sum (built-in sum() compensates its
    # rounding from Python 3.12 on)
    primes = primes_upto(x).elements if x >= 2 else ()
    expected = 0.0
    for p in primes:
        if lam % p:
            expected += 1.0 / mult_order(lam, p) ** alpha
    assert order_sum(x, lam, alpha) == expected


@pytest.mark.parametrize("x", [-5, 0, 1, 2, 3, 20, 20000, 300000])
@pytest.mark.parametrize("lam", [2, -6, 2**70 + 3])
def test_order_sum_matches_the_per_prime_loop(x, lam):
    for alpha in (0.5, 1.0):
        assert order_sum(x, lam, alpha) == order_sum_per_prime(x, lam, alpha)


def test_divisor_window_examples():
    assert divisor_window_count(20, 3) == 6
    assert divisor_window_count(4, 3) == 0
    assert divisor_window_count(10, 100) == 0
    for x in (-5, 0, 1, 2, 3):
        assert divisor_window_count(x, 3) == 0
    assert divisor_window_count(5, 3) == 1  # 4 | 5 - 1
    with pytest.raises(ValueError):
        divisor_window_count(20, 2)


@pytest.mark.parametrize("y", [3, 4, 7, 50, 1000, 5000])
def test_divisor_window_against_divisor_enumeration(y):
    # the oracle: enumerate the divisors of p - 1 directly
    hits = [p for p in range(2, 3001) if is_prime(p)
            and any((p - 1) % d == 0 for d in range(y + 1, 2 * y + 1))]
    for x in [*range(-2, 60), 97, 211, 1000, 2017, 3000]:
        assert divisor_window_count(x, y) == sum(p <= x for p in hits)


def test_erdos_delta_value():
    d = erdos_delta()
    assert f"{d:.6f}" == "0.086071"
    assert 0.0 < d < 1.0
    assert (1 + math.log(math.log(2))) / math.log(2) == pytest.approx(1 - d, abs=1e-15)
