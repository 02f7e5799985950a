import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlab.finite_field import mult_order
from stlab.param_sets import (
    ArithTables,
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
    ps = product_residues([2, 3], [4], 11)
    assert ps.pairs == ((2, 4), (3, 4))
    with pytest.raises(ValueError):
        product_residues([7], [1], 7)


def test_primes_examples():
    assert primes_upto(10).elements == (2, 3, 5, 7)
    assert primes_upto(2).elements == (2,)
    assert len(primes_upto(100).elements) == 25
    with pytest.raises(ValueError):
        primes_upto(1)


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
    assert t.lam[8] == pytest.approx(math.log(2))
    assert t.lam[7] == pytest.approx(math.log(7))
    assert t.lam[6] == 0.0
    assert t.mu[6] == 1 and t.mu[12] == 0 and t.mu[10] == 1 and t.mu[7] == -1
    assert t.omega[12] == 2
    assert t.tau[12] == 6


def test_sieve_against_trial_division():
    L = 500
    t = sieve_arith(L)
    for n in range(1, L + 1):
        fs = []
        m = n
        d = 2
        while d * d <= m:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e:
                fs.append((d, e))
            d += 1
        if m > 1:
            fs.append((m, 1))
        omega = len(fs)
        tau = np.prod([e + 1 for _, e in fs]) if fs else 1
        sqfree = all(e == 1 for _, e in fs)
        assert t.omega[n] == omega
        assert t.tau[n] == tau
        assert t.mu[n] == ((-1) ** omega if sqfree else 0)
        if len(fs) == 1:
            assert t.lam[n] == pytest.approx(math.log(fs[0][0]))
        else:
            assert t.lam[n] == 0.0


def test_chebyshev_identity():
    L = 1000
    t = sieve_arith(L)
    lcm = 1
    for n in range(2, L + 1):
        lcm = math.lcm(lcm, n)
    assert float(t.lam[: L + 1].sum()) == pytest.approx(math.log(lcm), abs=1e-6)


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
    with pytest.raises(ValueError):
        order_sum(20, 1, 1.0)


def test_divisor_window_examples():
    assert divisor_window_count(20, 3) == 6
    assert divisor_window_count(4, 3) == 0
    assert divisor_window_count(10, 100) == 0
    with pytest.raises(ValueError):
        divisor_window_count(20, 2)


def test_erdos_delta_value():
    d = erdos_delta()
    assert f"{d:.6f}" == "0.086071"
    assert 0.0 < d < 1.0
    assert (1 + math.log(math.log(2))) / math.log(2) == pytest.approx(1 - d, abs=1e-15)
