import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    INDEX_TABLE_LIMIT,
    IndexTable,
    character_eval,
    order_by_stripping,
    orders_by_stepping,
)
from stlab.errors import RefusedError
from stlab.finite_field import (
    TABLE_LIMIT,
    ResidueTable,
    factor,
    is_prime,
    legendre,
    mult_order,
    mult_orders,
    power_table,
    primitive_root,
    require_prime_above_3,
)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 97, 101, 151, 211]
MEDIUM_PRIMES = [251, 401, 1009, 4999, 9973]


def test_legendre_examples_by_enumeration():
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(0, 7) == 0


@pytest.mark.parametrize("p", SMALL_PRIMES + MEDIUM_PRIMES)
def test_legendre_euler_and_table_agree(p):
    tbl = ResidueTable.build(p)
    squares = np.zeros(p, dtype=bool)
    x = np.arange(1, p, dtype=np.int64)
    squares[(x * x) % p] = True
    for a in range(p):
        sym = legendre(a, p)
        if a == 0:
            assert sym == 0 and tbl.leg[a] == 0
        else:
            assert sym == (1 if squares[a] else -1)
            assert tbl.leg[a] == sym
    assert tbl.leg.dtype == np.int8


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_residue_table_counts(p):
    tbl = ResidueTable.build(p)
    assert int(np.count_nonzero(tbl.leg == 1)) == (p - 1) // 2
    for x in range(p):
        assert tbl.leg[(x * x) % p] == 1 or x == 0


def test_primitive_root_examples():
    assert primitive_root(7) == 3
    assert primitive_root(5) == 2
    assert primitive_root(11) == 2
    # 2 mod 7 has order 3, so 2 must be rejected
    assert sorted({pow(2, k, 7) for k in range(1, 4)}) == [1, 2, 4]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_primitive_root_has_full_order(p):
    g = primitive_root(p)
    assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1
    for h in range(2, g):
        assert len({pow(h, k, p) for k in range(p - 1)}) < p - 1


def test_is_prime_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2, 2000):
        assert is_prime(n) == slow(n)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_up_to_the_least_strong_pseudoprime_to_its_bases():
    # psi_12, the least strong pseudoprime to every base 2..37, is caught by
    # base 41 alone; psi_13, the least to every base 2..41 (Sorenson-Webster),
    # still passes all 13, so the docstring's bound is the true one
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441 and not is_prime(psi12)
    assert psi13 == 1287836182261 * 2575672364521 and is_prime(psi13)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_factor_examples():
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(1) == []
    assert factor(1008) == [(2, 4), (3, 2), (7, 1)]


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_reconstructs(n):
    fs = factor(n)
    prod = 1
    for q, e in fs:
        assert is_prime(q)
        prod *= q**e
    assert prod == n
    assert [q for q, _ in fs] == sorted(q for q, _ in fs)


def test_index_table_bijection():
    tbl = IndexTable.build(101)
    assert tbl.ind[1] == 0
    assert tbl.ind[tbl.g] == 1
    assert tbl.ind[0] == -1
    assert sorted(int(z) for z in tbl.ind[1:]) == list(range(100))
    assert all(tbl.ind[pow(tbl.g, z, 101)] == z for z in range(100))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 101] + MEDIUM_PRIMES)
def test_power_table_matches_pow(p):
    g = primitive_root(p)
    pw = power_table(g, p)
    assert pw.dtype == np.int64
    assert pw.tolist() == [pow(g, z, p) for z in range(p - 1)]


def test_power_table_length_and_int64_guard():
    assert power_table(3, 7, 0).tolist() == []
    assert power_table(3, 7, 14).tolist() == [pow(3, z, 7) for z in range(14)]
    # the blockwise product of two powers must stay below 2**63
    small, big = 3037000493, 3037000507  # the primes around sqrt(2**63)
    assert is_prime(small) and is_prime(big) and small**2 < 2**63 <= big**2
    assert power_table(2, small, 5).tolist() == [pow(2, z, small) for z in range(5)]
    with pytest.raises(RefusedError, match="2\\*\\*63"):
        power_table(2, big, 5)


def test_one_prime_check():
    for p in (-7, 0, 1, 2, 4, 9, 15, 3 * 5 * 7 * 11):
        with pytest.raises(ValueError, match=f"^{p} is not an odd prime$"):
            require_prime_above_3(p)
    with pytest.raises(ValueError, match="^requires p > 3$"):
        require_prime_above_3(3)
    for p in (5, 7, 101, 8388617):
        require_prime_above_3(p)
    ResidueTable.build(3)  # the table still exists at p = 3
    with pytest.raises(ValueError, match="^9 is not an odd prime$"):
        ResidueTable.build(9)


def test_residue_table_holds_the_power_table():
    # leg is derived from pw, and every trace path reads both from the table
    for p in [q for q in range(3, 2000) if is_prime(q)] + [1000003]:
        tbl = ResidueTable.build(p)
        assert np.array_equal(tbl.pw, power_table(primitive_root(p), p))
        with pytest.raises(ValueError):
            tbl.pw[0] = 2
        with pytest.raises(ValueError):
            tbl.leg[0] = 1


def test_index_table_size_guard():
    big = 4194319  # first prime above 2**22
    assert big > INDEX_TABLE_LIMIT and is_prime(big)
    with pytest.raises(RefusedError):
        IndexTable.build(big)


def test_residue_table_size_guard():
    # admits the largest measured prime and stays above the index-table limit,
    # so every prime with an index table also gets a residue table
    assert 4194301 <= TABLE_LIMIT and INDEX_TABLE_LIMIT < TABLE_LIMIT
    big = 8388617  # first prime above 2**23
    assert big > TABLE_LIMIT and is_prime(big)
    with pytest.raises(RefusedError, match=str(TABLE_LIMIT)):
        ResidueTable.build(big)


def test_character_trivial_and_generator():
    tbl = IndexTable.build(13)
    for w in range(1, 13):
        assert character_eval(0, w, tbl) == pytest.approx(1.0)
    assert character_eval(1, tbl.g, tbl) == pytest.approx(cmath.exp(2j * cmath.pi / 12))
    with pytest.raises(ValueError):
        character_eval(1, 0, tbl)


@pytest.mark.parametrize("p", [7, 13, 101])
def test_character_quadratic_is_legendre(p):
    tbl = IndexTable.build(p)
    s = (p - 1) // 2
    for w in range(1, p):
        assert character_eval(s, w, tbl) == pytest.approx(legendre(w, p))


def test_character_multiplicativity():
    p = 13
    tbl = IndexTable.build(p)
    for s in (1, 3, 7):
        for t in (2, 5, 11):
            for w in (2, 6, 12):
                lhs = character_eval(s, w, tbl) * character_eval(t, w, tbl)
                rhs = character_eval((s + t) % (p - 1), w, tbl)
                assert lhs == pytest.approx(rhs)


@pytest.mark.parametrize("p", [7, 13, 101, 211])
def test_character_orthogonality(p):
    tbl = IndexTable.build(p)
    for s in (0, 1, 2, (p - 1) // 2, p - 2):
        total = sum(character_eval(s, w, tbl) for w in range(1, p))
        expected = p - 1 if s == 0 else 0.0
        assert abs(total - expected) <= 1e-9 * (p - 1)


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(3, 7) == 6
    assert mult_order(-1, 11) == 2
    with pytest.raises(ValueError):
        mult_order(14, 7)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=2, max_value=10**6))
def test_mult_order_divides_and_minimal(p, lam):
    if lam % p == 0:
        lam += 1
    r = mult_order(lam, p)
    assert (p - 1) % r == 0
    assert pow(lam, r, p) == 1
    for q, _ in factor(r):
        assert pow(lam, r // q, p) != 1


def _factored(primes):
    """p - 1 of every prime as the flat (owner, q, e) arrays of mult_orders."""
    rows = [(i, q, e) for i, p in enumerate(primes) for q, e in factor(p - 1)]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


@pytest.mark.parametrize("lam", [2, 3, -1, 10])
def test_order_by_stripping_matches_mult_order(lam):
    primes = [p for p in range(2, 2000) if is_prime(p) and lam % p]
    orders = mult_orders(lam, np.array(primes), *_factored(primes)).tolist()
    for p, got in zip(primes, orders):
        r, w = 1, lam % p  # the oracle: step through the powers of lam
        while w != 1:
            w = w * lam % p
            r += 1
        assert order_by_stripping(lam % p, p, factor(p - 1)) == got == mult_order(lam, p) == r, p


PRIMES_BELOW_5000 = [p for p in range(2, 5000) if is_prime(p)]


@pytest.mark.parametrize("lam", [2, -2, 3, -6, 30, 2**62 + 1, 2**70 + 3])
def test_mult_orders_match_power_stepping(lam):
    # every prime below 5000, p = 2 and 3 and the p dividing lam among them;
    # 2**62 + 1 and 2**70 + 3 reduce exactly although they leave int64
    primes = PRIMES_BELOW_5000
    want = orders_by_stepping(lam, primes)
    assert any(r == 0 for r in want)
    assert mult_orders(lam, np.array(primes), *_factored(primes)).tolist() == want
    for p, r in zip(primes, want):
        if r:
            assert mult_order(lam, p) == r, p
        else:
            with pytest.raises(ValueError, match="divides"):
                mult_order(lam, p)


def test_mult_orders_int64_guard():
    small, big = 3037000493, 3037000507  # the primes around sqrt(2**63)
    r = mult_order(2, small)
    assert (small - 1) % r == 0 and pow(2, r, small) == 1
    assert all(pow(2, r // q, small) != 1 for q, _ in factor(r))
    with pytest.raises(RefusedError, match="2\\*\\*63"):
        mult_order(2, big)
    with pytest.raises(RefusedError, match="2\\*\\*63"):
        mult_orders(2, np.array([5, big]), *_factored([5, big]))
    assert mult_orders(2, np.zeros(0, dtype=np.int64), *_factored([])).tolist() == []
