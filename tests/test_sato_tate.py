import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from stlab.sato_tate import (
    FULL,
    AngleSample,
    Interval,
    chebyshev_U,
    discrepancy_report,
    interval_discrepancy,
    mu_st,
    niederreiter_rhs,
    st_cdf,
    star_discrepancy,
    sym,
    sym_sum,
    sym_terms,
)


def density(theta):
    return (2.0 / math.pi) * math.sin(theta) ** 2


def inv_cdf(u):
    return brentq(lambda t: st_cdf(t) - u, 0.0, math.pi)


def sample_of(us):
    return AngleSample(np.array([inv_cdf(u) for u in us]))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(-0.1, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        AngleSample(np.array([-0.2]))


def test_mu_st_closed_values():
    assert mu_st(FULL) == 1.0
    assert mu_st(Interval(0.0, math.pi / 2)) == pytest.approx(0.5, abs=1e-15)
    third = mu_st(Interval(math.pi / 3, 2 * math.pi / 3))
    assert third == pytest.approx(1 / 3 + math.sqrt(3) / (2 * math.pi), abs=1e-12)
    oracle, _ = quad(density, math.pi / 3, 2 * math.pi / 3, epsabs=1e-12)
    assert third == pytest.approx(oracle, abs=1e-9)


def test_mu_st_matches_quadrature_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = np.sort(rng.uniform(0.0, math.pi, size=2))
        got = mu_st(Interval(float(a), float(b)))
        want, _ = quad(density, a, b, epsabs=1e-12)
        assert abs(got - want) <= 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=3, max_size=3))
def test_mu_st_additive(vals):
    a, b, c = sorted(vals)
    lhs = mu_st(Interval(a, c))
    rhs = mu_st(Interval(a, b)) + mu_st(Interval(b, c))
    assert abs(lhs - rhs) <= 1e-12


def test_st_cdf():
    assert st_cdf(0.0) == 0.0
    assert st_cdf(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert st_cdf(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    grid = np.linspace(0.001, math.pi - 0.001, 200)
    vals = [st_cdf(t) for t in grid]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        st_cdf(-0.01)
    with pytest.raises(ValueError):
        st_cdf(math.pi + 0.01)


def test_chebyshev_examples():
    for n in range(21):
        assert chebyshev_U(n, 1.0) == n + 1
    assert chebyshev_U(2, 0.0) == -1.0
    assert chebyshev_U(3, 0.5) == -1.0  # 2*0.5*U2(0.5) - U1(0.5) = 0 - 1
    assert chebyshev_U(0, -0.3) == 1.0


def test_sym_terms_matches_chebyshev():
    z = np.linspace(-1.0, 1.0, 41)
    terms = list(sym_terms(z, 12))
    assert [n for n, _ in terms] == list(range(1, 13))
    for n, u in terms:
        assert np.array_equal(u, chebyshev_U(n, z))
    assert [n for n, _ in sym_terms(0.3, 12)] == list(range(1, 13))
    assert list(sym_terms(z, 0)) == []


def test_sym_examples():
    assert sym(1, math.pi / 3) == pytest.approx(1.0)
    assert sym(2, math.pi / 2) == pytest.approx(-1.0)
    assert sym(4, 0.0) == 5.0
    assert sym(3, math.pi) == pytest.approx(-4.0)  # (-1)^n (n+1)
    for theta in (0.3, 1.1, 2.7):
        assert sym(1, theta) == pytest.approx(2 * math.cos(theta))


def test_sym_matches_sine_quotient_on_grid():
    thetas = np.linspace(0.01, math.pi - 0.01, 101)
    for n in (1, 2, 5, 17, 50):
        direct = np.sin((n + 1) * thetas) / np.sin(thetas)
        assert np.max(np.abs(sym(n, thetas) - direct)) <= 1e-9


@given(st.integers(min_value=1, max_value=50),
       st.floats(min_value=0.0, max_value=math.pi))
def test_sym_bound(n, theta):
    assert abs(sym(n, theta)) <= n + 1


def test_sym_sum_examples():
    assert sym_sum(AngleSample(np.array([])), 1) == 0
    assert sym_sum(AngleSample(np.array([math.pi / 2])), 1) == pytest.approx(0.0)
    two = AngleSample(np.array([math.pi / 3, 2 * math.pi / 3]))
    assert sym_sum(two, 1) == pytest.approx(0.0)
    weighted = sym_sum(two, 1, weights=[1.0, 0.0])
    assert weighted == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sym_sum(two, 1, weights=[1.0])


def test_star_discrepancy_cases():
    assert star_discrepancy(AngleSample(np.array([math.pi / 2]))) == pytest.approx(0.5)
    m = 8
    quantiles = sample_of([(2 * i - 1) / (2 * m) for i in range(1, m + 1)])
    assert star_discrepancy(quantiles) == pytest.approx(1 / (2 * m), abs=1e-9)
    assert star_discrepancy(sample_of([0.1, 0.2])) == pytest.approx(0.8, abs=1e-9)
    with pytest.raises(ValueError):
        star_discrepancy(AngleSample(np.array([])))


def test_interval_discrepancy_cases():
    d, exact = interval_discrepancy(AngleSample(np.array([math.pi / 2])))
    assert exact and d == pytest.approx(0.5)
    d, exact = interval_discrepancy(sample_of([0.1, 0.2]))
    assert exact and d == pytest.approx(0.8, abs=1e-9)
    # beyond the exact-mode limit the 2 * star bound is returned and flagged
    big = AngleSample(np.full(5001, math.pi / 2))
    d, exact = interval_discrepancy(big)
    assert not exact
    assert d == pytest.approx(2 * star_discrepancy(big))


@given(st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=40))
def test_discrepancy_chain(psis):
    s = AngleSample(np.array(psis))
    star = star_discrepancy(s)
    iv, exact = interval_discrepancy(s)
    assert exact
    assert star <= iv + 1e-12
    assert iv <= 2 * star + 1e-12


def test_niederreiter_examples():
    assert niederreiter_rhs(AngleSample(np.array([])), 1) == 0.0
    s = sample_of([0.3, 0.6, 0.9])
    m = 3
    expect = m + abs(sym_sum(s, 1))
    assert niederreiter_rhs(s, 1) == pytest.approx(expect.real)
    halves = AngleSample(np.full(10, math.pi / 2))
    # sym_1 vanishes there and sym_2 = -1 per angle
    assert niederreiter_rhs(halves, 2) == pytest.approx(10.0)


def test_discrepancy_report_recipe():
    s = AngleSample(np.full(10_000, math.pi / 2))
    assert discrepancy_report(s, sigma_hint=10_000).k_used == 1
    assert discrepancy_report(s, sigma_hint=100.0, a_hint=1.0).k_used == 10
    one = AngleSample(np.array([1.0]))
    rep = discrepancy_report(one, sigma_hint=1.0)
    assert rep.k_used == 1 and rep.m == 1
    assert rep.interval_bound <= 2 * rep.star + 1e-12
