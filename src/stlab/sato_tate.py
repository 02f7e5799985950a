"""The semicircle (Sato-Tate) law on [0, pi] and the equidistribution toolkit.

Provides the measure and its CDF in closed form, Chebyshev-U / sym_n test
functions, twisted sums over angle samples, exact star and interval
discrepancies of a sample against the law, and the Niederreiter-style
diagnostic bracket m/k + sum_{n<=k} |S_n| / n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

INTERVAL_EXACT_LIMIT = 5000


@dataclass(frozen=True)
class Interval:
    """Closed subinterval [alpha, beta] of [0, pi]; both endpoints count as members."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= self.beta <= math.pi):
            raise ValueError(f"need 0 <= alpha <= beta <= pi, got [{self.alpha}, {self.beta}]")


FULL = Interval(0.0, math.pi)


@dataclass(frozen=True)
class AngleSample:
    """A multiset of angles in [0, pi]."""

    psis: np.ndarray

    def __post_init__(self):
        psis = np.asarray(self.psis, dtype=np.float64)
        if psis.size and (psis.min() < 0.0 or psis.max() > math.pi):
            raise ValueError("angles must lie in [0, pi]")
        object.__setattr__(self, "psis", psis)

    @property
    def m(self) -> int:
        return int(self.psis.size)


@dataclass(frozen=True)
class DiscrepancyReport:
    m: int
    star: float
    interval_bound: float
    niederreiter_rhs: float
    k_used: int
    interval_exact: bool = True


def mu_st(iv: Interval) -> float:
    """Measure of [alpha, beta] under (2/pi) sin^2(theta) d theta, in closed form."""
    a, b = iv.alpha, iv.beta
    return (b - a) / math.pi - (math.sin(2 * b) - math.sin(2 * a)) / (2 * math.pi)


def st_cdf(theta: float) -> float:
    """CDF of the law at theta in [0, pi]."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta={theta} outside [0, pi]")
    return theta / math.pi - math.sin(2 * theta) / (2 * math.pi)


def sym_terms(z, n_max: int):
    """Yield (n, U_n(z)) for n = 1..n_max by the three-term recurrence."""
    if n_max < 1:
        return
    z = np.asarray(z, dtype=np.float64)
    prev, cur = np.ones_like(z), 2.0 * z
    yield 1, cur
    for n in range(2, n_max + 1):
        prev, cur = cur, 2.0 * z * cur - prev
        yield n, cur


def chebyshev_U(n: int, z):
    """Chebyshev polynomial of the second kind by the three-term recurrence.

    Accepts a scalar or an ndarray; |U_n(z)| <= n+1 on [-1, 1].
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    val = np.ones_like(z)
    for _, val in sym_terms(z, n):
        pass
    return val if val.ndim else float(val)


def sym(n: int, theta):
    """sin((n+1)theta)/sin(theta), evaluated as U_n(cos theta).

    The recurrence is exact at the removable singularities theta = 0, pi,
    where the limits are n+1 and (-1)^n (n+1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return chebyshev_U(n, np.cos(theta))


def sym_sum(sample: AngleSample, n: int) -> complex:
    """Sum of sym_n(psi_i) over the sample."""
    return complex(np.sum(chebyshev_U(n, np.cos(sample.psis))))


def _transformed_sorted(sample: AngleSample) -> np.ndarray:
    t = sample.psis / math.pi - np.sin(2.0 * sample.psis) / (2.0 * math.pi)
    t.sort()
    return t


def _star(u: np.ndarray) -> float:
    """Star discrepancy of the sorted CDF transform u (nonempty)."""
    m = u.size
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / m - u, u - (i - 1) / m)))


def _interval_exact(u: np.ndarray) -> float:
    """The exact interval discrepancy from the sorted CDF transform u (nonempty)."""
    m = u.size
    # u is sorted, so its distinct values start the runs of equal entries
    starts = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
    vals = u[starts]
    counts = np.diff(np.append(starts, m))
    cum = np.cumsum(counts)  # points <= vals[k]
    grid = np.concatenate(([0.0], vals, [1.0]))
    le = np.concatenate(([0], cum, [m])).astype(np.float64)  # points <= grid point
    lt = np.concatenate(([0], cum - counts, [m])).astype(np.float64)  # points < grid point
    h_le = le / m - grid  # (a, b] intervals: dev = h_le(b) - h_le(a)
    h_lt = lt / m - grid  # [a, b) intervals: dev = h_lt(b) - h_lt(a)
    return max(float(h_le.max() - h_le.min()), float(h_lt.max() - h_lt.min()))


def star_discrepancy(sample: AngleSample) -> float:
    """Exact star discrepancy of the CDF-transformed sample against uniform."""
    if sample.m < 1:
        raise ValueError("empty sample")
    return _star(_transformed_sorted(sample))


def interval_discrepancy(sample: AngleSample) -> tuple[float, bool]:
    """Largest |count/m - measure| over subintervals of [0, pi].

    Maximized over the candidate endpoint grid induced by the sample (plus the
    domain endpoints), scanning both half-open orientations; this reproduces
    the one-sided sup limits at every grid point.  Returns (value, exact);
    for m > INTERVAL_EXACT_LIMIT the 2 * star bound is returned with
    exact=False.
    """
    m = sample.m
    if m < 1:
        raise ValueError("empty sample")
    u = _transformed_sorted(sample)
    if m > INTERVAL_EXACT_LIMIT:
        return 2.0 * _star(u), False
    return _interval_exact(u), True


def _sym_sum_terms(sample: AngleSample, n_max: int):
    """|sym-sum_n| / n for n = 1..n_max, one recurrence step each, as asked for."""
    for n, u in sym_terms(np.cos(sample.psis), n_max):
        yield abs(float(np.sum(u))) / n


def _bracket(m: int, k: int, terms) -> float:
    """m/k plus the terms added in their order."""
    total = 0.0
    for term in terms:
        total += term
    return m / k + total


def niederreiter_rhs(sample: AngleSample, k: int) -> float:
    """Diagnostic bracket m/k + sum_{n<=k} |sym-sum_n| / n, implied constant omitted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = sample.m
    if m == 0:
        return 0.0
    return _bracket(m, k, _sym_sum_terms(sample, k))


def discrepancy_report(sample: AngleSample) -> DiscrepancyReport:
    """Assemble star/interval discrepancies plus the bracket at the recipe's k.

    k = ceil((m/sigma)^(1/2)) when sigma < m, else 1, with sigma the observed
    max over n <= 20 of |sym-sum_n| / n.  One pass of the recurrence gives
    sigma's terms and the bracket's, continued past n = 20 only when k > 20,
    and one sorted CDF transform serves both discrepancies.
    """
    m = sample.m
    if m < 1:
        raise ValueError("empty sample")
    more = _sym_sum_terms(sample, max(20, m))
    terms = list(itertools.islice(more, 20))
    sigma = max(terms)
    if sigma >= m:
        k = 1
    elif sigma <= 0.0:
        k = m  # degenerate: all test sums vanish; cap at m
    else:
        k = min(max(1, math.ceil((m / sigma) ** 0.5)), m)
    if k > 20:
        terms += itertools.islice(more, k - 20)
    del more
    u = _transformed_sorted(sample)
    star = _star(u)
    exact = m <= INTERVAL_EXACT_LIMIT
    return DiscrepancyReport(
        m=m,
        star=star,
        interval_bound=_interval_exact(u) if exact else 2.0 * star,
        niederreiter_rhs=_bracket(m, k, terms[:k]),
        k_used=k,
        interval_exact=exact,
    )
