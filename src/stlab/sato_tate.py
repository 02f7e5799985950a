"""The semicircle (Sato-Tate) law on [0, pi] and the equidistribution toolkit.

Provides the measure and its CDF in closed form, Chebyshev-U / sym_n test
functions, twisted sums over angle samples, exact star and interval
discrepancies of a sample against the law, and the Niederreiter-style
diagnostic bracket m/k + sum_{n<=k} |S_n| / n.
"""

from __future__ import annotations

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
    """A multiset of angles in [0, pi] with a provenance descriptor."""

    psis: np.ndarray
    descriptor: str = ""

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


def sym_sum(sample: AngleSample, n: int, weights=None) -> complex:
    """Sum of w_i * sym_n(psi_i) over the sample; weights default to 1."""
    vals = chebyshev_U(n, np.cos(sample.psis))
    if weights is None:
        return complex(np.sum(vals))
    w = np.asarray(weights)
    if w.shape != sample.psis.shape:
        raise ValueError("weights length must match the sample")
    return complex(np.sum(w * vals))


def _transformed_sorted(sample: AngleSample) -> np.ndarray:
    t = sample.psis / math.pi - np.sin(2.0 * sample.psis) / (2.0 * math.pi)
    t.sort()
    return t


def star_discrepancy(sample: AngleSample) -> float:
    """Exact star discrepancy of the CDF-transformed sample against uniform."""
    m = sample.m
    if m < 1:
        raise ValueError("empty sample")
    u = _transformed_sorted(sample)
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / m - u, u - (i - 1) / m)))


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
    if m > INTERVAL_EXACT_LIMIT:
        return 2.0 * star_discrepancy(sample), False
    u = _transformed_sorted(sample)
    vals, counts = np.unique(u, return_counts=True)
    cum = np.cumsum(counts)  # points <= vals[k]
    grid = np.concatenate(([0.0], vals, [1.0]))
    le = np.concatenate(([0], cum, [m])).astype(np.float64)  # points <= grid point
    lt = np.concatenate(([0], cum - counts, [m])).astype(np.float64)  # points < grid point
    h_le = le / m - grid  # (a, b] intervals: dev = h_le(b) - h_le(a)
    h_lt = lt / m - grid  # [a, b) intervals: dev = h_lt(b) - h_lt(a)
    d = max(float(h_le.max() - h_le.min()), float(h_lt.max() - h_lt.min()))
    return d, True


def niederreiter_rhs(sample: AngleSample, k: int) -> float:
    """Diagnostic bracket m/k + sum_{n<=k} |sym-sum_n| / n, implied constant omitted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = sample.m
    if m == 0:
        return 0.0
    total = 0.0
    for n, u in sym_terms(np.cos(sample.psis), k):
        total += abs(float(np.sum(u))) / n
    return m / k + total


def discrepancy_report(sample: AngleSample, sigma_hint: float | None = None,
                       a_hint: float = 1.0) -> DiscrepancyReport:
    """Assemble star/interval discrepancies plus the bracket at the recipe's k.

    k = ceil((m/sigma)^(1/(A+1))) when sigma < m, else 1; sigma defaults to
    the observed max over n <= 20 of |sym-sum_n| / n^A.
    """
    m = sample.m
    if m < 1:
        raise ValueError("empty sample")
    if sigma_hint is None:
        sigma = max(abs(float(np.sum(u))) / n**a_hint
                    for n, u in sym_terms(np.cos(sample.psis), 20))
    else:
        sigma = float(sigma_hint)
    if sigma >= m:
        k = 1
    elif sigma <= 0.0:
        k = m  # degenerate: all test sums vanish; cap at m
    else:
        k = max(1, math.ceil((m / sigma) ** (1.0 / (a_hint + 1.0))))
        k = min(k, max(1, m))
    iv_disc, exact = interval_discrepancy(sample)
    return DiscrepancyReport(
        m=m,
        star=star_discrepancy(sample),
        interval_bound=iv_disc,
        niederreiter_rhs=niederreiter_rhs(sample, k),
        k_used=k,
        interval_exact=exact,
    )
