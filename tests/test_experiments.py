"""Brute-force oracles for every experiment.

The oracles below never touch the production trace path: angles come from
count_points_naive, sym values from the sine quotient, arithmetic functions
from per-integer trial division, characters from character_eval.
"""

import concurrent.futures
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import IndexTable, character_eval, psi_of_t_by_index, type_ii_per_row
from stlab import experiments as ex
from stlab.cli import run
from stlab.errors import NondegeneracyError
from stlab.family import CurveInstance, build_family, delta_at
from stlab.finite_field import mult_order, power_table, primitive_root
from stlab.param_sets import primes_upto, sieve_arith, subgroup
from stlab.sato_tate import FULL, Interval, mu_st
from stlab.traces import count_points_naive, param_array

IV = Interval(math.pi / 3, 2 * math.pi / 3)


# ---------------------------------------------------------------------------
# oracle helpers


def trace_naive(p, w, fam):
    """Trace from the exhaustive point count; None at bad reduction."""
    w %= p
    a = sum(c * w**i for i, c in enumerate(fam.f_coeffs)) % p
    b = sum(c * w**i for i, c in enumerate(fam.g_coeffs)) % p
    if delta_at(fam, w) % p == 0:
        return None
    return p + 1 - count_points_naive(CurveInstance(p, a, b))


def psi_naive(p, w, fam):
    """Angle from the exhaustive point count; None at bad reduction."""
    a = trace_naive(p, w, fam)
    return None if a is None else math.acos(a / (2 * math.sqrt(p)))


def sym_quotient(n, theta):
    if theta < 1e-9:
        return float(n + 1)
    if theta > math.pi - 1e-9:
        return float((-1) ** n * (n + 1))
    return math.sin((n + 1) * theta) / math.sin(theta)


def trial_lambda(t):
    fs = trial_factor(t)
    return math.log(fs[0][0]) if len(fs) == 1 else 0.0


def trial_factor(t):
    out = []
    d = 2
    while d * d <= t:
        e = 0
        while t % d == 0:
            t //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if t > 1:
        out.append((t, 1))
    return out


def trial_mu(t):
    fs = trial_factor(t)
    if any(e > 1 for _, e in fs):
        return 0
    return (-1) ** len(fs)


def trial_tau(t):
    out = 1
    for _, e in trial_factor(t):
        out *= e + 1
    return out


def in_iv(psi, iv):
    return psi is not None and iv.alpha <= psi <= iv.beta


# ---------------------------------------------------------------------------
# vertical experiments


def test_vertical_subgroup_against_oracle(fam_zz):
    p, r = 13, 4
    elems = subgroup(p, r).elements
    assert set(elems) == {1, 8, 12, 5}
    for iv in (FULL, IV, Interval(0.0, 1.0)):
        rep = ex.vertical_subgroup(fam_zz, p, r, iv)
        want = sum(1 for w in elems if in_iv(psi_naive(p, w, fam_zz), iv))
        good = sum(1 for w in elems if psi_naive(p, w, fam_zz) is not None)
        assert rep.count == want and rep.m == good
        assert rep.theorem_bracket == pytest.approx(math.sqrt(r) * p**0.25)
        assert rep.expected == pytest.approx(good * mu_st(iv))


def test_vertical_subgroup_full_interval_lower_bound(fam_zz):
    rep = ex.vertical_subgroup(fam_zz, 101, 50, FULL)
    assert rep.count == rep.m >= 50 - fam_zz.deg_delta


def test_vertical_subgroup_point_interval(fam_zz):
    rep = ex.vertical_subgroup(fam_zz, 13, 4, Interval(0.001, 0.001))
    assert rep.count == 0 and rep.expected == pytest.approx(0.0, abs=1e-12)


def test_vertical_subgroup_preconditions(fam_zz):
    with pytest.raises(ValueError):
        ex.vertical_subgroup(fam_zz, 13, 5, FULL)
    with pytest.raises(NondegeneracyError):
        ex.vertical_subgroup(build_family([], [0, 1]), 13, 4, FULL)


def test_vertical_product_against_oracle(fam_zz):
    p = 13
    U = V = [1, 2, 3]
    rep = ex.vertical_product(fam_zz, p, U, V, IV)
    want = sum(1 for u in U for v in V if in_iv(psi_naive(p, u * v, fam_zz), IV))
    good = sum(1 for u in U for v in V if psi_naive(p, u * v, fam_zz) is not None)
    assert rep.count == want and rep.m == good
    assert rep.theorem_bracket == pytest.approx(9**0.75 * 13**0.25)


def test_vertical_product_multiset_semantics(fam_zz):
    # pairs (1,6) and (2,3) collide at the same residue but count twice
    rep = ex.vertical_product(fam_zz, 13, [1, 2], [6, 3], FULL)
    assert rep.m == sum(1 for u in (1, 2) for v in (6, 3)
                        if psi_naive(13, u * v, fam_zz) is not None)


def test_vertical_primes_against_oracle(fam_zz):
    p, L = 13, 100
    rep = ex.vertical_primes(fam_zz, p, L, IV)
    ells = primes_upto(L).elements
    assert len(ells) == 25
    want = sum(1 for ell in ells if in_iv(psi_naive(p, ell, fam_zz), IV))
    good = sum(1 for ell in ells if psi_naive(p, ell, fam_zz) is not None)
    assert rep.count == want and rep.m == good
    full = ex.vertical_primes(fam_zz, p, L, FULL)
    assert full.count == good


def test_vertical_counts_monotone_in_interval(fam_zz):
    inner = ex.vertical_subgroup(fam_zz, 101, 50, Interval(1.0, 2.0)).count
    outer = ex.vertical_subgroup(fam_zz, 101, 50, Interval(0.8, 2.2)).count
    assert inner <= outer


# ---------------------------------------------------------------------------
# mixed experiments


def brute_mixed(fam, x, params_with_mult, iv, skip_lam=None):
    total = 0
    for p in primes_upto(x).elements:
        if p < 5 or (skip_lam is not None and skip_lam % p == 0):
            continue
        for t, mult in params_with_mult:
            if in_iv(psi_naive(p, t, fam), iv):
                total += mult
    return total


def test_mixed_product_against_oracle(fam_zz):
    x, U, V = 100, range(1, 6), range(1, 6)
    mults = Counter(u * v for u in U for v in V)
    for iv in (FULL, IV):
        rep = ex.mixed_product(fam_zz, x, U, V, iv)
        want = brute_mixed(fam_zz, x, sorted(mults.items()), iv)
        assert rep.raw_count == want
        assert rep.normalized_average == pytest.approx(want / (25 * 25))
        assert rep.pi_x == 25
    assert rep.normalized_average <= 1.0
    assert rep.theorem_bracket == pytest.approx((100 / 25) ** 0.25)


def test_mixed_product_degenerate_single_pair(fam_zz):
    rep = ex.mixed_product(fam_zz, 50, [1], [1], FULL)
    want = brute_mixed(fam_zz, 50, [(1, 1)], FULL)
    assert rep.raw_count == want


def test_mixed_geometric_against_oracle(fam_zz):
    x, lam, T = 50, 2, 10
    params = [(lam**t, 1) for t in range(1, T + 1)]
    for iv in (FULL, IV):
        rep = ex.mixed_geometric(fam_zz, x, lam, T, iv)
        assert rep.raw_count == brute_mixed(fam_zz, x, params, iv, skip_lam=lam)
    assert rep.order_sum_half is not None
    single = ex.mixed_geometric(fam_zz, 20, 3, 1, FULL)
    assert single.raw_count == brute_mixed(fam_zz, 20, [(3, 1)], FULL, skip_lam=3)
    assert 3 in single.skipped_primes


def test_mixed_primes_against_oracle(fam_zz):
    x, L = 100, 50
    params = [(ell, 1) for ell in primes_upto(L).elements]
    rep = ex.mixed_primes(fam_zz, x, L, IV)
    assert rep.raw_count == brute_mixed(fam_zz, x, params, IV)
    assert rep.denominator == 25 * len(params)


def test_interval_count_matches_the_per_parameter_loop(fam_zz):
    # the reference is the accumulation one parameter at a time, with
    # math.acos(a * inv) on the same double as the production path
    mults = sorted(Counter(u * v for u in range(1, 13) for v in range(1, 13)).items())
    mults += [(3**k, 2) for k in range(38, 46)]  # past int64 from k = 40
    arrays = (param_array([t for t, _ in mults]), np.array([m for _, m in mults]))

    def reference(p, iv):
        inv = 1.0 / (2.0 * math.sqrt(p))
        want = [0, 0, 0]
        for t, m in mults:
            a = trace_naive(p, t, fam_zz)
            if a is None:
                want[2] += m
                continue
            want[1] += m
            if iv.alpha <= math.acos(a * inv) <= iv.beta:
                want[0] += m
        return tuple(want)

    # an endpoint on the angle of a = 3 at p = 7 (t = 1) as the loop forms it:
    # a / (2 sqrt 7) gives a double one bit off, which moves the count
    edge = math.acos(3 * (1.0 / (2.0 * math.sqrt(7))))
    cases = [(p, IV) for p in primes_upto(300).elements[2:]]
    cases += [(7, Interval(edge, math.pi)), (7, Interval(0.0, edge))]
    for p, iv in cases:
        assert ex._interval_count_at_prime(fam_zz, p, arrays, iv, None) == reference(p, iv)


def test_mixed_requires_global_nondeg():
    with pytest.raises(NondegeneracyError):
        ex.mixed_product(build_family([0, 1], []), 50, [1], [1], FULL)


def test_mixed_identity_with_per_prime_counts(fam_zz):
    rep = ex.mixed_product(fam_zz, 60, range(1, 5), range(1, 5), IV,
                           keep_per_prime=True)
    assert rep.raw_count == sum(c for _, c, _ in rep.per_prime)


def test_mixed_runs_start_no_thread_pool(fam_zz, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a mixed run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(ex, "ThreadPoolExecutor", refuse, raising=False)
    one, four = (ex.mixed_product(fam_zz, 200, range(1, 9), range(1, 9), IV,
                                  threads=t, keep_per_prime=True) for t in (1, 4))
    assert four == one


@pytest.mark.parametrize("command, args", [
    ("mixed-product", ["--set-u", "1..3", "--set-v", "1..3"]),
    ("mixed-primes", ["-L", "10"]),
])
def test_mixed_x_below_two_exit_1(capsys, command, args):
    code = run(["experiment", command, "--f", "0,1", "--g", "0,1", "-x", "1", *args])
    assert code == 1
    assert "error: x must be >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# character sums


def charsum_oracle(fam, p, n, s, tbl):
    total = 0j
    for w in range(1, p):
        psi = psi_naive(p, w, fam)
        if psi is None:
            continue
        total += sym_quotient(n, psi) * character_eval(s, w, tbl)
    return total


def test_charsum_exhaustive_matches_double_loop(fam_zz):
    p = 13
    tbl = IndexTable.build(p)
    reports = ex.charsum_verify(fam_zz, p, 2)
    for rep in reports:
        mags = [abs(charsum_oracle(fam_zz, p, rep.n, s, tbl)) for s in range(p - 1)]
        assert rep.max_abs == pytest.approx(max(mags), abs=1e-9)
        assert mags[rep.worst_character_index] == pytest.approx(rep.max_abs, abs=1e-9)
        assert rep.max_abs <= rep.bound + 1e-6
        # trivial character: the plain sym sum obeys the same exact bound
        assert mags[0] <= rep.bound + 1e-6


def test_charsum_subgroup_matches_double_loop(fam_zz):
    p, r = 13, 4
    tbl = IndexTable.build(p)
    elems = subgroup(p, r).elements
    reports = ex.charsum_verify(fam_zz, p, 1, subgroup_r=r)
    rep = reports[0]

    def oracle(s):
        total = 0j
        for w in elems:
            psi = psi_naive(p, w, fam_zz)
            if psi is None:
                continue
            total += sym_quotient(1, psi) * character_eval(s, w, tbl)
        return total

    mags = [abs(oracle(s)) for s in range(p - 1)]
    assert rep.max_abs == pytest.approx(max(mags), abs=1e-9)
    assert rep.max_abs <= rep.bound + 1e-6
    assert rep.subgroup_r == r
    for bad in (0, -4, 5):
        with pytest.raises(ValueError, match=f"r={bad} does not divide p-1=12"):
            ex.charsum_verify(fam_zz, p, 1, subgroup_r=bad)


def test_charsum_orders_by_power_table_not_index_table(fam_zz, monkeypatch):
    # the exhaustive order w_of[z] = g^z is the power table of the primitive
    # root, so charsum never needs the discrete-log table
    for p in (5, 7, 101, 1009, 10007):
        ind = IndexTable.build(p).ind
        assert np.array_equal(ind[power_table(primitive_root(p), p)], np.arange(p - 1))

    def fail(*args, **kw):
        raise AssertionError("an index table was built")
    monkeypatch.setattr(IndexTable, "build", fail)
    # reports of the discrete-log ordering, recorded before it was replaced
    expected = {
        None: [(31.79624177603821, 0), (62.03642697334027, 562), (83.86721519614284, 406)],
        504: [(31.79624177603821, 0), (58.714334424806815, 37), (58.00776696704412, 98)],
        36: [(11.671629879118852, 4), (12.537165510406343, 18), (12.92102972732513, 14)],
    }
    for r, rows in expected.items():
        reports = ex.charsum_verify(fam_zz, 1009, 3, subgroup_r=r)
        assert [rep.n for rep in reports] == [1, 2, 3]
        for rep, (max_abs, worst) in zip(reports, rows):
            assert rep.max_abs == pytest.approx(max_abs, rel=1e-12)
            assert rep.worst_character_index == worst
            assert rep.bound == (rep.n + 1) * 3 * math.sqrt(1009)
            assert rep.subgroup_r == r and rep.mode == "exhaustive"


def test_charsum_sampled_mode_deterministic(fam_zz):
    a = ex.charsum_verify(fam_zz, 101, 1, mode="sampled", seed=11, count=20)
    b = ex.charsum_verify(fam_zz, 101, 1, mode="sampled", seed=11, count=20)
    assert a == b
    full = ex.charsum_verify(fam_zz, 101, 1)[0]
    assert a[0].max_abs <= full.max_abs + 1e-9
    assert "sampled(seed=11,count=20)" == a[0].mode


def test_charsum_sampled_forms_each_character_once(fam_zz, monkeypatch):
    # one exponential per sampled character, however many degrees n
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    ex.charsum_verify(fam_zz, 101, 3, mode="sampled", seed=7, count=10)
    assert len(calls) == 10


def test_charsum_sampled_names_the_first_maximal_character(fam_zz):
    # the period is r = 4, so the 30 draws from [0, 100) repeat each character,
    # and draws of one class give bit-identical sums: the least of them is named
    r, draws = 4, np.random.default_rng(5).integers(0, 100, size=30)
    for rep in ex.charsum_verify(fam_zz, 101, 3, mode="sampled", seed=5, count=30,
                                 subgroup_r=r):
        s = rep.worst_character_index
        assert s == min(d for d in draws.tolist() if d % r == s % r)


def test_charsum_sampled_mode_needs_a_seed(fam_zz, monkeypatch, capsys):
    # refused before the residue table, in the library and on the command line
    def no_table(*args):
        raise AssertionError("a residue table was built")

    monkeypatch.setattr(ex.ResidueTable, "build", no_table)
    for kwargs, what in [({"count": 3}, "needs a seed"), ({"seed": 7}, "positive count"),
                         ({"seed": 7, "count": 0}, "positive count"),
                         ({"mode": "all"}, "unknown mode")]:
        with pytest.raises(ValueError, match=what):
            ex.charsum_verify(fam_zz, 1009, 1, **{"mode": "sampled", **kwargs})
    argv = ["verify", "charsum", "--f", "0,1", "--g", "0,1", "-p", "1009", "--n-max", "1",
            "--mode", "sampled", "--count", "3"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: sampled mode needs a seed\n"


def test_charsum_rejects_degenerate(fam_zz):
    with pytest.raises(NondegeneracyError):
        ex.charsum_verify(build_family([0, 1], []), 13, 1)


# ---------------------------------------------------------------------------
# single/bilinear sums


def test_incomplete_geom_sum(fam_zz):
    val, bracket = ex.incomplete_geom_sum(fam_zz, 101, 2, 10, 1)
    want = 0.0
    w = 1
    for _ in range(10):
        w = w * 2 % 101
        psi = psi_naive(101, w, fam_zz)
        if psi is not None:
            want += sym_quotient(1, psi)
    assert val == pytest.approx(want, abs=1e-9)
    assert bracket == pytest.approx(1 * math.sqrt(101) * math.log(101))

    one, _ = ex.incomplete_geom_sum(fam_zz, 101, 2, 1, 3)
    assert abs(one) <= 4.0
    two, _ = ex.incomplete_geom_sum(fam_zz, 11, -1, 2, 1)
    assert mult_order(-1, 11) == 2
    with pytest.raises(ValueError):
        ex.incomplete_geom_sum(fam_zz, 11, -1, 3, 1)


def test_interval_sum(fam_zz):
    val, _ = ex.interval_sum(fam_zz, 101, 3, 5, 20, 1)
    want = sum(sym_quotient(1, psi_naive(101, 3 * m, fam_zz))
               for m in range(6, 26) if psi_naive(101, 3 * m, fam_zz) is not None)
    assert val == pytest.approx(want, abs=1e-9)
    assert ex.interval_sum(fam_zz, 101, 1, 0, 0, 1)[0] == 0.0
    with pytest.raises(ValueError):
        ex.interval_sum(fam_zz, 101, 101, 0, 5, 1)


def test_interval_sum_negative_length_refused(fam_zz):
    with pytest.raises(ValueError, match="N must be >= 0"):
        ex.interval_sum(fam_zz, 101, 1, 0, -5, 1)


def test_interval_sum_complete_case_obeys_charsum_bound(fam_zz):
    # k=1, M=0, N=p covers every residue; delta(0) = 0 here so the value
    # coincides with the trivial-character sum and its exact bound applies
    p, n = 101, 2
    val, _ = ex.interval_sum(fam_zz, p, 1, 0, p, n)
    assert abs(val) <= (n + 1) * fam_zz.deg_delta * math.sqrt(p) + 1e-6


def test_bilinear_sum(fam_zz):
    p = 31
    U = V = [1, 2, 3, 4, 5]
    val, bracket = ex.bilinear_sum(fam_zz, p, U, V, [1] * 5, [1] * 5, 1)
    want = 0j
    for u in U:
        for v in V:
            if (u * v) % p == 0:
                continue
            psi = psi_naive(p, u * v, fam_zz)
            if psi is not None:
                want += sym_quotient(1, psi)
    assert val == pytest.approx(want, abs=1e-9)
    assert bracket == pytest.approx(math.sqrt(25 * (5 / p + 1) ** 2 * p))

    zero, _ = ex.bilinear_sum(fam_zz, p, U, V, [0] * 5, [0] * 5, 1)
    assert zero == 0
    single, _ = ex.bilinear_sum(fam_zz, p, [2], [3], [1j], [2.0], 1)
    psi = psi_naive(p, 6, fam_zz)
    assert single == pytest.approx(2j * sym_quotient(1, psi))
    with pytest.raises(ValueError):
        ex.bilinear_sum(fam_zz, p, U, V, [1], [1] * 5, 1)


# ---------------------------------------------------------------------------
# identity decompositions


def brute_vaughan(fam, p, L, K, M, n, weight):
    """weight: 'lambda' or 'mobius'. Recomputes the four pieces naively."""
    psi = {}
    for t in range(1, L + 1):
        angle = psi_naive(p, t, fam)
        psi[t] = 0.0 if angle is None else sym_quotient(n, angle)
    Ki, Mi, KM = int(K), int(M), int(K * M)

    if weight == "lambda":
        s1 = abs(sum(trial_lambda(t) * psi[t] for t in range(1, Mi + 1)))
    else:
        cut = int(max(K, M))
        s1 = abs(sum(trial_mu(t) * psi[t] for t in range(1, cut + 1)))

    s2 = 0.0
    for k in range(1, KM + 1):
        inner = sum(psi[k * m] for m in range(1, L // k + 1))
        s2 += (trial_tau(k) * abs(inner)) if weight == "mobius" else abs(inner)

    s3 = 0.0
    if weight == "lambda":
        for k in range(1, Ki + 1):
            best = 0.0
            top = L // k
            for w in range(1, top + 1):
                best = max(best, abs(sum(psi[k * m] for m in range(w, top + 1))))
            s3 += best

    s4 = 0.0
    for m in range(Mi + 1, int(L / K) + 1):
        wt = trial_lambda(m) if weight == "lambda" else trial_mu(m)
        if wt == 0.0:
            continue
        inner = 0.0
        for k in range(Ki + 1, L // m + 1):
            c = sum(trial_mu(d) for d in range(1, min(Ki, k) + 1) if k % d == 0)
            inner += c * psi[k * m]
        s4 += wt * inner
    return s1, s2, s3, abs(s4)


def test_vaughan_small_matches_brute(fam_zz):
    p, L, n = 13, 60, 2
    direct = sum(trial_lambda(t) * (0.0 if psi_naive(p, t, fam_zz) is None
                                    else sym_quotient(n, psi_naive(p, t, fam_zz)))
                 for t in range(1, L + 1))
    for K, M in [(None, None), *_edge_cuts(L)]:
        rep = ex.vaughan_decompose(fam_zz, p, L, K=K, M=M, n=n)
        s1, s2, s3, s4 = brute_vaughan(fam_zz, p, L, rep.K, rep.M, n, "lambda")
        assert rep.sigma1 == pytest.approx(s1, abs=1e-9), (K, M)
        assert rep.sigma2 == pytest.approx(s2, abs=1e-9), (K, M)
        assert rep.sigma3 == pytest.approx(s3, abs=1e-9), (K, M)
        assert rep.sigma4 == pytest.approx(s4, abs=1e-9), (K, M)
        assert rep.direct_sum == pytest.approx(direct, abs=1e-9), (K, M)


def test_vaughan_surrogate_reproduces_chebyshev_psi(fam_zz):
    L = 300
    rep = ex.vaughan_decompose(fam_zz, 101, L, psi_fn=lambda t: 1.0)
    want = sum(trial_lambda(t) for t in range(1, L + 1))
    assert rep.direct_sum == pytest.approx(want, abs=1e-6)


def test_vaughan_trivial_bound_invariant(fam_zz):
    rep = ex.vaughan_decompose(fam_zz, 101, 200, n=3)
    total_lambda = sum(trial_lambda(t) for t in range(1, 201))
    assert abs(rep.direct_sum) <= 4 * total_lambda


def test_vaughan_validation(fam_zz):
    with pytest.raises(ValueError):
        ex.vaughan_decompose(fam_zz, 101, 1)
    with pytest.raises(ValueError):
        ex.vaughan_decompose(fam_zz, 101, 10, K=5.0, M=5.0)
    # NaN cuts are refused by the cuts check, before any sieve
    nan = float("nan")
    for cuts in [{"K": nan}, {"M": nan}, {"K": nan, "M": nan}, {"K": 2.0, "M": nan}]:
        with pytest.raises(ValueError, match=r"need K, M >= 1 and K\*M <= L"):
            ex.vaughan_decompose(fam_zz, 101, 100, **cuts)
        with pytest.raises(ValueError, match=r"need K, M >= 1 and K\*M <= L"):
            ex.mobius_sums(fam_zz, 101, 100, 1, **cuts)
    # sym degree n < 1 is refused everywhere, not silently run as n = 1
    for n in (0, -1):
        with pytest.raises(ValueError, match="degree"):
            ex.vaughan_decompose(fam_zz, 101, 100, n=n)
        with pytest.raises(ValueError, match="degree"):
            ex.mobius_sums(fam_zz, 101, 100, n)
        with pytest.raises(ValueError, match="degree"):
            ex.prime_sym_sum(fam_zz, 101, 100, n)
        with pytest.raises(ValueError, match="degree"):
            ex.interval_sum(fam_zz, 101, 1, 0, 10, n)
        with pytest.raises(ValueError, match="degree"):
            ex.interval_sum(fam_zz, 101, 1, 0, 0, n)
        with pytest.raises(ValueError, match="degree"):
            ex.incomplete_geom_sum(fam_zz, 101, 2, 5, n)
        with pytest.raises(ValueError, match="degree"):
            ex.bilinear_sum(fam_zz, 101, [1, 2], [3], [1, 1], [1], n)


def test_vaughan_tiny_example(fam_zz):
    rep = ex.vaughan_decompose(fam_zz, 11, 2, K=1.0, M=1.0, n=1)
    psi2 = psi_naive(11, 2, fam_zz)
    want = math.log(2) * (0.0 if psi2 is None else sym_quotient(1, psi2))
    assert rep.direct_sum == pytest.approx(want, abs=1e-12)


def test_mobius_small_matches_brute(fam_zz):
    p, L, n = 13, 60, 1
    for K, M in [(None, None), *_edge_cuts(L)]:
        rep = ex.mobius_sums(fam_zz, p, L, n, K=K, M=M)
        s1, s2, _, s4 = brute_vaughan(fam_zz, p, L, *ex._cuts(L, K, M), n, "mobius")
        assert rep.omega1 == pytest.approx(s1, abs=1e-9), (K, M)
        assert rep.omega2 == pytest.approx(s2, abs=1e-9), (K, M)
        assert rep.omega3 == 0.0
        assert rep.omega4 == pytest.approx(s4, abs=1e-9), (K, M)

    def psi_of(t):
        a = psi_naive(p, t, fam_zz)
        return 0.0 if a is None else sym_quotient(n, a)

    assert rep.mu_sum == pytest.approx(
        sum(trial_mu(t) * psi_of(t) for t in range(1, L + 1)), abs=1e-9)
    assert rep.abs_mu_sum == pytest.approx(
        sum(abs(trial_mu(t)) * psi_of(t) for t in range(1, L + 1)), abs=1e-9)


def test_mobius_l4_terms(fam_zz):
    # mu(4) = 0, so only t in {1, 2, 3} can contribute to the mu-weighted sum
    rep = ex.mobius_sums(fam_zz, 11, 4, 1, K=1.0, M=1.0)

    def psi_of(t):
        a = psi_naive(11, t, fam_zz)
        return 0.0 if a is None else sym_quotient(1, a)

    want = psi_of(1) - psi_of(2) - psi_of(3)
    assert rep.mu_sum == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        ex.mobius_sums(fam_zz, 11, 1, 1)


def test_mobius_squarefree_bound(fam_zz):
    L, n = 200, 2
    rep = ex.mobius_sums(fam_zz, 101, L, n)
    squarefree = sum(1 for t in range(1, L + 1) if trial_mu(t) != 0)
    assert abs(rep.abs_mu_sum) <= (n + 1) * squarefree


SUMS_L = [2, 3, 10, 97, 1000, 99991, 10**6]


def _cut_choices(L):
    """The default cuts and others with K, M >= 1 and K M <= L; small cuts
    only while the per-row loop over m <= L / K stays short."""
    small = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (3.7, 2.2)] if L <= 1000 else []
    return [(None, None), *((K, M) for K, M in [*small, (40.0, 25.0)] if K * M <= L)]


def _edge_cuts(L):
    """K = 1, M = 1 and K M = L, the other cut at its default L^(1/3) where
    it is free.  At L = 10**6 only M = 1: with K = 1 the per-row loop runs
    over 5 * 10**5 rows, and K M = L loops sigma2 and omega2 over every k."""
    c = L ** (1.0 / 3.0)
    if L == 10**6:
        return [(c, 1.0)]
    return [(1.0, c), (c, 1.0), (2.0, L / 2)]


@pytest.mark.parametrize("p", [5, 101, 1009])
def test_psi_of_t_tiles_one_period(fam_zz, p):
    # the tiling against psi read as res_vals[t % p], byte for byte:
    # L ends inside, at and just past a period, and past several
    for L in (1, p - 1, p, p + 1, 2 * p, 3 * p + 5):
        for n, psi_fn in ((1, None), (3, None), (1, lambda t: math.cos(t) / t)):
            got = ex._psi_of_t(fam_zz, p, L, n, psi_fn)
            want = psi_of_t_by_index(fam_zz, p, L, n, psi_fn)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, L, n)


@pytest.mark.parametrize("L", SUMS_L[:-1])
def test_type_ii_matches_the_per_row_loop(fam_zz, L):
    tables = sieve_arith(L)
    lam = tables.lam_upto(L)
    psis = [ex._psi_of_t(fam_zz, 1009, L, n) for n in (1, 2, 5)]
    psis.append(ex._psi_of_t(fam_zz, 1009, L, 1, psi_fn=lambda t: math.sin(t) / t))
    for K, M in _cut_choices(L):
        K, M = ex._cuts(L, K, M)
        for weights in (lam, tables.mu, tables.mu.astype(np.float64)):
            for psi in psis:
                want = type_ii_per_row(weights, tables.mu, psi, L, K, M)
                assert ex._type_ii(weights, tables.mu, psi, L, K, M) == want, (L, K, M)


@pytest.mark.parametrize("L", SUMS_L)
def test_identity_sums_match_the_per_row_loops(fam_zz, L, monkeypatch):
    # the reports of the array passes against those of the loops they
    # replaced (psi read as res_vals[t % p], one np.sum per m), with ==
    cuts = _cut_choices(L)[:1 if L == 10**6 else 3]
    runs = [(n, K, M, None) for n in (1, 2, 5) for K, M in cuts]
    # and at the edge cuts, where sigma4 and omega4 read weights up to L / K
    runs += [(1, K, M, None) for K, M in _edge_cuts(L)]
    if L < 10**6:  # the hook calls Python once per t
        runs.append((1, None, None, lambda t: (-1.0) ** t / t))
    reports = []
    for _ in range(2):
        reports.append([
            (ex.vaughan_decompose(fam_zz, 1009, L, K=K, M=M, n=n, psi_fn=psi_fn),
             ex.mobius_sums(fam_zz, 1009, L, n, K=K, M=M) if psi_fn is None else None)
            for n, K, M, psi_fn in runs])
        monkeypatch.setattr(ex, "_psi_of_t", psi_of_t_by_index)
        monkeypatch.setattr(ex, "_type_ii", type_ii_per_row)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("what, bound", [("sieve", 6), ("vaughan", 12), ("mobius", 11)])
def test_identity_sums_traced_peak(fam_zz, what, bound):
    # at L = 10**6 the sieve holds the int8 mu and the primes (no L-long
    # float64 array; the big primes' logs are formed on first read, which
    # vaughan makes before psi), and each sum holds psi as its one L-long
    # float64 array, besides mu: another such array would take either sum
    # past its bound
    L = 10**6
    call = {"sieve": lambda: sieve_arith(L),
            "vaughan": lambda: ex.vaughan_decompose(fam_zz, 1009, L),
            "mobius": lambda: ex.mobius_sums(fam_zz, 1009, L, 1)}[what]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * L, peak / L


def _signed_values(rng, n):
    """n float64s of mixed signs and magnitudes, with runs of +0.0 and -0.0."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = -0.0
    return x


def test_chunked_suffix_sums_match_one_cumsum():
    # sigma3's suffix sums, one chunk at a time behind the carried sum,
    # against one np.cumsum over the reversed array, byte for byte; lengths
    # around one and two chunks, and strided views as psi[k::k] gives them
    rng = np.random.default_rng(0)
    chunk = 64
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 5 * chunk + 3):
        for arr in (_signed_values(rng, n), _signed_values(rng, 3 * n)[2::3],
                    np.full(n, -0.0)):
            want = np.cumsum(arr[::-1])
            got = np.concatenate([s.copy() for s in ex._suffix_sums(arr, chunk)])
            assert got.tobytes() == want.tobytes(), n
            # sigma3 takes each chunk's abs in place: the carry is unharmed
            got = np.concatenate([np.abs(s, out=s).copy() for s in ex._suffix_sums(arr, chunk)])
            assert got.tobytes() == np.abs(want).tobytes(), n
    arr = _signed_values(rng, 3 * ex._SUFFIX_CHUNK + 5)
    got = np.concatenate([s.copy() for s in ex._suffix_sums(arr)])
    assert got.tobytes() == np.cumsum(arr[::-1]).tobytes()


def test_mu_twice_is_abs_mu_bit_for_bit():
    # mobius_sums multiplies psi by the int8 mu in place twice, once for
    # mu_sum and once for abs_mu_sum: mu * (mu * psi) against |mu| * psi,
    # with every mu in {-1, 0, 1} against negative, positive and signed-zero psi
    rng = np.random.default_rng(1)
    psi = np.repeat(np.concatenate([_signed_values(rng, 1000), [0.0, -0.0, -1.5, 2.5]]), 3)
    mu = np.tile(np.array([-1, 0, 1], dtype=np.int8), psi.size // 3)
    twice = psi.copy()
    np.multiply(mu, twice, out=twice)
    np.multiply(mu, twice, out=twice)
    assert twice.tobytes() == (np.abs(mu) * psi).tobytes()
    assert np.signbit(twice[mu == 0]).any() and not np.signbit(twice[mu == 0]).all()


def test_numpy_reduction_order_canary():
    # _type_ii sums a run of equal-length rows with one .sum(axis=1), and
    # reports stay byte-identical only while that equals each row's own
    # np.sum, and while a strided sum (sigma2, omega2) equals the sum of its
    # contiguous copy.  A numpy that changes its summation order fails here.
    rng = np.random.default_rng(0)
    for n in [*range(1, 301), 1000, 4099, 10007]:
        for rows in (1, 3, 40):
            X = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, n))
            sums = X.sum(axis=1)
            assert all(sums[i] == X[i].sum() for i in range(rows)), n
    psi = rng.standard_normal(10**5) * 10.0 ** rng.integers(-6, 7, 10**5)
    for k in (1, 2, 3, 7, 64, 999):
        assert psi[k::k].sum() == np.ascontiguousarray(psi[k::k]).sum(), k
    # the check has teeth: summed left to right, such a row rounds differently
    row = rng.random(4099)
    assert row.sum() != np.cumsum(row)[-1]


def test_numpy_batched_ifft_and_runs_canary():
    # charsum_verify writes real rows into one complex array and transforms
    # them with one in-place ifft, and _interval_exact takes the distinct
    # values and counts of a sorted array from its runs.  Reports stay
    # byte-identical only while each batched row is that row's own ifft bit
    # for bit, and while the runs are np.unique's.  A numpy that changes
    # either fails here.  10006 and 1000002 take pocketfft's Bluestein path;
    # near 10**6 a batch is one row, so two rows suffice there.
    rng = np.random.default_rng(0)
    for n, most in ((10006, 15), (1000002, 2), (1024, 15), (10000, 15), (10**6, 2)):
        for rows in range(1, most + 1):
            y = rng.standard_normal((rows, n))
            y[:, rng.integers(0, n, n // 10)] = 0.0
            S = np.zeros((rows, n), dtype=complex)
            for i in range(rows):
                S.real[i] = y[i]
            np.fft.ifft(S, axis=1, out=S)
            for i in range(rows):
                assert S[i].tobytes() == np.fft.ifft(y[i]).tobytes(), (n, rows, i)
    for size, distinct in ((1, 1), (7, 2), (1000, 40), (10**5, 10**5)):
        u = np.sort(rng.integers(0, distinct, size) / distinct)
        starts = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
        vals, counts = np.unique(u, return_counts=True)
        assert u[starts].tobytes() == vals.tobytes()
        assert np.diff(np.append(starts, size)).tolist() == counts.tolist()


def test_full_field_niederreiter_diagnostic(fam_zz, capsys):
    # the bracket carries an unknown implied constant: record the observed
    # ratio C for the full-field vertical sample, assert nothing about it
    from stlab.sato_tate import discrepancy_report, mu_st
    from stlab.traces import angle_sample

    p = 1009
    sample = angle_sample(fam_zz, p, range(p))
    rep = discrepancy_report(sample)
    worst = 0.0
    for iv in (Interval(0.0, 1.0), IV, Interval(0.5, 3.0), FULL):
        count = int(np.sum((sample.psis >= iv.alpha) & (sample.psis <= iv.beta)))
        worst = max(worst, abs(count - mu_st(iv) * sample.m))
    assert rep.niederreiter_rhs > 0
    print(f"full-field p={p}: max|count - mu m| = {worst:.2f}, "
          f"bracket(k={rep.k_used}) = {rep.niederreiter_rhs:.2f}, "
          f"observed C = {worst / rep.niederreiter_rhs:.4f}")


def test_prime_sym_sum(fam_zz):
    val, bracket, prime1 = ex.prime_sym_sum(fam_zz, 101, 100, 1)
    want = sum(sym_quotient(1, psi_naive(101, ell, fam_zz))
               for ell in primes_upto(100).elements
               if psi_naive(101, ell, fam_zz) is not None)
    assert val == pytest.approx(want, abs=1e-9)
    assert bracket == pytest.approx(100 / math.sqrt(101) + 100 ** (5 / 6)
                                    + math.sqrt(100 * 101))
    assert prime1 > 0
    tiny, _, _ = ex.prime_sym_sum(fam_zz, 101, 2, 1)
    psi2 = psi_naive(101, 2, fam_zz)
    assert tiny == pytest.approx(sym_quotient(1, psi2) if psi2 is not None else 0.0)
