import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlab.errors import RefusedError
from stlab.family import CurveInstance, build_family, poly_eval_mod
from stlab.finite_field import ResidueTable, is_prime
from stlab.store import open_cache
from stlab.traces import (
    TraceRecord,
    _chi_hat,
    _correlate,
    _dot_row,
    _smooth_len,
    angle,
    angle_sample,
    batch_traces,
    count_points_naive,
    residue_angles,
    residue_traces,
    trace,
)

PRIMES_TO_43 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
PRIMES_TO_2000 = [p for p in range(5, 2000) if is_prime(p)]


def test_count_points_naive_frozen_values():
    assert count_points_naive(CurveInstance(5, 1, 1)) == 9
    assert count_points_naive(CurveInstance(5, 0, 1)) == 6
    assert count_points_naive(CurveInstance(7, 1, 1)) == 5


def test_count_points_pure_enumeration_oracle():
    # cross-check the counting helper against a literal (x, y) double loop
    for (p, a, b) in [(5, 1, 1), (7, 1, 1), (11, 3, 4)]:
        brute = 1 + sum(1 for x in range(p) for y in range(p)
                        if (y * y - x * x * x - a * x - b) % p == 0)
        assert count_points_naive(CurveInstance(p, a, b)) == brute


def test_count_points_refuses_large():
    with pytest.raises(RefusedError):
        count_points_naive(CurveInstance(10007, 1, 1))


def test_trace_examples():
    assert trace(CurveInstance(5, 1, 1), ResidueTable.build(5)) == -3
    assert trace(CurveInstance(7, 1, 1), ResidueTable.build(7)) == 3
    assert trace(CurveInstance(5, 0, 1), ResidueTable.build(5)) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_trace_matches_naive_exhaustively(p):
    tbl = ResidueTable.build(p)
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = CurveInstance(p, a, b)
            assert trace(c, tbl) == p + 1 - count_points_naive(c)


def _records(p, ts, result):
    """(p, t, a) of the good parameters, and the skipped parameters, from a
    batch_traces result."""
    a, good = result
    ts = list(ts)
    assert len(good) == len(ts) and len(a) == int(good.sum())
    kept = [t for t, ok in zip(ts, good) if ok]
    return ([(p, t, int(x)) for t, x in zip(kept, a)],
            [t for t, ok in zip(ts, good) if not ok])


def test_batch_traces_examples(fam_zz):
    recs, skipped = _records(5, [1, 6], batch_traces(5, fam_zz, [1, 6]))
    assert recs == [(5, 1, -3), (5, 6, -3)]
    assert skipped == []
    recs, skipped = _records(5, [0], batch_traces(5, fam_zz, [0]))
    assert recs == [] and skipped == [0]
    recs, skipped = _records(31, [1], batch_traces(31, fam_zz, [1]))
    assert recs == [] and skipped == [1]
    with pytest.raises(ValueError):
        batch_traces(5, fam_zz, [0], skip_bad=False)


def test_batch_traces_cache_warm_equals_cold(fam_zz, tmp_path):
    path = str(tmp_path / "cache.txt")
    ts = list(range(-3, 12))
    with open_cache(path, fam_zz) as cache:
        cold, skipped_cold = _records(11, ts, batch_traces(11, fam_zz, ts, cache=cache))
    with open_cache(path, fam_zz) as cache:
        warm, skipped_warm = _records(11, ts, batch_traces(11, fam_zz, ts, cache=cache))
    assert cold == warm and skipped_cold == skipped_warm


def test_angle_examples():
    assert angle(TraceRecord(5, 0, 0)) == pytest.approx(math.pi / 2)
    assert angle(TraceRecord(5, 1, -3)) == pytest.approx(2.306110779611565)
    assert angle(TraceRecord(5, 0, 2)) == pytest.approx(1.1071487177940904)
    with pytest.raises(ValueError):
        angle(TraceRecord(5, 0, 5))


@pytest.mark.parametrize("p", [5, 13, 101, 1009])
def test_angle_consistency_invariant(fam_zz, p):
    ts = range(min(p, 64))
    recs, _ = _records(p, ts, batch_traces(p, fam_zz, ts))
    for rec in (TraceRecord(*r) for r in recs):
        psi = angle(rec)
        assert 0.0 <= psi <= math.pi
        assert abs(math.cos(psi) - rec.a / (2 * math.sqrt(p))) <= 1e-12


@given(st.sampled_from([5, 7, 11, 13, 41, 101]),
       st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3))
@settings(max_examples=30)
def test_hasse_on_random_families(p, fc, gc):
    if not any(fc) and not any(gc):
        fc = [2]
    fam = build_family(fc, gc)
    a_vec, good = residue_traces(fam, p, range(p))
    assert np.all(a_vec[good] * a_vec[good] <= 4 * p)


def test_angle_sample_multiset_and_descriptor(fam_zz):
    s = angle_sample(fam_zz, 5, [1, 6, 3], descriptor="demo")
    # t=1 and t=6 share a residue, so their angles coincide
    assert s.m == 3
    assert s.psis[0] == s.psis[1]
    assert s.descriptor == "demo"
    default = angle_sample(fam_zz, 5, [1])
    assert "p=5" in default.descriptor


def test_residue_angles_marks_bad_reduction(fam_zz):
    psis, good = residue_angles(fam_zz, 5, [1, 0, 6, 5])
    assert good.tolist() == [True, False, True, False]
    assert np.isnan(psis[~good]).all()
    assert psis[0] == psis[2] == angle(TraceRecord(5, 1, -3))


def test_hasse_violation_is_an_error_not_an_assert(fam_zz):
    # a corrupted table (every value a square) gives a = -p; the check must
    # survive python -O, so it cannot be an assert
    good = ResidueTable.build(101)
    bad = ResidueTable(101, good.qr, np.ones(101, dtype=np.int8))
    with pytest.raises(RuntimeError, match="Hasse"):
        trace(CurveInstance(101, 1, 1), bad)
    with pytest.raises(RuntimeError, match="Hasse"):
        residue_traces(fam_zz, 101, range(1, 10), bad)


def test_no_assert_statements_in_src():
    # python -O strips assert, so every hard check in the package must raise
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "stlab").rglob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}" for f in files
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _rows_by_enumeration(p):
    """The weights N, M2, M of the three j-class rows (see _table_traces),
    each with the curve whose trace reads -c[s] (plus -chi(-1) on the twist
    row) and the shifts s where that curve is nonsingular."""
    chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    n0, m2, m = np.zeros(p), np.zeros(p), np.zeros(p)
    for x in range(p):
        n0[x ** 3 % p] += 1
        m2[x * x % p] += chi[x]
    for w in range(1, p):
        m[(w - 1) ** 3 * pow(w, -1, p) % p] += chi[w]
    return [(n0, 0, lambda s: (0, s), range(1, p)),
            (m2, 0, lambda s: (s, 0), range(1, p)),
            (m, -chi[p - 1], lambda s: (s, s), [s for s in range(1, p) if (4 * s + 27) % p])]


@pytest.mark.parametrize("p", PRIMES_TO_43)
def test_table_traces_exhaustive_small_primes(p):
    # f = A, g = Z runs every residue through all three rows: A = 0 (j = 0),
    # w = 0 with A != 0 (j = 1728) and the twist row; half these primes have
    # chi(-1) = -1
    tbl = ResidueTable.build(p)
    for A in range(p):
        a_vec, good = residue_traces(build_family([A], [0, 1]), p, range(p), tbl)
        for w in np.flatnonzero(good):
            c = CurveInstance(p, A, int(w))
            assert a_vec[w] == trace(c, tbl) == p + 1 - count_points_naive(c)
        assert good[1:].all() if A == 0 else good[0]
    # every row, read at every shift by exact dots and by the FFT correlation
    chi2 = np.concatenate((tbl.leg, tbl.leg[:-1])).astype(np.float64)
    chi_hat = _chi_hat(tbl.leg, p)
    for weights, shift, curve, shifts in _rows_by_enumeration(p):
        by_dots = _dot_row(weights, chi2, np.arange(p), p)
        by_fft = _correlate(weights, *chi_hat, p)
        assert by_dots.dtype == by_fft.dtype == np.int64
        for s in shifts:
            c = CurveInstance(p, *curve(s))
            assert shift - by_dots[s] == shift - by_fft[s] == trace(c, tbl) \
                == p + 1 - count_points_naive(c)


@given(st.sampled_from(PRIMES_TO_2000),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
       st.data())
@settings(max_examples=80)
def test_table_traces_match_direct_sum(p, fc, gc, data):
    # 1 to p parameters put a row's distinct shifts on both sides of the
    # dot/FFT crossover (_few_shifts)
    n = data.draw(st.integers(min_value=1, max_value=p), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    ts = np.random.default_rng(seed).integers(0, 10**6, size=n).tolist()
    if not any(fc) and not any(gc):
        fc = [1]
    fam = build_family(fc, gc)
    tbl = ResidueTable.build(p)
    a_vec, good = residue_traces(fam, p, ts, tbl)
    direct = {}
    for t, a, ok in zip(ts, a_vec, good):
        if not ok:
            continue
        ab = (poly_eval_mod(fam.f_coeffs, t, p), poly_eval_mod(fam.g_coeffs, t, p))
        if ab not in direct:
            c = CurveInstance(p, *ab)
            direct[ab] = trace(c, tbl)
            if p <= 101:
                assert direct[ab] == p + 1 - count_points_naive(c)
        assert a == direct[ab]


def test_table_traces_refuse_an_inexact_correlation(fam_zz, monkeypatch):
    # every residue makes the twist row dense, so it takes the FFT route
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(RuntimeError, match="not integral"):
        residue_traces(fam_zz, 101, range(101))


def test_sparse_rows_are_read_without_the_fft(fam_zz, monkeypatch):
    # 60 geometric residues at p = 10007 are read by exact dots alone
    p = 10007
    ts = [2 ** k for k in range(1, 61)]
    tbl = ResidueTable.build(p)

    def fail(*args, **kw):
        raise AssertionError("an FFT row was built")
    monkeypatch.setattr(np.fft, "rfft", fail)
    a_vec, good = residue_traces(fam_zz, p, ts, tbl)
    assert good.all()
    for t, a in zip(ts, a_vec):
        assert a == trace(CurveInstance(p, t % p, t % p), tbl)


def test_no_table_built_without_a_good_residue(fam_zz, monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("a trace row was built")
    monkeypatch.setattr(np.fft, "rfft", fail)
    a_vec, good = residue_traces(fam_zz, 101, [0, 101, -101])
    assert not good.any() and not a_vec.any()


def test_smooth_len_is_the_least_5_smooth_bound():
    def smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1
    for n in range(1, 3000):
        assert _smooth_len(n) == min(m for m in range(n, 2 * n + 1) if smooth(m))


@pytest.mark.parametrize("p", [10007, 100003])
def test_residue_angles_equal_per_residue_acos(fam_zz, p):
    # oracle: math.acos once per good residue, on the same double
    params = [*range(p), -1, p + 3, 3 * p]
    a_vec, good_ref = residue_traces(fam_zz, p, params)
    z = a_vec / (2.0 * math.sqrt(p))
    ref = np.full(len(params), np.nan)
    for i in np.flatnonzero(good_ref):
        ref[i] = math.acos(z[i])
    psis, good = residue_angles(fam_zz, p, params)
    assert np.array_equal(good, good_ref) and not good.all()
    assert np.isnan(psis[~good]).all()
    assert np.array_equal(psis, ref, equal_nan=True)
