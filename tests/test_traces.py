import ast
import contextlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlab import experiments as ex, finite_field, param_sets, traces
from stlab.errors import CacheError, RefusedError
from stlab.family import (
    CurveInstance,
    build_family,
    delta_at,
    fingerprint_hex,
    good_reduction,
    poly_eval_mod,
)
from stlab.finite_field import ResidueTable, is_prime
from stlab.sato_tate import Interval
from stlab.store import open_cache
from stlab.traces import (
    TraceRecord,
    _chi_hat,
    _correlate,
    _dot_row,
    _smooth_len,
    _table_traces,
    angle,
    angle_sample,
    batch_traces,
    count_points_naive,
    hasse_limit,
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
    s = angle_sample(fam_zz, 5, [1, 6, 3])
    # t=1 and t=6 share a residue, so their angles coincide
    assert s.m == 3
    assert s.psis[0] == s.psis[1]


def test_residue_angles_marks_bad_reduction(fam_zz):
    psis, good = residue_angles(fam_zz, 5, [1, 0, 6, 5])
    assert good.tolist() == [True, False, True, False]
    assert np.isnan(psis[~good]).all()
    assert psis[0] == psis[2] == angle(TraceRecord(5, 1, -3))


def test_hasse_violation_is_an_error_not_an_assert(fam_zz):
    # a corrupted table (every value a square) gives a = -p; the check must
    # survive python -O, so it cannot be an assert
    bad = ResidueTable(101, np.ones(101, dtype=np.int8), ResidueTable.build(101).pw)
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


def test_every_private_module_name_is_read_in_src():
    # a module-level private function, class or constant that no code in
    # src/ reads is dead: a helper left behind when its callers moved on
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "stlab").rglob("*.py"))
    defined, read = [], set()
    for f in files:
        tree = ast.parse(f.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(f.name, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 10
    assert [f"{f}:{name}" for f, name in defined if name not in read] == []


def _rows_by_enumeration(p):
    """The twist weights M (see _table_traces), with the shift -chi(-1) the
    trace of (s, s) adds to -c[s] and the s where (s, s) is nonsingular."""
    chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    m = np.zeros(p)
    for w in range(1, p):
        m[(w - 1) ** 3 * pow(w, -1, p) % p] += chi[w]
    return m, -chi[p - 1], [s for s in range(1, p) if (4 * s + 27) % p]


def test_small_primes_cover_every_class_mod_12():
    # j = 0 curves fall in six classes only when p = 1 mod 3, and j = 1728
    # curves in four only when p = 1 mod 4, so the exhaustive oracle needs
    # every class of p mod 12; 13 and 37 are the two primes = 1 mod 12
    assert {p % 12 for p in PRIMES_TO_43} == {1, 5, 7, 11}
    assert [p for p in PRIMES_TO_43 if p % 12 == 1] == [13, 37]


@pytest.mark.parametrize("p", PRIMES_TO_43)
def test_table_traces_exhaustive_small_primes(p, monkeypatch):
    # f = A, g = Z runs every residue through each path: A = 0 (j = 0),
    # w = 0 with A != 0 (j = 1728) and the twist row; half these primes have
    # chi(-1) = -1
    tbl = ResidueTable.build(p)
    m, shift, shifts = _rows_by_enumeration(p)
    built = []
    for name in ("_dot_row", "_correlate"):
        monkeypatch.setattr(traces, name, lambda weights, *args, read=getattr(traces, name):
                            built.append(weights) or read(weights, *args))
    for A in range(p):
        a_vec, good = residue_traces(build_family([A], [0, 1]), p, range(p), tbl)
        for w in np.flatnonzero(good):
            c = CurveInstance(p, A, int(w))
            assert a_vec[w] == trace(c, tbl) == p + 1 - count_points_naive(c)
        assert good[1:].all() if A == 0 else good[0]
    # every A != 0 builds the twist row from the power table, which is the
    # enumerated M; A = 0 (all j = 0) builds no row
    assert len(built) == p - 1
    for weights in built:
        assert np.array_equal(weights, m)
    # sum |M| <= p - 1, which keeps every float32 dot exact (_dot_row)
    assert np.abs(m).sum() <= p - 1
    # the row, read at every shift by exact dots and by the FFT correlation
    by_dots = _dot_row(m, np.concatenate((tbl.leg, tbl.leg[:-1])).astype(np.float32),
                       np.arange(p), p)
    by_fft = _correlate(m, *_chi_hat(tbl.leg, p), p)
    assert by_dots.dtype == by_fft.dtype == np.int64
    for s in shifts:
        c = CurveInstance(p, s, s)
        assert shift - by_dots[s] == shift - by_fft[s] == trace(c, tbl) \
            == p + 1 - count_points_naive(c)


@pytest.mark.parametrize("fc, gc", [([0, 1], [10009, 10009]), ([0, 10009], [0, 1])],
                         ids=["j1728", "j0"])
def test_j0_and_j1728_fields_build_no_row(fc, gc, monkeypatch):
    # at p = 10009 = 1 mod 12, g = 10009 (1 + Z) puts every good curve at
    # j = 1728 and f = 10009 Z every one at j = 0, so each is traced by the
    # closed sum of its class (four and six classes) and no row is built
    p = 10009
    tbl = ResidueTable.build(p)

    def fail(*args, **kw):
        raise AssertionError("a trace row was built")
    monkeypatch.setattr(traces, "_dot_row", fail)
    monkeypatch.setattr(traces, "_correlate", fail)
    a_vec, good = residue_traces(build_family(fc, gc), p, range(p), tbl)
    assert good.sum() == p - 1 and not good[0]
    for t in np.random.default_rng(5).choice(np.arange(1, p), size=200, replace=False).tolist():
        c = CurveInstance(p, 0, t) if fc == [0, 10009] else CurveInstance(p, t, 0)
        assert a_vec[t] == trace(c, tbl)


def test_dot_row_refuses_weights_past_float32_exactness():
    p = 101
    chi2 = np.ones(2 * p - 1, dtype=np.float32)
    weights = np.zeros(p)
    weights[:4] = [2**23, -2**22, 2**22 - 1, 1]  # sum |W| = 2**24
    with pytest.raises(RuntimeError, match="bug"):
        _dot_row(weights, chi2, np.arange(3), p)
    weights[3] = 0
    assert _dot_row(weights, chi2, np.arange(3), p).tolist() == [2**23 - 1] * 3


def test_table_traces_at_a_large_prime():
    # random (a, b), three with j = 0 and three with j = 1728, at a prime of
    # each class mod 12 (7, 1, 5 and 11)
    for p in (1000003, 1000033, 1000037, 1000151):
        tbl = ResidueTable.build(p)
        rng = np.random.default_rng(11)
        a = rng.integers(0, p, size=12)
        b = rng.integers(0, p, size=12)
        a[:3] = 0
        b[3:6] = 0
        got = _table_traces(tbl, a, b)
        assert got.tolist() == [trace(CurveInstance(p, int(x), int(y)), tbl)
                                for x, y in zip(a, b)]


@pytest.mark.parametrize("p", [20011, 100003])
@pytest.mark.parametrize("fc, gc", [([0, 1], [0, 1]), ([-1, 1], [-2, 0, 1]),
                                    ([3, -2, 5], [1, 7])],
                         ids=["f=g=t", "f=t-1,g=t^2-2", "f=5t^2-2t+3,g=7t+1"])
def test_dense_trace_traced_peak(fc, gc, p):
    # a full-field sample holds each O(p) array once: at the FFT, the good
    # residues, the shift and sign and the twist weights, with chi's transform
    # and two more arrays of about 2p float64 each (about 85 and 110 bytes
    # per unit of p).  Copying the good residues, keeping a b, 1/b and the
    # inverse table up to the FFT, and forming the spectrum product and the
    # rint residual out of place took 176-220 and 201-245
    fam = build_family(fc, gc)
    tbl = ResidueTable.build(p)
    peaks = []
    for call in (lambda: residue_traces(fam, p, range(p), tbl),
                 lambda: angle_sample(fam, p, range(p))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / p)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 110 and peaks[1] <= 130, peaks


def test_one_primitive_root_per_prime(fam_zz, monkeypatch):
    # the residue table builds the prime's power table, and the rows and
    # charsum's character order reuse it
    roots, traced = [], []
    primitive_root = finite_field.primitive_root
    residue_traces_ = traces.residue_traces
    monkeypatch.setattr(finite_field, "primitive_root",
                        lambda p: roots.append(p) or primitive_root(p))
    monkeypatch.setattr(traces, "residue_traces",
                        lambda fam, p, *args: traced.append(p) or residue_traces_(fam, p, *args))
    ex.mixed_geometric(fam_zz, 400, 2, 12, Interval(0.0, math.pi))
    assert len(traced) > 50 and len(set(traced)) == len(traced)
    assert roots == traced
    roots.clear()
    ex.charsum_verify(fam_zz, 1009, 2)
    assert roots == [1009]
    # the subgroup of order r is read off the same power table
    monkeypatch.setattr(param_sets, "primitive_root",
                        lambda p: roots.append(p) or primitive_root(p))
    roots.clear()
    ex.charsum_verify(fam_zz, 1009, 2, subgroup_r=252)
    assert roots == [1009]


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


@given(st.sampled_from([3, 5, 7, 11, 13, 31, 101, 1009]),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=3),
       st.sampled_from(["plain", "f, g = 0 mod p", "delta = 0"]),
       st.lists(st.integers(min_value=-10**20, max_value=10**20), min_size=1, max_size=40))
@settings(max_examples=80)
def test_good_mask_is_delta_nonzero_mod_p(p, fc, gc, kind, ts):
    # residue_traces tests 4a^3 + 27b^2 on the reduced a = f(t), b = g(t);
    # the exact integer delta(t) = -16(4f^3 + 27g^2) is the reference,
    # also for families whose delta vanishes mod p or over Q
    if kind == "f, g = 0 mod p":
        fc, gc = [p * c for c in fc], [p * c for c in gc]
    elif kind == "delta = 0":  # f = -3u^2, g = 2u^3 makes 4f^3 + 27g^2 = 0
        u2 = np.convolve(fc, fc)
        fc, gc = (-3 * u2).tolist(), (2 * np.convolve(u2, fc)).tolist()
    if not any(fc) and not any(gc):
        fc = [1]
    fam = build_family(fc, gc)
    _, good = residue_traces(fam, p, ts)
    assert good.tolist() == [delta_at(fam, t) % p != 0 for t in ts]
    assert [good_reduction(fam, t, p) for t in ts] == good.tolist()


@pytest.mark.parametrize("p", [5, 101, 1013, 10**40 + 1])
def test_hasse_checks_accept_the_limit_and_refuse_one_past(p, fam_zz, tmp_path, monkeypatch):
    # at p = 10**40 + 1 the limit and the traces around it are past int64
    lim = math.isqrt(4 * p)
    assert hasse_limit(p) == lim and lim**2 <= 4 * p < (lim + 1) ** 2
    head = f"# stlab-cache v1 family={fingerprint_hex(fam_zz)}\n"
    path = tmp_path / "c.txt"
    for a in (lim, -lim, lim + 1, -lim - 1):
        ok = abs(a) == lim
        if ok:
            assert 0.0 <= angle(TraceRecord(p, 1, a)) <= math.pi
        else:
            with pytest.raises(ValueError, match="Hasse"):
                angle(TraceRecord(p, 1, a))
        if not ok or lim < 2**63:  # the cache stores traces as int64
            path.unlink(missing_ok=True)
            with contextlib.nullcontext() if ok else pytest.raises(CacheError, match="Hasse"):
                open_cache(str(path), fam_zz).put_many(p, [1], [a])
            path.write_text(head + f"{p},1,{a}\n")
            with contextlib.nullcontext() if ok else pytest.raises(CacheError, match="Hasse"):
                assert len(open_cache(str(path), fam_zz)) == 1
        if p > 1013:
            continue
        # trace(): x -> x^3 + 1 permutes F_p for p = 2 mod 3, so a table with
        # |a| entries -sign(a) and zeros elsewhere gives the trace a
        leg = np.zeros(p, dtype=np.int8)
        leg[:abs(a)] = -np.sign(a)
        fake = ResidueTable(p, leg, ResidueTable.build(p).pw)
        monkeypatch.setattr(traces, "_table_traces",
                            lambda tbl, x, y: np.full(len(x), a, dtype=np.int64))
        if ok:
            assert trace(CurveInstance(p, 0, 1), fake) == a
            assert residue_traces(fam_zz, p, [1], fake)[0].tolist() == [a]
        else:
            with pytest.raises(RuntimeError, match="Hasse"):
                trace(CurveInstance(p, 0, 1), fake)
            with pytest.raises(RuntimeError, match="Hasse"):
                residue_traces(fam_zz, p, [1], fake)
