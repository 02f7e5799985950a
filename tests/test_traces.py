import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlab.errors import RefusedError
from stlab.family import CurveInstance, build_family
from stlab.finite_field import ResidueTable
from stlab.store import open_cache
from stlab.traces import (
    TraceRecord,
    angle,
    angle_sample,
    batch_traces,
    count_points_naive,
    residue_angles,
    residue_traces,
    trace,
)


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


def test_batch_traces_examples(fam_zz):
    recs, skipped = batch_traces(5, fam_zz, [1, 6])
    assert [(r.p, r.t, r.a) for r in recs] == [(5, 1, -3), (5, 6, -3)]
    assert skipped == []
    recs, skipped = batch_traces(5, fam_zz, [0])
    assert recs == [] and skipped == [0]
    recs, skipped = batch_traces(31, fam_zz, [1])
    assert recs == [] and skipped == [1]
    with pytest.raises(ValueError):
        batch_traces(5, fam_zz, [0], skip_bad=False)


def test_batch_traces_cache_warm_equals_cold(fam_zz, tmp_path):
    path = str(tmp_path / "cache.txt")
    ts = list(range(-3, 12))
    with open_cache(path, fam_zz) as cache:
        cold, skipped_cold = batch_traces(11, fam_zz, ts, cache=cache)
    with open_cache(path, fam_zz) as cache:
        warm, skipped_warm = batch_traces(11, fam_zz, ts, cache=cache)
    assert cold == warm and skipped_cold == skipped_warm


def test_angle_examples():
    assert angle(TraceRecord(5, 0, 0)) == pytest.approx(math.pi / 2)
    assert angle(TraceRecord(5, 1, -3)) == pytest.approx(2.306110779611565)
    assert angle(TraceRecord(5, 0, 2)) == pytest.approx(1.1071487177940904)
    with pytest.raises(ValueError):
        angle(TraceRecord(5, 0, 5))


@pytest.mark.parametrize("p", [5, 13, 101, 1009])
def test_angle_consistency_invariant(fam_zz, p):
    recs, _ = batch_traces(p, fam_zz, range(min(p, 64)))
    for rec in recs:
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
