import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab.errors import NondegeneracyError
from stlab.family import (
    CurveInstance,
    build_family,
    check_nondeg_global,
    check_nondeg_mod_p,
    delta_at,
    fingerprint,
    fingerprint_hex,
    good_reduction,
    poly_eval,
    poly_eval_mod,
    reduce_at,
)


def test_build_family_examples(fam_zz):
    assert fam_zz.delta_coeffs == (0, 0, -432, -64)
    assert fam_zz.deg_delta == 3
    assert build_family([1], []).delta_coeffs == (-64,)
    assert build_family([1], []).deg_delta == 0
    assert build_family([], [1]).delta_coeffs == (-432,)


def test_build_family_rejects_zero():
    with pytest.raises(ValueError):
        build_family([0, 0], [])


def test_nondeg_global(fam_zz):
    assert check_nondeg_global(fam_zz).ok
    assert check_nondeg_global(build_family([], [0, 1])) == (False, "j_constant")
    assert check_nondeg_global(build_family([0, 1], [])) == (False, "j_constant")
    # 4 f^3 = -27 g^2 makes delta vanish identically: f = -3 Z^2, g = 2 Z^3
    degenerate = build_family([0, 0, -3], [0, 0, 0, 2])
    assert degenerate.delta_coeffs == ()
    assert check_nondeg_global(degenerate) == (False, "delta_zero")


def test_nondeg_mod_p(fam_zz):
    assert check_nondeg_mod_p(fam_zz, 5).ok
    scaled = build_family([0, 5], [0, 5])  # every delta coefficient divisible by 5
    assert check_nondeg_mod_p(scaled, 5) == (False, "delta_zero")
    assert check_nondeg_mod_p(build_family([1], [0, 1]), 7).ok
    assert check_nondeg_mod_p(build_family([], [0, 1]), 7) == (False, "j_constant")
    with pytest.raises(ValueError):
        check_nondeg_mod_p(fam_zz, 3)


def test_nondeg_mod_p_holds_for_all_desk_primes(fam_zz):
    # global pass implies mod-p pass away from finitely many primes; for this
    # family the obstruction minors are powers of 2 and 3 only
    from stlab.param_sets import primes_upto

    for p in primes_upto(500).elements:
        if p > 3:
            assert check_nondeg_mod_p(fam_zz, p).ok


def test_nondeg_mod_p_fails_only_at_minor_divisors():
    # f = Z, g = 7Z passes globally but becomes j-constant mod 7: the only
    # nonzero 2x2 minor of ((4f)^3, delta) is 2^10 * 3^3 * 7^2
    fam = build_family([0, 1], [0, 7])
    assert check_nondeg_global(fam).ok
    minor = 64 * (16 * 27 * 49)
    failures = []
    from stlab.param_sets import primes_upto

    for p in primes_upto(100).elements:
        if p > 3 and not check_nondeg_mod_p(fam, p).ok:
            failures.append(p)
    assert failures == [7]
    assert all(minor % p == 0 for p in failures)


def test_delta_at_examples(fam_zz):
    assert delta_at(fam_zz, 1) == -496
    assert delta_at(fam_zz, 0) == 0
    assert delta_at(build_family([1], []), 99) == -64


def test_good_reduction_examples(fam_zz):
    assert good_reduction(fam_zz, 1, 31) is False  # -496 = -16 * 31
    assert good_reduction(fam_zz, 1, 5) is True
    assert good_reduction(fam_zz, 0, 7) is False  # delta(0) = 0


def test_reduce_at_examples(fam_zz):
    c = reduce_at(fam_zz, 1, 5)
    assert (c.a, c.b, c.t) == (1, 1, 1)
    # reduction is by residue: t = 6 = 1 mod 5
    c = reduce_at(fam_zz, 6, 5)
    assert (c.a, c.b) == (1, 1)
    # w = 2 mod 5 kills 4w + 27, so t = 7 is bad reduction and refused
    assert delta_at(fam_zz, 7) % 5 == 0
    with pytest.raises(NondegeneracyError):
        reduce_at(fam_zz, 7, 5)
    with pytest.raises(NondegeneracyError):
        reduce_at(fam_zz, 1, 31)


def test_curve_instance_rejects_singular():
    with pytest.raises(NondegeneracyError):
        CurveInstance(5, 0, 0)


@given(st.integers(min_value=-50, max_value=50),
       st.sampled_from([5, 7, 11, 13, 41, 101, 499, 997]))
def test_residue_and_exact_paths_agree(fam_zz, t, p):
    assert good_reduction(fam_zz, t, p) == (delta_at(fam_zz, t) % p != 0)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
       st.integers(min_value=-20, max_value=20))
def test_delta_matches_direct_recomputation(fc, gc, t):
    if not any(fc) and not any(gc):
        fc = [1]
    fam = build_family(fc, gc)
    ft = poly_eval(fam.f_coeffs, t)
    gt = poly_eval(fam.g_coeffs, t)
    assert delta_at(fam, t) == -16 * (4 * ft**3 + 27 * gt**2)


@given(st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=5),
       st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=20),
       st.sampled_from([5, 7, 101, 1009, 99991, 4194301]))
def test_poly_eval_mod_array_matches_exact(coeffs, ts, p):
    t = np.array(ts, dtype=np.int64)
    got = poly_eval_mod(coeffs, t, p)
    assert got.dtype == np.int64
    assert got.tolist() == [poly_eval(coeffs, v) % p for v in ts]
    assert t.tolist() == ts  # the argument is not reduced in place
    assert poly_eval_mod(coeffs, ts[0], p) == poly_eval(coeffs, ts[0]) % p


def test_fingerprint_format(fam_zz):
    # FNV-1a 64 reference on the documented byte string
    def fnv(data: bytes) -> int:
        h = 0xCBF29CE484222325
        for b in data:
            h ^= b
            h = (h * 0x100000001B3) % 2**64
        return h

    assert fingerprint(fam_zz) == fnv(b"f=0,1;g=0,1")
    assert fingerprint_hex(fam_zz) == format(fnv(b"f=0,1;g=0,1"), "016x")
    assert fingerprint_hex(fam_zz) != fingerprint_hex(build_family([1], [0, 1]))
