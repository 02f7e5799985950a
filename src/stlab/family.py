"""Parametric curve families y^2 = x^3 + f(z)x + g(z) over the integers.

Coefficients are ascending-degree arbitrary-precision integers.  The derived
discriminant is delta(z) = -16(4 f^3 + 27 g^2); the family is usable when
delta is a nonzero polynomial and the j-invariant is non-constant, globally
or modulo a prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import NondegeneracyError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_scale(a, c):
    return _trim([c * ai for ai in a])


def poly_eval(coeffs, t: int) -> int:
    """Exact Horner evaluation over arbitrary-precision integers."""
    v = 0
    for c in reversed(coeffs):
        v = v * t + c
    return v


def poly_eval_mod(coeffs, t, p: int):
    """Horner evaluation carried out entirely on residues mod p.

    t is an int or an int64 array (evaluated elementwise, never in place).
    """
    t = t % p
    v = t * 0
    for c in reversed(coeffs):
        v = (v * t + c % p) % p
    return v


def _proportional(a, b) -> bool:
    """True when polynomials a, b are linearly dependent (all 2x2 minors vanish)."""
    n = max(len(a), len(b))
    aa = list(a) + [0] * (n - len(a))
    bb = list(b) + [0] * (n - len(b))
    for i in range(n):
        for j in range(i + 1, n):
            if aa[i] * bb[j] - aa[j] * bb[i] != 0:
                return False
    return True


class NondegCheck(NamedTuple):
    ok: bool
    reason: str | None  # "delta_zero" | "j_constant" when not ok


@dataclass(frozen=True)
class FamilyPoly:
    """The family data: f, g and the expanded discriminant."""

    f_coeffs: tuple[int, ...]
    g_coeffs: tuple[int, ...]
    delta_coeffs: tuple[int, ...]
    deg_delta: int  # -1 for the zero polynomial


@dataclass(frozen=True)
class CurveInstance:
    """One specialized curve y^2 = x^3 + a x + b over F_p, known nonsingular."""

    p: int
    a: int
    b: int
    t: int | None = None

    def __post_init__(self):
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise NondegeneracyError(
                f"singular curve mod {self.p}: a={self.a}, b={self.b}"
            )


def build_family(f_coeffs, g_coeffs) -> FamilyPoly:
    """Expand delta exactly and package the family; both f and g zero is invalid."""
    f = _trim(f_coeffs)
    g = _trim(g_coeffs)
    if not f and not g:
        raise ValueError("invalid family: f and g are both zero")
    f3 = _poly_mul(_poly_mul(f, f), f)
    g2 = _poly_mul(g, g)
    delta = _poly_scale(_poly_add(_poly_scale(f3, 4), _poly_scale(g2, 27)), -16)
    return FamilyPoly(f, g, delta, len(delta) - 1)


def fnv1a_hex(text: str) -> str:
    """64-bit FNV-1a over the ASCII bytes of text, as 16 hex digits."""
    h = _FNV_OFFSET
    for byte in text.encode("ascii"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return format(h, "016x")


def fingerprint_hex(fam: FamilyPoly) -> str:
    """FNV-1a over 'f=<c0,c1,...>;g=<c0,c1,...>' with decimal coefficients."""
    text = "f=" + ",".join(str(c) for c in fam.f_coeffs)
    text += ";g=" + ",".join(str(c) for c in fam.g_coeffs)
    return fnv1a_hex(text)


def fingerprint(fam: FamilyPoly) -> int:
    return int(fingerprint_hex(fam), 16)


def _four_f_cubed(fam: FamilyPoly):
    f4 = _poly_scale(fam.f_coeffs, 4)
    return _poly_mul(_poly_mul(f4, f4), f4)


def check_nondeg_global(fam: FamilyPoly) -> NondegCheck:
    """Over Q: delta nonzero and j non-constant.

    j is constant exactly when (4f)^3 and delta are proportional, which is a
    division-free test valid over any field.
    """
    if not fam.delta_coeffs:
        return NondegCheck(False, "delta_zero")
    if _proportional(_four_f_cubed(fam), fam.delta_coeffs):
        return NondegCheck(False, "j_constant")
    return NondegCheck(True, None)


def check_nondeg_mod_p(fam: FamilyPoly, p: int) -> NondegCheck:
    """Same predicate with all coefficients reduced mod p."""
    if p <= 3:
        raise ValueError("requires p > 3")
    delta_p = _trim(c % p for c in fam.delta_coeffs)
    if not delta_p:
        return NondegCheck(False, "delta_zero")
    a = [c % p for c in _four_f_cubed(fam)]
    b = list(delta_p)
    n = max(len(a), len(b))
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] * b[j] - a[j] * b[i]) % p != 0:
                return NondegCheck(True, None)
    return NondegCheck(False, "j_constant")


def delta_at(fam: FamilyPoly, t: int) -> int:
    """Exact integer value delta(t)."""
    return poly_eval(fam.delta_coeffs, t)


def good_reduction(fam: FamilyPoly, t: int, p: int) -> bool:
    """delta(t) != 0 mod p, evaluated on residues (never via the exact integer)."""
    return poly_eval_mod(fam.delta_coeffs, t, p) != 0


def reduce_at(fam: FamilyPoly, t: int, p: int) -> CurveInstance:
    """Specialize at z = t over F_p; refuses parameters with bad reduction."""
    if not good_reduction(fam, t, p):
        raise NondegeneracyError(f"bad reduction at t={t} mod p={p}")
    a = poly_eval_mod(fam.f_coeffs, t, p)
    b = poly_eval_mod(fam.g_coeffs, t, p)
    return CurveInstance(p, a, b, t)
