"""Discrete-log table and multiplicative characters: test oracles only.

No production path reads discrete logs; the tests use these to check
character sums and power tables against an independent construction.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from stlab.errors import RefusedError
from stlab.finite_field import power_table, primitive_root

# ind tables take O(p) words; larger p are refused.
INDEX_TABLE_LIMIT = 1 << 22


@dataclass(frozen=True)
class IndexTable:
    """Discrete-log table: ind[g**z mod p] = z for z in [0, p-2].

    ind is a bijection {1..p-1} -> {0..p-2}; ind[0] is the sentinel -1.
    """

    p: int
    g: int
    ind: np.ndarray

    @classmethod
    def build(cls, p: int) -> "IndexTable":
        if p > INDEX_TABLE_LIMIT:
            raise RefusedError(f"index table for p={p} exceeds the {INDEX_TABLE_LIMIT} limit")
        g = primitive_root(p)
        ind = np.full(p, -1, dtype=np.int64)
        ind[power_table(g, p)] = np.arange(p - 1, dtype=np.int64)
        ind.setflags(write=False)
        return cls(p, g, ind)


def character_eval(s: int, w: int, tbl: IndexTable) -> complex:
    """Value of the multiplicative character chi_s at w: e(s * ind(w) / (p-1)).

    chi_0 is the trivial character; chi_{(p-1)/2} is the quadratic one.
    """
    w %= tbl.p
    if w == 0:
        raise ValueError("character undefined at 0 mod p")
    z = int(tbl.ind[w])
    return cmath.exp(2j * cmath.pi * (s * z % (tbl.p - 1)) / (tbl.p - 1))
