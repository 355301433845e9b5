"""Exact linear algebra over the rationals, sized for desk-scale cones.

Inputs may be ``int`` or ``fractions.Fraction`` (`rational`). Row reduction
(`rref`, and through it `rank`, `row_space_basis`, `nullspace_basis`) runs
fraction-free on integers; only `integerize` meets a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import lshift, mul

IntVec = tuple[int, ...]


def content(v) -> int:
    """gcd of the absolute values of the entries (0 for the zero vector)."""
    return gcd(*v)


def primitive(v) -> IntVec:
    """Divide an integer vector by its content, keeping orientation.

    >>> primitive((4, -6, 2))
    (2, -3, 1)
    """
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rational(x) -> Fraction:
    """x as a ``Fraction``. Any type but ``int`` and ``Fraction`` raises
    TypeError: a float's binary fraction would pass as exact."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__} {x!r}")


def integerize(v) -> IntVec:
    """Clear denominators of a rational vector and reduce to primitive form."""
    if {int}.issuperset(map(type, v)):
        return primitive(tuple(v))
    fracs = [rational(x) for x in v]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return primitive(tuple(int(f * mult) for f in fracs))


def pack(v, width: int) -> int:
    """The entries of v in one ``int``, width bits apiece: sum v_i 2^(width i).

    The sum is exact for entries of either sign; field i reads back as v_i
    only while every entry lies in [0, 2**width).
    """
    return sum(map(lshift, v, range(0, width * len(v), width)))


def dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def rref(rows: list) -> tuple[list[IntVec], list[int]]:
    """Reduced row echelon form, fraction-free.

    Returns (each nonzero row of the RREF over Q as a primitive integer
    vector with a positive pivot, pivot column indices). Rows may hold
    ``int``s or rationals: each is first scaled to a primitive integer row,
    which keeps the row space. Gauss-Jordan then clears column c from a row
    as ``p * row - f * pivot_row`` and divides by the content.
    """
    mat = [integerize(row) for row in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
        if r + 1 == len(mat):
            break
    reduced = [row if row[c] > 0 else tuple(-x for x in row) for row, c in zip(mat, pivots)]
    return reduced, pivots


def rank(rows: list) -> int:
    return len(rref(rows)[0]) if rows else 0


def row_space_basis(rows: list) -> list[IntVec]:
    """Canonical primitive integer basis of the row space: the scaled RREF."""
    return rref(rows)[0]


def nullspace_basis(forms: list) -> list[IntVec]:
    """Canonical primitive integer basis of {x : f . x = 0 for every form f}."""
    if not forms:
        raise ValueError("ambient dimension unknown for an empty form list")
    ncols = len(forms[0])
    reduced, pivots = rref(forms)
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [0] * ncols
        vec[c] = scale
        for row, p in zip(reduced, pivots):
            vec[p] = -row[c] * (scale // row[p])
        basis.append(primitive(vec))
    return basis
