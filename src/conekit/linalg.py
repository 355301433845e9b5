"""Exact linear algebra over the rationals, sized for desk-scale cones.

Everything works on tuples of ``int`` or ``fractions.Fraction``; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

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


def integerize(v) -> IntVec:
    """Clear denominators of a rational vector and reduce to primitive form."""
    if all(type(x) is int for x in v):
        return primitive(tuple(v))
    fracs = [Fraction(x) for x in v]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return primitive(tuple(int(f * mult) for f in fracs))


def dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def rref(rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form over Q.

    Returns (nonzero rows as Fraction tuples, pivot column indices).
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: list) -> int:
    return len(rref(rows)[0]) if rows else 0


def row_space_basis(rows: list) -> list[IntVec]:
    """Canonical primitive integer basis of the row space (RREF then cleared)."""
    reduced, _ = rref(rows)
    return [integerize(row) for row in reduced]


def nullspace_basis(forms: list) -> list[IntVec]:
    """Canonical primitive integer basis of {x : f . x = 0 for every form f}."""
    if not forms:
        raise ValueError("ambient dimension unknown for an empty form list")
    ncols = len(forms[0])
    reduced, pivots = rref(forms)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[c]
        basis.append(integerize(vec))
    return basis

