"""Submodule counts by brute force, as an independent check on hallalg.

`count_by_subspaces` lists every tuple of subspaces (one per vertex) of a
representation X over F_p, keeps the tuples closed under the arrow maps,
and classifies each submodule and its quotient by its rank function: the
rank of the map from vertex i to vertex j, which for the arrows a -> a+1
counts the summands [a, b] with a <= i <= j <= b and so determines the
module. It is exponential in the dimensions, so it only serves tests at
small scale, where it must agree exactly with `hallalg.count_submodules`.
Its F_p helpers are its own: the maps of X are read off its summands, not
multiplied out, and ranks come from forward elimination, so no helper of
`hallalg` is checked against itself.

`fit_by_lagrange` is the rational Lagrange fit that `hallalg._newton`
replaced, kept as the reference for that integer fit.
"""

from fractions import Fraction
from itertools import combinations, product

from conekit.hallalg import InterpolationInconsistent, LaurentPoly


def fit_by_lagrange(xs, ys) -> LaurentPoly:
    """The interpolating polynomial in rationals; raises
    InterpolationInconsistent unless every coefficient is an integer."""
    coeffs: dict[int, Fraction] = {}
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = {0: Fraction(1)}
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new: dict[int, Fraction] = {}
            for e, c in basis.items():
                new[e + 1] = new.get(e + 1, 0) + c
                new[e] = new.get(e, 0) - c * xj
            basis = new
            denom *= xi - xj
        for e, c in basis.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + Fraction(yi) * c / denom
    out = {}
    for e, c in coeffs.items():
        if c:
            if c.denominator != 1:
                raise InterpolationInconsistent("non-integer interpolated coefficient")
            out[e] = int(c)
    return LaurentPoly(out)


def _rank(rows, p: int) -> int:
    """Rank over F_p by forward elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        for r in range(rank + 1, len(mat)):
            if mat[r][c]:
                f = mat[r][c] * inv
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _times(rows, mat, p: int, cols: int):
    """The row vectors `rows` times the matrix `mat` with `cols` columns."""
    return [[sum(r[i] * mat[i][c] for i in range(len(r))) % p for c in range(cols)]
            for r in rows]


def _rank_function(n: int, m) -> dict:
    """(i, j) -> rank of M_i -> M_j: the summands [a, b] with a <= i <= j <= b."""
    return {(i, j): sum(a <= i and j <= b for a, b in m)
            for i in range(1, n + 1) for j in range(i, n + 1)}


def _subspaces(d: int, e: int, p: int):
    """All e-dimensional subspaces of F_p^d as RREF row matrices."""
    if e == 0:
        yield ()
        return
    for pivots in combinations(range(d), e):
        free = [
            (r, c)
            for r in range(e)
            for c in range(pivots[r] + 1, d)
            if c not in pivots
        ]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(e)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def count_by_subspaces(n: int, x, w, v, p: int) -> int:
    """Submodules of X isomorphic to W with quotient isomorphic to V, over F_p."""
    # basis[i]: the summands of X alive at vertex i, one basis vector each
    basis = [[k for k, (a, b) in enumerate(x) if a <= i <= b] for i in range(n + 1)]
    dims = [len(basis[i]) for i in range(1, n + 1)]
    e = [sum(a <= i <= b for a, b in w) for i in range(1, n + 1)]
    if any(ei > di for ei, di in zip(e, dims)):
        return 0
    # X_i -> X_j sends each summand's vector to its vector at j, or to 0
    comp = {
        (i, j): [[int(k == l) for l in basis[j]] for k in basis[i]]
        for i in range(1, n + 1) for j in range(i, n + 1)
    }
    want_w, want_v = _rank_function(n, w), _rank_function(n, v)
    choices = [list(_subspaces(dims[vx], e[vx], p)) for vx in range(n)]
    count = 0

    def classify(pick) -> bool:
        for (i, j), r in comp.items():
            if _rank(_times(pick[i - 1], r, p, dims[j - 1]), p) != want_w[i, j]:
                return False
            if _rank(r + list(pick[j - 1]), p) - e[j - 1] != want_v[i, j]:
                return False
        return True

    # Depth-first over vertices so instability prunes whole subtrees.
    def walk(vx: int, pick: tuple):
        nonlocal count
        if vx == n:
            if classify(pick):
                count += 1
            return
        for sub in choices[vx]:
            if vx > 0:
                image = _times(pick[vx - 1], comp[vx, vx + 1], p, dims[vx])
                if _rank(list(sub) + image, p) != e[vx]:
                    continue
            walk(vx + 1, pick + (sub,))

    walk(0, ())
    return count
