"""Submodule counts by brute force, as an independent check on hallalg.

`count_by_subspaces` lists every tuple of subspaces (one per vertex) of a
representation X over F_p, keeps the tuples closed under the arrow maps,
and classifies each submodule and its quotient by rank invariants. It is
exponential in the dimensions, so it only serves tests at small scale,
where it must agree exactly with `hallalg.count_submodules`.

`fit_by_lagrange` is the rational Lagrange fit that `hallalg._newton`
replaced, kept as the reference for that integer fit.
"""

from fractions import Fraction
from itertools import combinations, product

from conekit.hallalg import (
    InterpolationInconsistent,
    LaurentPoly,
    _arrow_matrices,
    _composites,
    _mat_mul,
    _multiplicities_from_ranks,
    _rank_mod,
    dim_vector,
    module_multiplicities,
)


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
    dims = dim_vector(n, x)
    e = dim_vector(n, w)
    if any(ei > di for ei, di in zip(e, dims)):
        return 0
    _, mats = _arrow_matrices(n, x, p)
    comp = _composites(n, dims, mats, p)
    want_w = module_multiplicities(w)
    want_v = module_multiplicities(v)
    choices = [list(_subspaces(dims[vx], e[vx], p)) for vx in range(n)]
    count = 0

    def classify(pick) -> bool:
        r_sub = {}
        r_quot = {}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if e[i - 1] == 0:
                    r_sub[i, j] = 0
                else:
                    r_sub[i, j] = _rank_mod(
                        _mat_mul(pick[i - 1], comp[i, j], p, dims[j - 1]), p
                    )
                stacked = comp[i, j] + tuple(pick[j - 1])
                r_quot[i, j] = _rank_mod(stacked, p) - e[j - 1] if stacked else 0
        return (
            _multiplicities_from_ranks(n, r_sub) == want_w
            and _multiplicities_from_ranks(n, r_quot) == want_v
        )

    # Depth-first over vertices so instability prunes whole subtrees.
    def walk(vx: int, pick: tuple):
        nonlocal count
        if vx == n:
            if classify(pick):
                count += 1
            return
        for sub in choices[vx]:
            if vx > 0 and e[vx - 1] > 0:
                image = _mat_mul(pick[vx - 1], mats[vx - 1], p, dims[vx])
                if _rank_mod(tuple(sub) + image, p) != e[vx]:
                    continue
            walk(vx + 1, pick + (sub,))

    walk(0, ())
    return count
