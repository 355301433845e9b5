"""Slow reference routes for the middle-term engine's fast paths.

`brute_multisets` enumerates every coefficient vector in a box with
`itertools.product`; `integerize_by_fractions` and
`reduce_mod_rows_by_fractions` are the `Fraction` routes that
`linalg.integerize` and `polycone._reduce_mod_rows` replace for integer
input; `brute_extreme_rays` lists the extreme rays of a pointed cone from
every square subsystem of its forms, with no double description. The tests
compare each fast path against these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from conekit.linalg import dot, nullspace_basis, primitive


def brute_multisets(target, columns, exact: bool = True) -> list[tuple[int, ...]]:
    """Every n >= 0 with sum n_t col_t <= target (== when exact), sorted."""
    if any(x < 0 for x in target):
        return []
    top = max(target, default=0)
    out = []
    for coeffs in product(range(top + 1), repeat=len(columns)):
        total = [0] * len(target)
        for m, col in zip(coeffs, columns):
            for i, c in enumerate(col):
                total[i] += m * c
        if exact and total == list(target):
            out.append(coeffs)
        elif not exact and all(s <= t for s, t in zip(total, target)):
            out.append(coeffs)
    return sorted(out)


def integerize_by_fractions(v) -> tuple[int, ...]:
    """Clear denominators through `Fraction`, then reduce to primitive form."""
    fracs = [Fraction(x) for x in v]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return primitive(tuple(int(f * mult) for f in fracs))


def reduce_mod_rows_by_fractions(v, basis) -> tuple[int, ...]:
    """v minus the multiples of each RREF row that clear its pivot, over Q."""
    vec = [Fraction(x) for x in v]
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        if vec[pivot] != 0:
            f = vec[pivot] / row[pivot]
            vec = [x - f * y for x, y in zip(vec, row)]
    return integerize_by_fractions(vec)


def brute_extreme_rays(dim: int, forms) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {x : f . x >= 0 for every form f}.

    A ray is extreme exactly when its tight forms have rank dim - 1, so each
    one spans the kernel of some dim - 1 of the forms and satisfies them all.
    """
    rays = set()
    for subset in combinations(forms, dim - 1):
        kernel = nullspace_basis(list(subset))
        if len(kernel) != 1:
            continue
        for ray in (kernel[0], tuple(-x for x in kernel[0])):
            if all(dot(f, ray) >= 0 for f in forms):
                rays.add(ray)
    return sorted(rays)
