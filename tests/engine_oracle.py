"""Slow reference routes for the middle-term engine's fast paths.

`brute_multisets` enumerates every coefficient vector in a box with
`itertools.product`; `hom_dominated_sparse` and
`degenerates_properly_sparse` compare Hom dimensions one z at a time over
the nonzero entries of y - x, and `middle_terms_by_filter` keeps the
candidates of a dimension-only walk that pass them, where
`RepContext.middle_terms` walks with a Hom budget;
`integerize_by_fractions`, `reduce_mod_rows_by_fractions` and
`rref_by_fractions` (with `row_space_by_fractions` and
`nullspace_by_fractions`) are the `Fraction` routes that
`linalg.integerize`, `polycone._reduce_mod_rows` and the fraction-free
`linalg.rref` replace; `brute_extreme_rays` lists the extreme rays of a
pointed cone from every square subsystem of its forms, with no double
description; `dual_by_second_dd` is the dual of a cone by a second double
description over its generators, which `RationalCone` replaces by reading
the dual off the zero sets of its one run; `cone_generated_by` gives the
cone on some generators by its forms, the V-side of their dual cone.
`extension_generators_by_pairs` is the all-pairs route, by whole Hom
vectors, to the K-theory generators that
`RepContext._extension_generators` replaces by the pairs of disjoint
support, and `extension_generators_by_mesh` reaches the same generators
with no Hom comparison, as the primitive points of the cone on the AR mesh
vectors; `violation_by_facets` and `missing_generator_by_facets` test
points against a cone's facets and span equations, where `RationalCone`
tests its given forms in packed sums, and `containment_witness` is the
witness search on them over two expanded cones that `ktheory_cones`
replaces by the heights of the rays of D^v;
`is_adapted_by_reflection` builds every reflected quiver, where
`quiverrep.is_adapted` keeps arrow counts. `euler_table_by_pairs` calls
`euler_form` on every ordered pair of roots, where `RepContext` reads each
row off packed columns, and `mesh_arrows_by_scan` scans forward for each
neighbour's next position, where `RepContext` makes one backward pass;
`reach_by_closure` closes those arrows into one set per position, where
that pass ORs one int per position. `dim_vector` sums a module's roots.
`positive_definite_by_fractions` eliminates in `Fraction`s, where
`rootsys._is_positive_definite` runs Bareiss's fraction-free elimination.
`reduced_words_by_matrix`, `adapted_words_by_matrix` and
`positive_roots_by_matrix` step the n x n matrix of w with
`rootsys.reflect_step` and keep a letter while its root is positive, where
`rootsys.longest_words` and `rootsys.positive_roots` walk the weight
w^-1(rho) and `enumerate_adapted_words` carries arrow counts, not quivers;
`k_shift` scans forward from each position, where `rootsys.tight_pairs`
makes one backward pass.
The tests compare each fast path against these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, product
from math import gcd, lcm
from operator import le

from conekit.linalg import dot, nullspace_basis, primitive
from conekit.polycone import DimensionMismatch, RationalCone, dd_vrep, with_lines
from conekit.quiverrep import DynkinQuiver, bounded_multisets, euler_form
from conekit.rootsys import num_positive_roots, reflect_step


def is_adapted_by_reflection(quiver, word) -> bool:
    """Each letter a sink of the quiver reflected at every earlier letter."""
    q = quiver
    for letter in word:
        if not 1 <= letter <= q.n or letter not in q.sinks():
            return False
        q = q.reflected(letter)
    return True


def euler_table_by_pairs(quiver, betas) -> tuple[tuple[int, ...], ...]:
    """<beta_k, beta_l> from `euler_form` for every ordered pair."""
    return tuple(tuple(euler_form(quiver, b, c) for c in betas) for b in betas)


def mesh_arrows_by_scan(ctx) -> tuple[tuple[int, int], ...]:
    """(k, l) for each neighbour v of letter k, with l the first later
    position of v: one forward scan per (k, v)."""
    arrows = []
    for k in range(1, ctx.N + 1):
        for v in ctx.quiver.neighbors(ctx.word[k - 1]):
            l = next((t for t in range(k + 1, ctx.N + 1) if ctx.word[t - 1] == v), None)
            if l is not None:
                arrows.append((k, l))
    return tuple(sorted(set(arrows)))


def reach_by_closure(ctx) -> dict[int, set[int]]:
    """The positions reachable from each k along the arrows of
    `mesh_arrows_by_scan`, as sets closed backwards over the successors."""
    succ = {k: set() for k in range(1, ctx.N + 1)}
    for k, l in mesh_arrows_by_scan(ctx):
        succ[k].add(l)
    reach = {k: {k} for k in range(1, ctx.N + 1)}
    for k in range(ctx.N, 0, -1):
        for l in succ[k]:
            reach[k] |= reach[l]
    return reach


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


def hom_dominated_sparse(ctx, x, y, zs) -> bool:
    """[U_z, x] <= [U_z, y] for every z in zs, strictly for at least one.

    zs must ascend. [U_z, M] only sees the summands at or after z, so each
    gap sums the nonzero entries of y - x from a pointer that zs advance.
    """
    diff = [(t, b - a) for t, (a, b) in enumerate(zip(x, y), start=1) if a != b]
    strict = False
    start = 0
    for z in zs:
        while start < len(diff) and diff[start][0] < z:
            start += 1
        if start == len(diff):
            break  # every later gap is 0
        gap = sum(ctx.hom_indec(z, t) * d for t, d in diff[start:])
        if gap < 0:
            return False
        if gap > 0:
            strict = True
    return strict


def dim_vector(ctx, m) -> tuple[int, ...]:
    """Sum of m_t beta_t; DimensionMismatch unless m has one entry per
    indecomposable."""
    if len(m) != ctx.N:
        raise DimensionMismatch(f"length mismatch: {len(m)} vs {ctx.N}")
    out = [0] * ctx.n
    for mk, beta in zip(m, ctx.betas):
        if mk:
            out = [a + mk * b for a, b in zip(out, beta)]
    return tuple(out)


def degenerates_properly_sparse(ctx, x, u, v) -> bool:
    """Same dimension vector as u + v and sparse Hom domination over all z."""
    y = tuple(a + b for a, b in zip(u, v))
    if dim_vector(ctx, x) != dim_vector(ctx, y):
        raise DimensionMismatch("dimension vectors do not add up")
    return hom_dominated_sparse(ctx, x, y, range(1, ctx.N + 1))


def extension_generators_by_pairs(ctx, bound: int) -> dict[tuple[int, ...], int]:
    """Each primitive y - x over every pair x, y of modules of height at most
    bound with one dimension vector and [U_z, x] <= [U_z, y] for every z,
    strictly for some, mapped to the least height of y where it occurs.

    Each module's Hom vector ([U_z, m])_z is summed once from `hom_indec`,
    and every ordered pair of a dimension group compares the two vectors."""
    by_dim: dict[tuple[int, ...], list] = {}
    heights = [(sum(b),) for b in ctx.betas]
    every = range(1, ctx.N + 1)
    rows = [[ctx.hom_indec(z, t) for t in every] for z in every]
    for m in bounded_multisets((bound,), heights, exact=False):
        hom = tuple(dot(row, m) for row in rows)
        by_dim.setdefault(dim_vector(ctx, m), []).append((m, hom))
    out: dict[tuple[int, ...], int] = {}
    for dim, group in by_dim.items():
        for x, hx in group:
            for y, hy in group:
                if hx != hy and all(map(le, hx, hy)):
                    delta = primitive(tuple(b - a for a, b in zip(x, y)))
                    out[delta] = min(sum(dim), out.get(delta, sum(dim)))
    return out


def extension_generators_by_mesh(ctx, bound: int) -> dict[tuple[int, ...], int]:
    """Each R.a over a in N^m, a != 0, gcd(a) = 1 and ht((R.a)+) <= bound,
    mapped to ht((R.a)+), where R holds the m mesh vectors of
    `mesh_vectors()`; no pair of modules is compared.

    D.R = I, so an integer r of the dimension kernel is R.(D r) with D r
    integral, and [P_v, r] = (dim r)_v = 0 for every projective P_v: the r
    with [U_z, r] >= 0 for all z are R.N^m, with gcd(r) = gcd(D r). Then
    y - x, for x and y of disjoint support, is r with x = r- and y = r+.

    The walk runs backward over positions. At a non-projective t it picks
    a_t >= 0, which makes r_t final: every mesh vector with a nonzero at t
    ends at t or later. dim r = 0, so the heights of r+ and r- are equal,
    and the positions still open must cancel the decided part's dimension
    vector: a branch is pruned once sum h_t |r_t| over the decided
    positions, plus the l1 norm of their dimension vector, exceeds
    2 bound."""
    mesh = ctx.mesh_vectors()
    heights = [sum(b) for b in ctx.betas]
    at = [[(m, r[t]) for m, r in mesh.items() if r[t] and m != t + 1] for t in range(ctx.N)]
    out: dict[tuple[int, ...], int] = {}

    def walk(t, a, r, spent, dim):
        if t < 0:
            if any(a.values()) and gcd(*a.values()) == 1:
                out[tuple(r)] = spent // 2
            return
        rest = sum(a[m] * x for m, x in at[t])
        for pick in count() if t + 1 in mesh else (0,):
            r[t] = rest + pick
            d = [u + r[t] * b for u, b in zip(dim, ctx.betas[t])]
            cost = spent + heights[t] * abs(r[t])
            if cost + sum(map(abs, d)) <= 2 * bound:
                walk(t - 1, {**a, t + 1: pick} if t + 1 in mesh else a, r, cost, d)
            elif r[t] > 0 and heights[t] * r[t] > 2 * bound:
                break  # a larger a_t only raises r_t

    walk(ctx.N - 1, {}, [0] * ctx.N, 0, [0] * ctx.n)
    return out


def middle_terms_by_filter(ctx, k: int, l: int) -> list[tuple[int, ...]]:
    """Oracle middle terms the old way: a dimension-only walk over the open
    window (k, l), then the sparse degeneration test on every candidate."""
    if ctx.ext_indec(l, k) == 0:
        return []
    target = tuple(a + b for a, b in zip(ctx.betas[k - 1], ctx.betas[l - 1]))
    window = range(k + 1, l)
    u, v = ctx.unit(k), ctx.unit(l)
    out = []
    for filling in bounded_multisets(target, [ctx.betas[t - 1] for t in window]):
        x = [0] * ctx.N
        for t, m in zip(window, filling):
            x[t - 1] = m
        if degenerates_properly_sparse(ctx, tuple(x), u, v):
            out.append(tuple(x))
    return sorted(out)


def rref_by_fractions(rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form over Q: (nonzero Fraction rows, pivots)."""
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


def rank_by_fractions(rows: list) -> int:
    return len(rref_by_fractions(rows)[0])


def row_space_by_fractions(rows: list) -> list[tuple[int, ...]]:
    return [integerize_by_fractions(row) for row in rref_by_fractions(rows)[0]]


def nullspace_by_fractions(forms: list) -> list[tuple[int, ...]]:
    ncols = len(forms[0])
    reduced, pivots = rref_by_fractions(forms)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[c]
        basis.append(integerize_by_fractions(vec))
    return basis


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


def dual_by_second_dd(dim: int, rays, lineality) -> tuple[list, list]:
    """V-representation (rays, lineality basis) of the dual of the cone
    generated by `rays` and the lines `lineality`: the generators, each line
    in both directions, are the forms of the dual."""
    return dd_vrep(dim, with_lines(rays, lineality))[:2]


def cone_generated_by(dim: int, rays, lines=()) -> RationalCone:
    """The cone generated by `rays` and the lines `lines`, given by its
    forms: the rays and lines, both ways, of its dual cone
    {x : g . x >= 0 for every generator g}."""
    dual = RationalCone.from_inequalities(dim, with_lines(rays, lines))
    return RationalCone.from_inequalities(dim, with_lines(*dual.vrep()))


def violation_by_facets(cone, v):
    """("form", f) for the first facet f of `cone` with f . v < 0, else
    ("equation", e) for the first span equation e with e . v != 0, else
    None (v is inside): membership read off the cone's dual side, which
    its DD gives, where `RationalCone` tests only its given forms."""
    if len(v) != cone.dim:
        raise DimensionMismatch(f"length mismatch: {len(v)} vs {cone.dim}")
    facets, span_perp = cone.dualrep()
    for f in facets:
        if dot(f, v) < 0:
            return "form", f
    for e in span_perp:
        if dot(e, v) != 0:
            return "equation", e
    return None


def missing_generator_by_facets(big, small):
    """(g, violation) for the first `with_lines` generator g of `small`
    that `violation_by_facets` puts outside `big`, or None when `big`
    contains `small`."""
    if big.dim != small.dim:
        raise DimensionMismatch("cones live in different spaces")
    for g in with_lines(*small.vrep()):
        found = violation_by_facets(big, g)
        if found is not None:
            return g, found
    return None


def containment_witness(a, b) -> dict:
    """A ray of one cone outside the other, as plain data: a ray of `a` (as
    "E") outside `b`, else a ray of `b` (as "D_dual") outside `a`."""
    for ray_of, small, big in (("E", a, b), ("D_dual", b, a)):
        found = missing_generator_by_facets(big, small)
        # generators come rays first, so a line here means no ray is outside
        if found is not None and found[0] in small.rays:
            return {"ray_of": ray_of, "ray": list(found[0])}
    return {"note": "cones differ only in lineality"}


def positive_definite_by_fractions(entries, sym) -> bool:
    """Sylvester's criterion by Gaussian elimination over Q: every pivot of
    D.A is positive."""
    n = len(entries)
    b = [[Fraction(sym[i] * entries[i][j]) for j in range(n)] for i in range(n)]
    for c in range(n):
        if b[c][c] <= 0:
            return False
        for r in range(c + 1, n):
            f = b[r][c] / b[c][c]
            b[r] = [x - f * y for x, y in zip(b[r], b[c])]
    return True


def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _is_positive(beta) -> bool:
    return any(beta) and min(beta) >= 0


def _longest_words_by_matrix(c, state, letters, advance) -> list[tuple[int, ...]]:
    """Every longest-element word over ``letters(state)``, in the order
    tried, keeping a letter while its root (a column of the matrix of the
    prefix) is positive."""
    total = num_positive_roots(c)
    out = []

    def walk(state, m, prefix):
        if len(prefix) == total:
            out.append(tuple(prefix))
            return
        for letter in letters(state):
            beta, m2 = reflect_step(c, m, letter)
            if _is_positive(beta):
                walk(advance(state, letter), m2, prefix + [letter])

    walk(state, _identity(c.rank), [])
    return out


def reduced_words_by_matrix(c) -> list[tuple[int, ...]]:
    letters = range(1, c.rank + 1)
    return _longest_words_by_matrix(c, None, lambda _: letters, lambda state, _: state)


def adapted_words_by_matrix(quiver) -> list[tuple[int, ...]]:
    """Sinks in increasing order, with a new reflected quiver per letter."""
    return _longest_words_by_matrix(
        quiver.cartan, quiver, lambda q: sorted(q.sinks()), DynkinQuiver.reflected)


def positive_roots_by_matrix(c) -> tuple[tuple[int, ...], ...]:
    """The roots of the greedy matrix walk (first letter whose root is
    positive), sorted by (height, coordinates)."""
    roots, m = [], _identity(c.rank)
    while True:
        for letter in range(1, c.rank + 1):
            beta, m2 = reflect_step(c, m, letter)
            if _is_positive(beta):
                roots.append(beta)
                m = m2
                break
        else:
            return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def k_shift(word, k: int):
    """Position of the next later occurrence of letter ``word[k-1]``, or
    None, by a forward scan."""
    if not 1 <= k <= len(word):
        raise ValueError(f"position {k} out of range")
    later = range(k + 1, len(word) + 1)
    return next((t for t in later if word[t - 1] == word[k - 1]), None)
