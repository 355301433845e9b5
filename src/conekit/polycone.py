"""Exact rational polyhedral cones via the double description method.

All cones are closed convex rational cones ``{x : f . x >= 0}``. Both
representations are kept over the integers: inequality forms, extreme rays,
and lineality bases are primitive integer vectors. There is no floating
point and no LP solver anywhere in this module. A cone is expanded by one
run of the double description method (`dd_vrep`), with the combinatorial
adjacency test (prefiltered by a count of shared tight forms), lineality
handled by pivoting, and every form evaluated on its nonzero coordinates
only; or, when its forms are unit triangular (each ends with a 1 at its
own coordinate, as the negative tight cone's do), by one integer
substitution instead (`_triangular_vrep`), with the same output. Either
way the set of forms tight on each ray is kept, and the other side of the
cone, its facets and span equations, is read off those zero sets with no
second run.

A cone is given by its forms and expanded only when its V-side is first
read. The cone generated by vectors G is the dual side of
``from_inequalities(dim, G)``: its rays and lineality are that cone's
`dualrep()`. Cones are compared by one test of the containing cone's
forms, less those the other cone was given, on the other cone's rays and
lines as packed integer sums; it decides `contains` and names the witness
(`missing_generator`), so facets are output only. When the other cone's
forms are all among the containing cone's, a pass proves the two cones
equal, and the containing cone keeps the other's V-sides.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from operator import itemgetter, mul

from .linalg import dot, integerize, pack, primitive, row_space_basis
from .rootsys import CapExceeded, Record, VerificationFailure

IntVec = tuple[int, ...]

MAX_DD_RAYS = 100_000  # rays held at once by one dd_vrep run


class DimensionMismatch(ValueError):
    pass


class ZeroCone(ValueError):
    """Raised when an operation needs a nonzero cone."""


def normalize_form(coeffs, allow_zero: bool = False) -> IntVec:
    """Clear denominators and reduce to primitive integer coefficients."""
    v = integerize(coeffs)
    if not allow_zero and all(x == 0 for x in v):
        raise ValueError("the zero form is not allowed here")
    return v


def with_lines(rays, lines) -> list[IntVec]:
    """Generators of a cone as a list: the rays, the lines, the negated lines."""
    return list(rays) + list(lines) + [tuple(-x for x in l) for l in lines]


def _reduce_mod_rows(v: IntVec, basis: list[IntVec]) -> IntVec:
    """Canonical representative of v modulo the row space of an RREF basis.

    Each basis row is an integerised RREF row: its pivot is positive and it
    is zero at the other pivots. So clearing a pivot by ``row[p]*w -
    w[p]*row`` scales the rational reduction by a positive factor, and the
    primitive form of the result is the same.
    """
    w = tuple(v)
    for row in basis:
        pivot = row.index(next(filter(None, row)))
        if w[pivot]:
            a, b = row[pivot], w[pivot]
            w = tuple(a * x - b * y for x, y in zip(w, row))
    return primitive(w)


def _evaluator(a: IntVec, dim: int):
    """The map r -> a . r, reading only the nonzero coordinates of a.

    Raises the ValueError of `linalg.dot` when a does not have length dim.
    A single-entry form is one product. Through an itemgetter, a form with
    at most a third of its coordinates nonzero is evaluated in 0.3-0.9 of
    the time of the plain sum in dimension 8-42 (about even in dimension
    6); a denser form is not faster that way (0.8-1.4), so it keeps the
    plain sum.
    """
    if len(a) != dim:
        raise ValueError(f"length mismatch: {len(a)} vs {dim}")
    nonzero = dim - a.count(0)
    if not nonzero or 3 * nonzero > dim:
        return lambda r: sum(map(mul, a, r))
    support = [i for i, x in enumerate(a) if x]
    if nonzero == 1:
        (i,) = support
        c = a[i]
        return lambda r: c * r[i]
    coeffs, pick = [a[i] for i in support], itemgetter(*support)
    return lambda r: sum(map(mul, coeffs, pick(r)))


def dd_vrep(dim: int, forms: list[IntVec]) -> tuple[list[IntVec], list[IntVec], list[int]]:
    """V-representation (extreme rays, lineality basis) of an H-cone, with
    the zero set of each ray.

    The rays come back primitive, reduced modulo the lineality space, and
    lexicographically sorted; the lineality basis is the canonical RREF one.
    The third list is aligned with the rays: bit i of its entry is set when
    ``forms[i]`` is tight on that ray. Raises CapExceeded, read at call
    time, before a step would hold more than MAX_DD_RAYS rays.
    """
    lineality: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IntVec, int]] = []  # (vector, zero-set bitmask)
    for idx, a in enumerate(forms):
        bit = 1 << idx
        value = _evaluator(a, dim)
        lin_vals = [value(l) for l in lineality]
        pivot = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if pivot is not None:
            v = lineality[pivot]
            av = lin_vals[pivot]
            if av < 0:
                v, av = tuple(-x for x in v), -av
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                al = lin_vals[i]
                if al == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(primitive(tuple(av * x - al * y for x, y in zip(l, v))))
            lineality = new_lin
            new_rays = []
            for r, zs in rays:
                ar = value(r)
                if ar != 0:
                    r = primitive(tuple(av * x - ar * y for x, y in zip(r, v)))
                new_rays.append((r, zs | bit))
            # The pivot vector becomes the single ray off the new hyperplane.
            if len(new_rays) == MAX_DD_RAYS:
                raise CapExceeded(f"more than {MAX_DD_RAYS} rays in double description")
            new_rays.append((primitive(v), bit - 1))
            rays = new_rays
            continue
        vals = [value(r) for r, _ in rays]
        if min(vals, default=0) >= 0:
            rays = [(r, zs | bit if val == 0 else zs) for (r, zs), val in zip(rays, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        kept = [rays[i] for i in pos] + [(rays[i][0], rays[i][1] | bit) for i in zero]
        # Adjacent rays share at least dim - l - 2 tight forms, the rank of
        # those of their 2-face (Fukuda-Prodon, 1996).
        tight = dim - len(lineality) - 2
        for p in pos:
            rp, zp = rays[p]
            for n in neg:
                rn, zn = rays[n]
                common = zp & zn
                if common.bit_count() < tight:
                    continue
                adjacent = True
                for o, (_, zo) in enumerate(rays):
                    if o != p and o != n and (zo & common) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                if len(kept) == MAX_DD_RAYS:
                    raise CapExceeded(f"more than {MAX_DD_RAYS} rays in double description")
                w = primitive(tuple(vals[p] * x - vals[n] * y for x, y in zip(rn, rp)))
                kept.append((w, common | bit))
        rays = kept
    lin_basis = row_space_basis(list(lineality))
    out = sorted((_reduce_mod_rows(r, lin_basis), zs) for r, zs in rays)
    return [r for r, _ in out], lin_basis, [zs for _, zs in out]


def _triangular_vrep(
    dim: int, forms: list[IntVec]
) -> tuple[list[IntVec], list[IntVec], list[int]] | None:
    """The output of `dd_vrep`, with no DD, when the last nonzero coordinate
    of every form is 1 and no two forms end at the same coordinate; None
    for any other form list.

    Stack the forms with the unit forms x_c of the coordinates c where no
    form ends, and put each row at the coordinate where it ends. The square
    matrix M so made is unit lower triangular, so the forms are independent,
    and M^-1 is an integer matrix found by substitution, one coordinate at
    a time from the first: row e of M^-1 is the unit row e less f_i times
    row i of M^-1 for each earlier coordinate i of the form f ending at e.
    Column c of M^-1 lies in ker F where c is a unit row, and column e is
    the r_j with F r_j = e_j where form j ends at e. So C = {x : F x >= 0}
    is ker F plus the simplicial cone on the r_j; ray j is tight on every
    form but j. Both sides come back canonical as `dd_vrep` makes them.
    """
    ends: dict[int, int] = {}
    for j, f in enumerate(forms):
        support = list(compress(range(dim), f))
        if len(f) != dim or not support or f[support[-1]] != 1 or support[-1] in ends:
            return None
        ends[support[-1]] = j
    inverse: list[list[int]] = []
    for c in range(dim):
        row = [0] * dim
        row[c] = 1
        if c in ends:
            f = forms[ends[c]]
            for i in compress(range(c), f):
                a = f[i]
                row = [x - a * y for x, y in zip(row, inverse[i])]
        inverse.append(row)
    columns = list(zip(*inverse))
    lineality = row_space_basis([columns[c] for c in range(dim) if c not in ends])
    every = (1 << len(forms)) - 1
    out = sorted((_reduce_mod_rows(columns[e], lineality), every ^ 1 << j)
                 for e, j in ends.items())
    return [r for r, _ in out], lineality, [zs for _, zs in out]


def _both_sides(dim: int, forms: list[IntVec]):
    """V-representations of C = {x : f . x >= 0 for f in forms} and of its
    dual, the cone generated by `forms`, from one `_triangular_vrep` or,
    when the forms do not have its shape, one DD.

    The dual is read off the zero sets of the rays of C. The forms tight on
    every ray vanish on all of C: they are the implicit equalities, and
    their row space is the lineality of the dual. Every other form cuts out
    the proper face of C spanned by the lineality and the rays it is tight
    on. A face of a cone that is pointed modulo its lineality is determined
    by its rays, and a facet is a maximal proper face, each cut out by one
    of the forms; so the facets are the distinct inclusion-maximal ray
    sets. Two forms of one facet agree modulo the implicit equalities up to
    a positive factor, so one form per facet, reduced modulo them, is a ray
    of the dual.
    """
    rays, lineality, zero_sets = _triangular_vrep(dim, forms) or dd_vrep(dim, forms)
    # Transpose through one bit string per ray: rays_of[j] has one bit per
    # ray, set where forms[j] is tight on it.
    width = len(forms)
    rows = [format(zs, "b").zfill(width)[::-1] for zs in zero_sets]
    rays_of = [int("".join(col), 2) for col in zip(*rows)] if rows else [0] * width
    every = (1 << len(rays)) - 1
    basis = row_space_basis([f for f, s in zip(forms, rays_of) if s == every])
    face_form: dict[int, IntVec] = {}
    for f, s in zip(forms, rays_of):
        if s != every:
            face_form.setdefault(s, f)
    facets: list[int] = []
    for s in sorted(face_form, key=int.bit_count, reverse=True):
        if all(s & t != s for t in facets):
            facets.append(s)
    dual_rays = sorted({_reduce_mod_rows(face_form[s], basis) for s in facets})
    return (rays, lineality), (dual_rays, basis)


class ConeProfile(Record, namedtuple("ConeProfile", (
        "dimension lineality_dim ray_count facet_count is_simplicial_mod_lineality"))):
    __slots__ = ()


def _normalized(dim: int, forms) -> tuple[IntVec, ...]:
    """The distinct nonzero forms, each made primitive, sorted."""
    out = set()
    for f in forms:
        if len(f) != dim:
            raise DimensionMismatch(f"form {f} does not have length {dim}")
        f = normalize_form(f, allow_zero=True)
        if any(f):
            out.add(f)
    return tuple(sorted(out))


class RationalCone:
    """The cone {x : f . x >= 0 for f in `_ineqs`}; one `_both_sides` fills
    in `_vrep` and `_dualrep` on demand. The cone generated by G is the
    `dualrep()` of ``from_inequalities(dim, G)``."""

    __slots__ = ("dim", "_ineqs", "_vrep", "_dualrep")

    def __init__(self, dim: int, _ineqs):
        if dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.dim = dim
        self._ineqs = _ineqs
        self._vrep = self._dualrep = None

    @classmethod
    def from_inequalities(cls, dim: int, forms) -> "RationalCone":
        return cls(dim, _normalized(dim, forms))

    # -- representations ---------------------------------------------------

    def vrep(self) -> tuple[list[IntVec], list[IntVec]]:
        if self._vrep is None:
            self._vrep, self._dualrep = _both_sides(self.dim, list(self._ineqs))
        return self._vrep

    def dualrep(self) -> tuple[list[IntVec], list[IntVec]]:
        """V-representation of the dual cone: (facet normals, span-complement)."""
        self.vrep()
        return self._dualrep

    @property
    def rays(self) -> tuple[IntVec, ...]:
        return tuple(self.vrep()[0])

    @property
    def lineality(self) -> tuple[IntVec, ...]:
        return tuple(self.vrep()[1])

    @property
    def facets(self) -> tuple[IntVec, ...]:
        return tuple(self.dualrep()[0])

    @property
    def inequalities(self) -> tuple[IntVec, ...]:
        """The given forms."""
        return self._ineqs

    # -- structure ---------------------------------------------------------

    def analyze(self) -> ConeProfile:
        rays, lin = self.vrep()
        facets, span_perp = self.dualrep()
        dimension = self.dim - len(span_perp)
        return ConeProfile(
            dimension=dimension,
            lineality_dim=len(lin),
            ray_count=len(rays),
            facet_count=len(facets),
            is_simplicial_mod_lineality=(len(rays) == dimension - len(lin)),
        )

    # -- point and cone queries ---------------------------------------------

    def _first_negative(self, other: "RationalCone"):
        """((g, f), k): the first form f of this cone negative on a generator
        g of `other` (None if there is none), and the count k of forms skipped.

        The forms tested are `inequalities`, less the k that `other` was
        given (they hold there by definition); if none is left, neither cone
        expands. They are tested on `other`'s rays and lines as packed sums
        in the guard-bit idiom of `quiverrep.bounded_multisets`: column i
        packs coordinate i of every generator, one field each, at a width
        one bit past the bit length of M = (max sum |f_i|) * (max |g_j|).
        With `half` holding 2**(width-1) in every field, field j of
        ``half + sum f_i col_i`` is 2**(width-1) + f . g_j, which lies in
        [1, 2**width) since |f . g_j| <= M < 2**(width-1). So the sum is
        exact with no carry between fields, and the top bit of field j is
        set exactly when f . g_j >= 0. For the first form that fails, g is
        the first `with_lines` generator with f . g < 0 by plain `dot`, or
        the two sums disagree (VerificationFailure).
        """
        if other.dim != self.dim:
            raise DimensionMismatch("cones live in different spaces")
        given = set(other._ineqs)
        forms = [f for f in self._ineqs if f not in given]
        skipped = len(self._ineqs) - len(forms)
        if forms:
            gens = with_lines(*other.vrep())
            largest = max((abs(x) for g in gens for x in g), default=0)
            width = (max(sum(map(abs, f)) for f in forms) * largest).bit_length() + 1
            half = pack([1 << (width - 1)] * len(gens), width)
            cols = [pack(col, width) for col in zip(*gens)]
            for f in forms:
                if half + sum(map(mul, compress(f, f), compress(cols, f))) & half != half:
                    for g in gens:
                        if dot(f, g) < 0:
                            return (g, f), skipped
                    raise VerificationFailure(f"packed and plain sums disagree on {f}")
        return None, skipped

    def missing_generator(self, other: "RationalCone"):
        """(g, f): a ray or line (either way) g of `other` and a given form f
        of this cone with f . g < 0; None when this cone contains `other`."""
        return self._first_negative(other)[0]

    def contains(self, other: "RationalCone") -> bool:
        """Whether `other` lies inside this cone: `_first_negative` finds no
        form of this cone negative on a generator of `other`.

        When every form of `other` is among this cone's, this cone lies
        inside `other`, so a passing test makes the two cones one set. This
        cone then keeps `other`'s V-sides wherever it has none of its own:
        both are canonical (sorted primitive rays reduced modulo the RREF
        lineality, facets reduced modulo the span equations), so they are
        what its own expansion would give.
        """
        found, skipped = self._first_negative(other)
        # Both form lists are distinct, so every form of `other` was skipped
        # exactly when the skipped count is its length. A cone expands both
        # sides at once, so `_vrep` None means it has neither.
        if found is None and self._vrep is None and skipped == len(other._ineqs):
            self._vrep, self._dualrep = other._vrep, other._dualrep
        return found is None

    def interior_point(self) -> IntVec:
        """A point in the relative interior (strict on every facet)."""
        rays, lin = self.vrep()
        if not rays:
            if not lin:
                raise ZeroCone("the zero cone has no interior point")
            return tuple(0 for _ in range(self.dim))
        return tuple(sum(col) for col in zip(*rays))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        rays, lin = self.vrep()
        return {
            "dim": self.dim,
            "ineqs": [list(f) for f in self.inequalities],
            "rays": [list(r) for r in rays],
            "lineality": [list(l) for l in lin],
        }

    def __repr__(self) -> str:
        state = f"{len(self._ineqs)} ineqs"
        if self._vrep is not None:
            state += f"; {len(self._vrep[0])} rays, lin {len(self._vrep[1])}"
        return f"RationalCone(dim={self.dim}, {state})"
