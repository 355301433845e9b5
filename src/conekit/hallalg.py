"""Finite-field Hall algebra oracle for equioriented type A quivers.

Structure constants come from one cached pass per ordered pair (V, W), the
only cache they pass through: the extension classes of V by W are read once
per prime field, which gives the support, and each class in it gets one
integer polynomial, fitted by Newton divided differences from its counts
and re-checked at one held-out prime. Each count is Riedtmann's formula

    F^X_{V,W} = |Ext^1(V,W)_X| |Aut X| / (|Aut V| |Aut W| |Hom(V,W)|):

the p^ext extension classes of V by W are enumerated as cocycles modulo
coboundaries, each class's middle term X is classified, and automorphism
orders have a closed form. Modules are multisets of interval supports
[a,b]; arrow maps are the obvious shift blocks, so isomorphism classes can
be read off rank invariants. The test suite keeps a brute-force subspace
counter as an independent oracle for these counts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import index
from types import MappingProxyType

from .quiverrep import RepContext, equioriented_a, euler_form
from .rootsys import VerificationFailure, tight_pairs

Interval = tuple[int, int]
Module = tuple[Interval, ...]  # sorted multiset of intervals

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

MAX_VERTICES = 5
MAX_TOTAL_DIM = 8
MAX_EXT_CLASSES = 50_000  # extension classes enumerated per count, p^ext


class ScaleExceeded(ValueError):
    pass


class InterpolationInconsistent(VerificationFailure):
    pass


class SplitTermSurvived(VerificationFailure):
    pass


class CountInconsistent(VerificationFailure):
    """An exact invariant of a finite-field count failed."""


class LaurentPoly:
    """Integer Laurent polynomial in one variable q."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {e: v for e, v in dict(coeffs or {}).items() if v}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def integer(cls, v: int) -> "LaurentPoly":
        return cls({0: v})

    @classmethod
    def q_power(cls, e: int) -> "LaurentPoly":
        return cls({e: 1})

    def is_zero(self) -> bool:
        return not self.c

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self.c.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def subst_square(self) -> "LaurentPoly":
        """q -> q^2."""
        return LaurentPoly({2 * e: v for e, v in self.c.items()})

    def to_dict(self) -> dict:
        return {str(e): v for e, v in sorted(self.c.items())}

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for e, v in sorted(self.c.items(), reverse=True):
            mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if e != 0 and abs(v) == 1:
                bits.append(("-" if v < 0 else "") + mono)
            elif e == 0:
                bits.append(str(v))
            else:
                bits.append(f"{v}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


# -- modules as interval multisets ------------------------------------------


def normalize_module(intervals) -> Module:
    out = []
    for a, b in intervals:
        a, b = index(a), index(b)
        if a > b or a < 1:
            raise ValueError(f"bad interval [{a},{b}]")
        out.append((a, b))
    return tuple(sorted(out))


def parse_module(text: str) -> Module:
    """Grammar: comma list of 'a-b' or 'a-b^mult', e.g. '2-3,3-3' or '1-1^2'."""
    intervals = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        body, caret, mult = piece.partition("^")
        a, sep, b = body.partition("-")
        if not sep:
            raise ValueError(f"interval {piece!r} is not of the form a-b")
        if caret and not (mult.isdecimal() and int(mult) > 0):
            raise ValueError(f"multiplicity in {piece!r} is not a positive integer")
        intervals.extend([(int(a), int(b))] * (int(mult) if caret else 1))
    return normalize_module(intervals)


def format_module(m: Module) -> str:
    return ",".join(f"{a}-{b}" for a, b in m)


def dim_vector(n: int, m: Module) -> tuple[int, ...]:
    out = [0] * n
    for a, b in m:
        if b > n:
            raise ValueError(f"interval [{a},{b}] exceeds vertex count {n}")
        for v in range(a, b + 1):
            out[v - 1] += 1
    return tuple(out)


def total_dim(m: Module) -> int:
    return sum(b - a + 1 for a, b in m)


def hom_intervals(m: Interval, n: Interval) -> int:
    """dim Hom(M[a,b], M[c,d]) for the arrows a -> a+1 orientation."""
    (a, b), (c, d) = m, n
    return 1 if c <= a <= d <= b else 0


def hom_dim(m: Module, n: Module) -> int:
    return sum(hom_intervals(i, j) for i in m for j in n)


def ext_dim(n: int, m: Module, w: Module) -> int:
    return hom_dim(m, w) - euler_form(
        equioriented_a(n), dim_vector(n, m), dim_vector(n, w)
    )


def _check_scale(n: int, m: Module):
    if n > MAX_VERTICES:
        raise ScaleExceeded(f"{n} vertices exceeds the supported {MAX_VERTICES}")
    if total_dim(m) > MAX_TOTAL_DIM:
        raise ScaleExceeded(
            f"total dimension {total_dim(m)} exceeds the supported {MAX_TOTAL_DIM}"
        )


def _check_pair(n: int, v: Module, w: Module):
    """Dimension vectors of V and W, checked against n and then the scale."""
    dims = dim_vector(n, v), dim_vector(n, w)
    _check_scale(n, v + w)
    return dims


def _check_ext_classes(ext: int, primes):
    """Reject the first prime p with p^ext classes past MAX_EXT_CLASSES."""
    for p in primes:
        if p**ext > MAX_EXT_CLASSES:
            raise ScaleExceeded(
                f"{p}^{ext} extension classes exceed the supported {MAX_EXT_CLASSES}"
            )


# -- linear algebra over a prime field ---------------------------------------


def _pivot_columns(rows, p: int) -> list[int]:
    """Pivot columns of the reduced row echelon form of `rows` over F_p."""
    mat = [list(r) for r in rows]
    pivots = []
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [x * inv % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots


def _rank_mod(rows, p: int) -> int:
    return len(_pivot_columns(rows, p))


def _mat_mul(a, b, p: int, bcols: int):
    """a . b with b of explicit column count (b may have zero rows)."""
    if not a:
        return ()
    if not b or bcols == 0:
        return tuple((0,) * bcols for _ in a)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b))
        for row in a
    )


# -- representations and counting --------------------------------------------


def _arrow_matrices(n: int, x: Module, p: int):
    """Row-vector convention: the map at vertex v is r -> r . A_v."""
    dims = dim_vector(n, x)
    index = [[] for _ in range(n + 1)]  # 1-based vertex -> basis slots
    for idx, (a, b) in enumerate(x):
        for v in range(a, b + 1):
            index[v].append(idx)
    mats = []
    for v in range(1, n):
        mat = [[0] * dims[v] for _ in range(dims[v - 1])]
        for row, idx in enumerate(index[v]):
            if idx in index[v + 1]:
                mat[row][index[v + 1].index(idx)] = 1 % p
        mats.append(tuple(tuple(r) for r in mat))
    return dims, mats


def _composites(n: int, dims, mats, p: int):
    comp = {}
    for i in range(1, n + 1):
        comp[i, i] = tuple(
            tuple(1 if a == b else 0 for b in range(dims[i - 1]))
            for a in range(dims[i - 1])
        )
        for j in range(i + 1, n + 1):
            comp[i, j] = _mat_mul(comp[i, j - 1], mats[j - 2], p, dims[j - 1])
    return comp


def _multiplicities_from_ranks(n: int, r) -> dict[Interval, int]:
    def get(i, j):
        if i < 1 or j > n or i > j:
            return 0
        return r[i, j]

    out = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            m = get(a, b) - get(a, b + 1) - get(a - 1, b) + get(a - 1, b + 1)
            if m:
                out[a, b] = m
    return out


def module_multiplicities(m: Module) -> dict[Interval, int]:
    out: dict[Interval, int] = {}
    for iv in m:
        out[iv] = out.get(iv, 0) + 1
    return out


def _aut_order(m: Module, p: int) -> int:
    """|Aut M| over F_p: p^{[M,M] - sum m_i^2} * prod |GL_{m_i}(F_p)|.

    End(M) modulo its radical is the product of the matrix rings M_{m_i}(F_p)
    over the indecomposable summands, since each has endomorphism ring F_p.
    """
    mults = module_multiplicities(m).values()
    order = p ** (hom_dim(m, m) - sum(k * k for k in mults))
    for k in mults:
        for i in range(k):
            order *= p**k - p**i
    return order


def _extension_classes(n: int, v: Module, w: Module, p: int) -> dict[Module, int]:
    """Histogram X -> |Ext^1(V,W)_X| of the extensions 0 -> W -> X -> V -> 0.

    A cocycle is a family of maps eta_i: V_i -> W_{i+1}, one per arrow; the
    middle term has X_i = W_i + V_i and arrow maps [[W_a, 0], [eta_i, V_a]].
    Changing the splitting by f_i: V_i -> W_i adds the coboundary
    f_i.W_a - V_a.f_{i+1}. The non-pivot coordinates of the coboundary
    space's echelon form span a complement, so each class has exactly one
    cocycle supported there; each one is classified by rank invariants.
    """
    ext = ext_dim(n, v, w)
    _check_ext_classes(ext, (p,))
    dv, v_mats = _arrow_matrices(n, v, p)
    dw, w_mats = _arrow_matrices(n, w, p)
    offsets = [0]
    for i in range(n - 1):
        offsets.append(offsets[-1] + dv[i] * dw[i + 1])
    size = offsets[-1]
    coboundaries = []
    for i in range(n):
        for r in range(dv[i]):
            for s in range(dw[i]):
                # the coboundary of the elementary map E_rs: V_i -> W_i
                row = [0] * size
                if i < n - 1:
                    for c, val in enumerate(w_mats[i][s]):
                        row[offsets[i] + r * dw[i + 1] + c] += val
                if i > 0:
                    for t in range(dv[i - 1]):
                        row[offsets[i - 1] + t * dw[i] + s] -= v_mats[i - 1][t][r]
                coboundaries.append(row)
    pivots = set(_pivot_columns(coboundaries, p))
    free = [c for c in range(size) if c not in pivots]
    if len(free) != ext:
        raise CountInconsistent(
            f"Ext^1({format_module(v)},{format_module(w)}) over F_{p} has a "
            f"{len(free)}-dimensional complement, expected {ext}"
        )
    dims = tuple(a + b for a, b in zip(dw, dv))
    histogram: dict[Module, int] = {}
    for values in product(range(p), repeat=ext):
        eta = [0] * size
        for c, val in zip(free, values):
            eta[c] = val
        mats = []
        for i in range(n - 1):
            width = dw[i + 1]
            base = offsets[i]
            mats.append(
                tuple(row + (0,) * dv[i + 1] for row in w_mats[i])
                + tuple(
                    tuple(eta[base + s * width: base + (s + 1) * width]) + row
                    for s, row in enumerate(v_mats[i])
                )
            )
        comp = _composites(n, dims, mats, p)
        ranks = {key: _rank_mod(mat, p) for key, mat in comp.items()}
        x = tuple(
            iv
            for iv, k in sorted(_multiplicities_from_ranks(n, ranks).items())
            for _ in range(k)
        )
        histogram[x] = histogram.get(x, 0) + 1
    return histogram


def _riedtmann(x: Module, v: Module, w: Module, p: int, classes: int) -> int:
    """F^X_{V,W} over F_p from the number of extension classes with middle
    term X: |Ext^1(V,W)_X| |Aut X| / (|Aut V| |Aut W| |Hom(V,W)|)."""
    count, rest = divmod(
        classes * _aut_order(x, p),
        _aut_order(v, p) * _aut_order(w, p) * p ** hom_dim(v, w),
    )
    if rest:
        raise CountInconsistent(
            f"F^{format_module(x)}_{{{format_module(v)},{format_module(w)}}} "
            f"over F_{p}: Riedtmann's quotient is not an integer"
        )
    return count


@lru_cache(maxsize=None)
def count_submodules(n: int, x: Module, w: Module, v: Module, p: int) -> int:
    """Submodules of X isomorphic to W with quotient isomorphic to V, over F_p."""
    return _riedtmann(x, v, w, p, _extension_classes(n, v, w, p).get(x, 0))


@lru_cache(maxsize=None)
def _hall_polynomials(n: int, v: Module, w: Module) -> MappingProxyType:
    """X -> H^X_{V,W} for every X that is the middle term of an extension of V
    by W, read off the extension classes. Each polynomial is fitted at
    interpolation-many primes, checked against the degree bound and
    re-checked at a held-out prime; a failure of either means the degree
    bound argument failed and is raised, never papered over.
    """
    dv, dw = _check_pair(n, v, w)
    # deg H <= sum_i dim V_i dim W_i, the dimension of the Grassmannians of W
    # in X; the fit takes two primes past that bound and holds out one more
    degree = sum(a * b for a, b in zip(dv, dw))
    needed = degree + 3
    if needed > len(PRIMES):
        raise ScaleExceeded("degree bound outruns the prime table")
    primes, held_out = PRIMES[:needed], PRIMES[needed - 1]
    # every histogram enumerates p^ext classes, so refuse before the first one
    _check_ext_classes(ext_dim(n, v, w), primes)
    histograms = [_extension_classes(n, v, w, p) for p in primes]
    table = {}
    for x in sorted(set().union(*histograms)):
        counts = [_riedtmann(x, v, w, p, h.get(x, 0)) for p, h in zip(primes, histograms)]
        poly = table[x] = _newton(primes[:-1], counts[:-1])
        if max(poly.c, default=0) > degree:
            raise InterpolationInconsistent(
                f"H^{format_module(x)}_{{{format_module(v)},{format_module(w)}}}: "
                f"fit has degree {max(poly.c)}, above the bound {degree}"
            )
        predicted = sum(c * held_out**e for e, c in poly.c.items())
        if predicted != counts[-1]:
            raise InterpolationInconsistent(
                f"H^{format_module(x)}_{{{format_module(v)},{format_module(w)}}}: "
                f"fit predicts {predicted} at p={held_out}, count is {counts[-1]}"
            )
    return MappingProxyType(table)  # cached, so shared read-only


def hall_polynomial(n: int, v: Module, w: Module, x: Module) -> LaurentPoly:
    """The counting polynomial H^X_{V,W}: submodules W with quotient V."""
    v, w, x = map(normalize_module, (v, w, x))
    _check_scale(n, x)
    dx = dim_vector(n, x)
    if tuple(a + b for a, b in zip(dim_vector(n, v), dim_vector(n, w))) != dx:
        return LaurentPoly.zero()
    return _hall_polynomials(n, v, w).get(x, LaurentPoly.zero())


def _newton(xs, ys) -> LaurentPoly:
    """The polynomial of degree < len(xs) through the integer points (x, y),
    from Newton divided differences in integers. A remainder raises exactly
    when the rational fit has a non-integer coefficient; otherwise both fits
    are the same polynomial:
    - divided differences of an integer polynomial at integer nodes are
      integers (for q^k, complete homogeneous symmetric polynomials);
    - the Newton basis prod_{j<i} (q - x_j) has integer coefficients.
    """
    diffs = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i], rest = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - k])
            if rest:
                raise InterpolationInconsistent("non-integer interpolated coefficient")
    poly = [0]  # coefficients, constant term first
    for x, d in zip(reversed(xs), reversed(diffs)):
        # Horner on the Newton form: poly <- poly * (q - x) + d
        poly = [a - x * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += d
    return LaurentPoly(dict(enumerate(poly)))


# -- the twisted product and commutators -------------------------------------


class HallElement:
    """Finite Z[q,q^-1]-combination of module classes."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[Module, LaurentPoly] = {}
        for mod, poly in (terms or {}).items():
            if not poly.is_zero():
                self.terms[mod] = poly

    @classmethod
    def basis(cls, n: int, m: Module) -> "HallElement":
        return cls(n, {m: LaurentPoly.one()})

    def __add__(self, other: "HallElement") -> "HallElement":
        out = dict(self.terms)
        for mod, poly in other.terms.items():
            out[mod] = out.get(mod, LaurentPoly.zero()) + poly
        return HallElement(self.n, out)

    def __sub__(self, other: "HallElement") -> "HallElement":
        return self + other.scaled(LaurentPoly.integer(-1))

    def scaled(self, poly: LaurentPoly) -> "HallElement":
        return HallElement(self.n, {m: p * poly for m, p in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HallElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def support(self) -> list[Module]:
        return sorted(self.terms)

    def to_dict(self) -> dict:
        return {
            format_module(m): poly.to_dict()
            for m, poly in sorted(self.terms.items())
        }

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({poly})*F[{format_module(m)}]"
            for m, poly in sorted(self.terms.items())
        )


def hall_product(n: int, m1: Module, m2: Module) -> HallElement:
    """F_{M1} . F_{M2} in the twisted Hall algebra: the class X has coefficient
    q^{[M1,M1] + [M2,M2] + <M1,M2> - [X,X]} H^X_{M1,M2}(q^2)."""
    m1, m2 = normalize_module(m1), normalize_module(m2)
    table = _hall_polynomials(n, m1, m2)
    base_exp = hom_dim(m1, m1) + hom_dim(m2, m2) + euler_form(
        equioriented_a(n), dim_vector(n, m1), dim_vector(n, m2)
    )
    return HallElement(n, {
        x: LaurentPoly.q_power(base_exp - hom_dim(x, x)) * h.subst_square()
        for x, h in table.items()
    })


def q_commutator(n: int, v: Interval, u: Interval) -> HallElement:
    """[F_V, F_U]_q = F_V F_U - q^{[U,V]-[V,U]^1} F_U F_V for directed U, V.

    Directed means Hom(V,U) = 0 and Ext1(U,V) = 0; any other pair is
    rejected with ValueError. The split class U+V must cancel exactly; if it
    survives, the exponent convention has been violated and the computation
    aborts.
    """
    vm: Module = (tuple(v),)
    um: Module = (tuple(u),)
    _check_pair(n, vm, um)
    if hom_dim(vm, um) != 0:
        raise ValueError(
            f"Hom({format_module(vm)},{format_module(um)}) != 0: wrong order"
        )
    if ext_dim(n, um, vm) != 0:
        raise ValueError(
            f"Ext^1({format_module(um)},{format_module(vm)}) != 0: wrong order"
        )
    exponent = hom_dim(um, vm) - ext_dim(n, vm, um)
    left = hall_product(n, vm, um)
    right = hall_product(n, um, vm).scaled(LaurentPoly.q_power(exponent))
    result = left - right
    split = normalize_module((tuple(v), tuple(u)))
    if split in result.terms:
        raise SplitTermSurvived(
            f"split class {format_module(split)} survives with {result.terms[split]}"
        )
    return result


# -- bridge to word contexts -------------------------------------------------


def interval_of_root(beta) -> Interval:
    """The support [a,b] of an interval root; rejects non-contiguous vectors."""
    ones = [i + 1 for i, x in enumerate(beta) if x == 1]
    if not ones or any(x not in (0, 1) for x in beta):
        raise ValueError(f"{beta} is not an interval root")
    a, b = ones[0], ones[-1]
    if ones != list(range(a, b + 1)):
        raise ValueError(f"{beta} is not an interval root")
    return a, b


def module_from_positions(ctx, mult) -> Module:
    """Interval multiset of a position-multiplicity vector of a RepContext."""
    intervals = []
    for pos, m in enumerate(mult, start=1):
        if m:
            intervals.extend([interval_of_root(ctx.betas[pos - 1])] * m)
    return normalize_module(intervals)


def _require_equioriented(quiver):
    if tuple(sorted(quiver.arrows)) != equioriented_a(quiver.n).arrows:
        raise ScaleExceeded(
            "the finite-field oracle only supports the equioriented A quiver"
        )


def verify_term_theorem(quiver, word, k: int) -> dict:
    """Check the predicted inner-window monomial appears in the commutator.

    For l = k[1], the commutator [F_{U_l}, F_{U_k}]_q must contain the class
    of the module with multiplicity c_s = -a(i_s, i_k) on each inner position
    s; returns the commutator support and the verdict.
    """
    _require_equioriented(quiver)
    ctx = RepContext(quiver, word)
    if not 1 <= k <= ctx.N:
        raise ValueError(f"position {k} out of range")
    l = dict(tight_pairs(ctx.word)).get(k)
    if l is None:
        raise ValueError(f"position {k} has no later occurrence of its letter")
    n = quiver.n
    cartan = quiver.cartan
    predicted = []
    for s in range(k + 1, l):
        c_s = -cartan.a(ctx.word[s - 1], ctx.word[k - 1])
        predicted.extend([interval_of_root(ctx.betas[s - 1])] * c_s)
    predicted_module = normalize_module(predicted)
    comm = q_commutator(
        n, interval_of_root(ctx.betas[l - 1]), interval_of_root(ctx.betas[k - 1])
    )
    present = predicted_module in comm.terms
    return {
        "pair": [k, l],
        "predicted": format_module(predicted_module),
        "coefficient": comm.terms.get(predicted_module, LaurentPoly.zero()).to_dict(),
        "support": [format_module(m) for m in comm.support()],
        "verified": present,
    }
