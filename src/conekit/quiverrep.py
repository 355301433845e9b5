"""Representation combinatorics of simply-laced Dynkin quivers.

Everything here is matrix-free: a module is a multiplicity vector over the
directed enumeration U_1..U_N of indecomposables attached to an adapted
reduced word. `RepContext` tabulates the Euler form of every ordered pair
of indecomposables in packed rows (`_euler_table`): the row of each root
from `_euler_row`, the one row helper that `euler_form` also dots, times
the roots' packed columns, n multiply-adds per root. By directedness that
one table gives all Hom and Ext dimensions. The AR quiver comes from one
backward pass over the word (`_ar_quiver`): τ^-1 of each position, the
mesh arrows with each mesh's predecessors, and the path order as one int
per position. It is cross-validated against the Euler form; any
disagreement raises ConsistencyFailure rather than guessing.

One capped walk, `_fillings`, enumerates modules: middle-term fillings,
`bounded_multisets`, and the K-theory modules of bounded height. It
walks on packed integers, one guarded bit field per coordinate, some
fields exact and the others upper bounds, and returns beside each result
the remainder it held there. An exact walk drops a
remainder once a nonzero exact field has no later column to lower it. A
`RepContext` packs each root once, its dimension vector and then its Hom
column ([U_z, U_t])_z, at one width sized from θ, the coordinatewise
maximum of the roots (the highest root of each component): oracle
middle terms walk that table with the Hom fields as a budget, and each
result is checked again by `_recheck`: the test of `degenerates_properly`,
against one packed goal per Ext pair at a width sized from the pair.
`oracle_middle_terms` walks one Ext pair per τ-orbit
and carries its terms along the AR translation to the others (Happel's
triangle autoequivalence), re-checking every carried term; `middle_terms`
still walks any single pair. A context keeps the oracle and relaxed terms
it finds, and `relabelled` builds the context of another adapted word of
the quiver that reads them through the roots, re-checked in its own
positions, instead of walking. `hom_leq_strict` and the filter mode compare
Hom dimensions by the same packed sums; the K-theory generators read each
module's packed fields off the walk's remainder, target - remainder. The
K-theory verdicts and witness come from the rays of the dual Hom-functional
cone, each with its height: the AR mesh vectors, certified in integers as
the basis dual to the Hom functionals, with no DD. The module walk then
goes only as high as the verdict needs, once per quiver and height: every
adapted word of the quiver reads its generators relabelled through the roots.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, compress
from math import gcd, lcm
from operator import add, index, itemgetter, le, mul, sub

from . import rootsys
from .linalg import dot, nullspace_basis, pack, primitive
from .polycone import DimensionMismatch, RationalCone
from .rootsys import (
    CapExceeded,
    CartanMatrix,
    beta_sequence,
    highest_root,
    longest_words,
    num_positive_roots,
)

Word = tuple[int, ...]
Mult = tuple[int, ...]

MAX_MULTISETS = 100_000  # results of one bounded_multisets call

# `RepContext._extension_generators` per (quiver, walked bound), each delta in
# root coordinates: coordinate i is the multiplicity of the i-th root of
# sorted(betas), the same list for every adapted word of the quiver. It holds
# one quiver at a time: a walk for another quiver drops the previous entries.
_EXTENSION_GENERATORS: dict[tuple[DynkinQuiver, int], dict[Mult, int]] = {}


class NotAdapted(ValueError):
    pass


class NotSimplyLaced(ValueError):
    pass


class ConsistencyFailure(rootsys.VerificationFailure):
    """The combinatorial mesh recipe contradicts the Euler form."""


@lru_cache(maxsize=None)
def _edges(cartan: CartanMatrix) -> list[tuple[int, int]]:
    """The pairs i < j joined in the diagram, in order, checked once per
    matrix: NotSimplyLaced names the first off-diagonal entry outside
    {0, -1}."""
    n = cartan.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and cartan.a(i, j) not in (0, -1):
                raise NotSimplyLaced(f"entry a[{i}][{j}] = {cartan.a(i, j)}")
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if cartan.a(i, j)]


class DynkinQuiver(rootsys.Record, namedtuple("DynkinQuiver", "cartan arrows")):
    """An orientation of a simply-laced Dynkin diagram on vertices 1..n;
    the arrows are stored as a tuple of int pairs (a float raises
    TypeError)."""

    __slots__ = ()

    def __new__(cls, cartan: CartanMatrix, arrows):
        arrows = tuple((index(s), index(t)) for s, t in arrows)
        edges = _edges(cartan)
        # one arrow per edge of the diagram, else the first fault by name
        if sorted((s, t) if s < t else (t, s) for s, t in arrows) != edges:
            n = cartan.rank
            counts = dict.fromkeys(edges, 0)
            for s, t in arrows:
                if s == t or not (1 <= s <= n and 1 <= t <= n):
                    raise ValueError(f"bad arrow {s}>{t}")
                key = (min(s, t), max(s, t))
                counts[key] = counts.get(key, 0) + 1
            i, j = min(key for key, count in counts.items() if count != (key in edges))
            raise ValueError(f"arrow count between {i} and {j} does not match the diagram")
        return super().__new__(cls, cartan, arrows)

    @property
    def n(self) -> int:
        return self.cartan.rank

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(
            j for j in range(1, self.n + 1) if j != v and self.cartan.a(v, j) < 0
        )

    def reflected(self, v: int) -> "DynkinQuiver":
        """Reverse every arrow incident to v."""
        flipped = tuple(
            (t, s) if v in (s, t) else (s, t) for s, t in self.arrows
        )
        return DynkinQuiver(self.cartan, flipped)

    def sinks(self) -> tuple[int, ...]:
        sources = {s for s, _ in self.arrows}
        return tuple(v for v in range(1, self.n + 1) if v not in sources)

    def __str__(self) -> str:
        return ",".join(f"{s}>{t}" for s, t in self.arrows)


def quiver_from_arrows(n: int, arrows) -> DynkinQuiver:
    """Build a quiver on 1..n; the Cartan matrix is read off the graph."""
    arrows = tuple((index(s), index(t)) for s, t in arrows)
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in arrows:
        if not (1 <= s <= n and 1 <= t <= n) or s == t:
            raise ValueError(f"bad arrow {s}>{t}")
        entries[s - 1][t - 1] -= 1
        entries[t - 1][s - 1] -= 1
    return DynkinQuiver(CartanMatrix(entries), arrows)


def parse_quiver(text: str) -> DynkinQuiver:
    """Parse the arrow-list grammar, e.g. '1>2,2>3'.

    >>> parse_quiver('1>2,2>3').sinks()
    (3,)
    """
    arrows = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        left, sep, right = piece.partition(">")
        if not sep:
            raise ValueError(f"arrow {piece!r} is not of the form i>j")
        arrows.append((int(left), int(right)))
    if not arrows:
        raise ValueError("empty quiver")
    n = max(max(s, t) for s, t in arrows)
    return quiver_from_arrows(n, arrows)


@lru_cache(maxsize=None)
def equioriented_a(n: int) -> DynkinQuiver:
    return quiver_from_arrows(n, [(i, i + 1) for i in range(1, n)])


def all_orientations(cartan: CartanMatrix) -> list[DynkinQuiver]:
    """Every orientation of the (simply-laced) diagram, in a fixed order;
    CapExceeded, before building any, past ``rootsys.MAX_WORDS`` of them."""
    edges = _edges(cartan)
    if 1 << len(edges) > rootsys.MAX_WORDS:
        raise CapExceeded(f"more than {rootsys.MAX_WORDS} orientations")
    out = []
    for mask in range(1 << len(edges)):
        arrows = [
            (j, i) if mask >> e & 1 else (i, j) for e, (i, j) in enumerate(edges)
        ]
        out.append(DynkinQuiver(cartan, tuple(arrows)))
    return out


def _sink_walk(quiver: DynkinQuiver):
    """Each vertex's count of outgoing arrows (index 0 unused), and the step
    that reflects them at a sink v: v gains one outgoing arrow per
    neighbour, and each neighbour loses one."""
    out = [0] * (quiver.n + 1)
    ends: list[list[int]] = [[] for _ in out]
    for s, t in quiver.arrows:
        out[s] += 1
        ends[s].append(t)
        ends[t].append(s)

    def reflect(out, v):
        out = list(out)
        out[v] = len(ends[v])
        for u in ends[v]:
            out[u] -= 1
        return out

    return out, reflect


def is_adapted(quiver: DynkinQuiver, word) -> bool:
    """True when each letter is a sink of the successively reflected quiver,
    from the arrow counts of `_sink_walk`."""
    out, reflect = _sink_walk(quiver)
    for letter in word:
        if not 1 <= letter <= quiver.n or out[letter]:
            return False
        out = reflect(out, letter)
    return True


def enumerate_adapted_words(quiver: DynkinQuiver) -> list[Word]:
    """All reduced words of the longest element that are sink sequences.

    The weight walk of `longest_words` carries `_sink_walk`'s arrow counts
    and tries the sinks in increasing order. A full sink sequence need not
    be reduced, so a sink is kept only while it lengthens the word. Raises
    CapExceeded past ``rootsys.MAX_WORDS`` words.
    """
    out, reflect = _sink_walk(quiver)
    return longest_words(
        quiver.cartan, "adapted words", out,
        lambda out: [v for v in range(1, len(out)) if not out[v]], reflect,
    )


def bounded_multisets(target, columns, exact: bool = True) -> list[tuple[int, ...]]:
    """Every n >= 0 with sum_t n_t col_t <= target, or == target when exact.

    Columns must be as long as the target (else DimensionMismatch),
    nonnegative and nonzero (else ValueError); one that does not fit the
    target once gets n_t = 0. Raises CapExceeded past MAX_MULTISETS results.

    >>> bounded_multisets((2, 1), [(1, 0), (0, 1), (1, 1)])
    [(1, 0, 1), (2, 1, 0)]

    The walk (`_fillings`) runs on packed integers: the remainder and each
    column are one ``int`` with a bit field per coordinate, as wide as the
    largest target entry plus a top guard bit. Subtracting a column with
    every guard bit set borrows only inside a field, so a cleared guard bit
    means that coordinate went negative. A column that does not fit is
    passed over without a call. When exact, a remainder is dropped once a
    nonzero field has no later column to lower it. Results come in
    lexicographic order.
    """
    if any(len(col) != len(target) for col in columns):
        raise DimensionMismatch(f"every column must have length {len(target)}")
    if any(not any(col) or min(col) < 0 for col in columns):
        raise ValueError("columns must be nonnegative and nonzero")
    if any(x < 0 for x in target):
        return []
    fits = [t for t, col in enumerate(columns) if all(map(le, col, target))]
    width = max(target, default=0).bit_length() + 1
    fields = pack([(1 << width) - 1] * len(target), width) if exact else 0
    guard = pack([1 << (width - 1)] * len(target), width)
    packed = [pack(columns[t], width) for t in fits]
    return _fillings(pack(target, width), packed, fits, len(columns), width, guard, fields)[0]


def _fillings(target: int, columns: list[int], places, size: int, width: int,
              guard: int, exact_fields: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The packed walk of `bounded_multisets`: column i's coefficient goes to
    position places[i] of a size-long result. Fields in `exact_fields` must
    reach 0, the others are budgets (`RepContext.middle_terms` puts its Hom
    fields there), and every column must be nonzero in some exact field;
    0 means an inexact walk. Each column must fit the target once. Returns
    the results and, beside each, the remainder the walk held there:
    target - sum of n_i columns[i], packed.

    `stuck` is the only prune. A memo of exhausted remainders would never
    hit on the Hom-budget walk: there the remainder carries the Hom vector
    ([U_z, -])_z of the prefix chosen so far, and that table is
    unitriangular in the directed order ([U_t, U_t] = 1, [U_z, U_t] = 0
    for z > t), so no two prefixes leave the same remainder."""
    last = len(columns)
    # stuck[idx] has every bit of each exact field that no column from idx
    # on can lower
    lsb, full = guard >> (width - 1), (1 << width) - 1
    stuck = [exact_fields] * (last + 1)
    for idx in range(last - 1, -1, -1):
        nonzero = ((columns[idx] | guard) - lsb & guard) >> (width - 1)
        stuck[idx] = stuck[idx + 1] & ~(nonzero * full)
    filled = exact_fields or -1  # a remainder is done when these fields are 0
    out: list[tuple[int, ...]] = []
    rests: list[int] = []
    chosen = [0] * size

    def emit(remaining: int):
        if len(out) >= MAX_MULTISETS:
            raise CapExceeded(f"more than {MAX_MULTISETS} modules to enumerate")
        out.append(tuple(chosen))
        rests.append(remaining)

    def walk(idx: int, remaining: int):
        if not remaining & filled:
            emit(remaining)  # every later column would need a coefficient of 0
            return
        while True:
            if idx == last:
                if not exact_fields:
                    emit(remaining)
                return
            if remaining & stuck[idx]:
                return
            col = columns[idx]
            if (remaining | guard) - col & guard == guard:
                break
            idx += 1  # the column does not fit once: its coefficient is 0
        place = places[idx]
        m = 0
        while True:
            chosen[place] = m
            walk(idx + 1, remaining)
            if (remaining | guard) - col & guard != guard:
                break
            remaining -= col
            m += 1
        chosen[place] = 0

    walk(0, target)
    return out, rests


def _euler_row(quiver: DynkinQuiver, d) -> list[int]:
    """(<d, e_v>)_v = d_v - sum of d_s over the arrows s -> v."""
    row = list(d)
    for s, t in quiver.arrows:
        row[t - 1] -= d[s - 1]
    return row


def euler_form(quiver: DynkinQuiver, d, e) -> int:
    """<d, e> = sum d_v e_v - sum over arrows d_src e_tgt: the row
    (<d, e_v>)_v of `_euler_row` dotted with e."""
    n = quiver.n
    if len(d) != n or len(e) != n:
        raise ValueError(f"dimension vectors must have length {n}")
    return dot(_euler_row(quiver, d), e)


def _euler_table(quiver: DynkinQuiver, betas) -> tuple[tuple[int, ...], ...]:
    """<beta_k, beta_l> for every ordered pair, one packed row per k.

    Column v of the roots, (beta_l[v])_l, is packed once, one nb-byte field
    per l. Row k is then half + sum_v a_k[v] col_v for a_k = `_euler_row` of
    beta_k: n multiply-adds, where `half` puts 2^(8 nb - 1) in every field.
    As |<beta_k, beta_l>| <= sum_v |a_k[v]| max_l |beta_l[v]| (theta_v for
    the positive roots), nb is the least of 1, 2, 4, 8 bytes whose signed
    range holds that bound; then every field stays in [0, 2^(8 nb)), and
    xor with `half` leaves each in two's complement, read back by a
    memoryview cast. No such nb raises ConsistencyFailure.
    """
    rows = [_euler_row(quiver, b) for b in betas]
    cols = list(zip(*betas))
    tops = [max(map(abs, col)) for col in cols]
    bound = max((sum(map(mul, map(abs, row), tops)) for row in rows), default=0)
    nb = next((nb for nb in (1, 2, 4, 8) if bound < 1 << 8 * nb - 1), None)
    if nb is None:
        raise ConsistencyFailure(f"Euler form bound {bound} does not fit 8 bytes")
    width, size, fmt = 8 * nb, nb * len(betas), "bhiq"[nb.bit_length() - 1]
    packed = [pack(col, width) for col in cols]
    half = pack([1 << width - 1] * len(betas), width)
    return tuple(
        tuple(memoryview((sum(map(mul, row, packed), half) ^ half).to_bytes(
            size, sys.byteorder)).cast(fmt))
        for row in rows)


class RepContext:
    """Indecomposables, Hom/Ext tables and mesh data for an adapted pair."""

    def __init__(self, quiver: DynkinQuiver, word):
        word = tuple(map(index, word))
        if len(word) != num_positive_roots(quiver.cartan):
            raise NotAdapted(
                f"word has length {len(word)}, expected {num_positive_roots(quiver.cartan)}"
            )
        if not is_adapted(quiver, word):
            raise NotAdapted(f"word {word} is not a sink sequence for {quiver}")
        self.quiver = quiver
        self.word = word
        self.betas = beta_sequence(quiver.cartan, word)
        self.N = len(word)
        self.n = quiver.cartan.rank
        # Euler form of every ordered pair; directedness makes it Hom on and
        # above the diagonal and minus Ext1 below it.
        self._euler = _euler_table(quiver, self.betas)
        self._ar_quiver()
        zeros = (0,) * self.N
        self._units = tuple(zeros[:k] + (1,) + zeros[k + 1:] for k in range(self.N))
        self._validate()
        # Root t as fields: beta_t, then its Hom column ([U_z, U_t])_z. A
        # field of a module M is at most theta . dim M (beta <= theta), so
        # 2 theta . theta sizes every field of an extension of two roots.
        # theta is the coordinatewise maximum of the roots: the highest root
        # on a connected diagram, every component's at once on another.
        self._theta = theta = tuple(map(max, zip(*self.betas)))
        self._caps = tuple(dot(theta, b) for b in self.betas)
        self._fields = [b + col[:t] + zeros[t:] for t, (b, col) in
                        enumerate(zip(self.betas, zip(*self._euler)), start=1)]
        self._packings: dict[int, tuple[int, list[int]]] = {}
        self._width = (2 * dot(theta, theta)).bit_length() + 1
        # the walk's table, and its dimension fields alone for filter/relaxed
        guard, table = self._packing(self._width)
        self._dims = dims = (1 << self._width * self.n) - 1
        self._dims_only = guard & dims, [c & dims for c in table]
        # the kept middle terms per mode, {(k, l): terms} in `ext_pairs`
        # order, and the context and position map `relabelled` reads them from
        self._kept: dict[str, dict[tuple[int, int], list[Mult]]] = {}
        self._source: tuple[RepContext, list[int]] | None = None

    # -- constituents ------------------------------------------------------

    def hom_indec(self, k: int, l: int) -> int:
        """dim Hom(U_k, U_l); zero for k > l by directedness."""
        return self._euler[k - 1][l - 1] if k <= l else 0

    def ext_indec(self, k: int, l: int) -> int:
        """dim Ext1(U_k, U_l); zero for k <= l by directedness."""
        return -self._euler[k - 1][l - 1] if k > l else 0

    def ext_pairs(self) -> list[tuple[int, int]]:
        """Every (k, l) with k < l and Ext1(U_l, U_k) != 0, in order."""
        return [
            (k, l)
            for k in range(1, self.N + 1)
            for l in range(k + 1, self.N + 1)
            if self.ext_indec(l, k)
        ]

    def unit(self, k: int) -> Mult:
        if not 1 <= k <= self.N:
            raise ValueError(f"need 1 <= k <= {self.N}, got {k}")
        return self._units[k - 1]

    # -- mesh structure ----------------------------------------------------

    def _ar_quiver(self) -> None:
        """One backward pass over the word, keeping each letter's next
        position. At k it records τ^-1 k, the next position of k's letter (0
        when U_k is injective); the mesh arrows k -> l to the next position l
        of each neighbour letter, kept per l as that mesh's predecessors; and
        the positions reachable from k as bits of one int, OR-ed from the
        ends of k's arrows, which the backward order has already finished.
        A forward pass over the recorded predecessors then gives the
        positions below each l, the same order read from the other end."""
        neighbors = [()] + [self.quiver.neighbors(v) for v in range(1, self.n + 1)]
        following = [0] * (self.n + 1)  # the next position of each letter
        self._next = inverse = [0] * (self.N + 1)  # τ^-1 k, or 0
        self._preds = preds = [[] for _ in range(self.N + 1)]
        self._reach = reach = {}  # keyed 1..N: another position is a KeyError
        arrows = []
        for k in range(self.N, 0, -1):
            letter = self.word[k - 1]
            inverse[k] = following[letter]
            bits = 1 << k
            for v in neighbors[letter]:
                if l := following[v]:
                    arrows.append((k, l))
                    preds[l].append(k)
                    bits |= reach[l]
            reach[k] = bits
            following[letter] = k
        self._downset = downset = {}  # keyed 1..N, as `_reach`
        for l in range(1, self.N + 1):
            bits = 1 << l
            for p in preds[l]:
                bits |= downset[p]
            downset[l] = bits
        self.arrows = tuple(sorted(arrows))
        self.translation = {l: k for k, l in enumerate(inverse) if l}
        every = range(1, self.N + 1)
        self.projectives = tuple(p for p in every if p not in self.translation)
        self.injectives = tuple(p for p in every if not inverse[p])

    def _validate(self):
        table = self._euler
        # row k is Hom from the diagonal on, column k minus Ext1 below it
        bad = next((k for k, (row, col) in enumerate(zip(table, zip(*table)))
                    if min(row[k:]) < 0 or max(col[k + 1:], default=0) > 0), None)
        if bad is not None:  # name the first failing pair, in that row
            k = bad + 1
            for l in range(k, self.N + 1):
                if self.hom_indec(k, l) < 0:
                    raise ConsistencyFailure(f"negative Hom dimension at ({k},{l}): "
                                             "enumeration not directed")
                if l > k and self.ext_indec(l, k) < 0:
                    raise ConsistencyFailure(f"negative Ext dimension at ({l},{k}): "
                                             "enumeration not directed")
        for k, l in self.arrows:
            if not k < l:
                raise ConsistencyFailure(f"mesh arrow {k}->{l} does not ascend")
            if self.hom_indec(k, l) < 1:
                raise ConsistencyFailure(
                    f"mesh arrow {k}->{l} but Hom(U_{k},U_{l}) = 0"
                )
        for m, k in self.translation.items():
            mesh_sum = [0] * self.n
            for p in self._preds[m]:
                mesh_sum = list(map(add, mesh_sum, self.betas[p - 1]))
            expected = list(map(add, self.betas[k - 1], self.betas[m - 1]))
            if mesh_sum != expected:
                raise ConsistencyFailure(
                    f"mesh ending at {m} sums to {mesh_sum}, expected {expected}"
                )

    def ar_data(self) -> dict:
        """JSON-friendly view of the mesh quiver."""
        return {
            "vertices": list(range(1, self.N + 1)),
            "betas": [list(b) for b in self.betas],
            "arrows": [list(a) for a in self.arrows],
            "translation": sorted([l, k] for l, k in self.translation.items()),
            "projectives": list(self.projectives),
            "injectives": list(self.injectives),
        }

    # -- degeneration ------------------------------------------------------

    def _packing(self, width: int) -> tuple[int, list[int]]:
        """The guard bits and every root's fields packed at `width`, cached."""
        if width not in self._packings:
            guard = pack([1 << (width - 1)] * (self.n + self.N), width)
            self._packings[width] = guard, [pack(f, width) for f in self._fields]
        return self._packings[width]

    def _packed(self, *modules) -> tuple[int, int, list[int]]:
        """Width, guard and each module's packed fields, at a width sized from
        the modules (theta . dim M bounds every field of M)."""
        width = max(dot(m, self._caps) for m in modules).bit_length() + 1
        guard, table = self._packing(width)
        sums = [sum(k * table[t] for t, k in enumerate(m) if k) for m in modules]
        return width, guard, sums

    def _hom_leq(self, xs, y, zs: int) -> list[bool]:
        """For each x of xs: [U_z, x] <= [U_z, y] for every position z whose
        bit is set in zs, strictly for at least one. One width and one mask
        serve every x."""
        width, guard, (hy, *hxs) = self._packed(y, *xs)
        mask = pack([0] * self.n + [zs >> z & 1 for z in range(1, self.N + 1)], width)
        mask *= (1 << width) - 1
        hy, guard = hy & mask, guard & mask
        return [hx != hy and (hy | guard) - hx & guard == guard
                for hx in (hx & mask for hx in hxs)]

    def hom_leq_strict(self, x, y) -> bool:
        """x properly degenerates to y: [Z,x] <= [Z,y] for all indec Z, once strict."""
        return self._hom_leq([x], y, (1 << self.N + 1) - 2)[0]

    def degenerates_properly(self, x, u, v) -> bool:
        """x and u + v have one dimension vector, and hom_leq_strict(x, u + v):
        one packed sum each, whose dimension fields must agree."""
        width, guard, (hx, goal) = self._packed(x, tuple(map(add, u, v)))
        return self._below(hx, goal, width, guard)

    def _below(self, hx: int, goal: int, width: int, guard: int) -> bool:
        """The packed x lies strictly below the packed goal in the Hom order;
        DimensionMismatch unless their dimension fields agree."""
        if (hx ^ goal) & (1 << width * self.n) - 1:
            raise DimensionMismatch("dimension vectors do not add up")
        return hx != goal and (goal | guard) - hx & guard == guard

    # -- middle terms ------------------------------------------------------

    def middle_terms(self, k: int, l: int, mode: str = "oracle") -> list[Mult]:
        """Summand multiplicities of the non-split extensions of U_l by U_k.

        mode 'oracle' walks the open position window against the packed
        fields of U_k + U_l: dimension fields exact, Hom fields a budget
        ([U_z, X] <= [U_z, U_k + U_l], the degeneration order of a directed
        algebra), strict since X is not U_k + U_l. Every result must pass the
        `degenerates_properly` test in `_recheck`, or ConsistencyFailure. 'filter' replaces the
        budget by the combinatorial conditions (path-order window plus the
        Hom comparison against U_l on the translate window); 'relaxed' keeps
        the path-order window only.
        """
        if not (1 <= k < l <= self.N):
            raise ValueError(f"need 1 <= k < l <= {self.N}, got ({k},{l})")
        if mode not in ("oracle", "filter", "relaxed"):
            raise ValueError(f"unknown mode {mode!r}")
        if self.ext_indec(l, k) == 0:
            return []
        width = self._width
        window = range(k, l - 1)
        if mode == "oracle":
            guard, table = self._packing(width)
        else:  # the path-order window, dimension fields only
            between = self._reach[k] & self._downset[l]
            window = [t for t in window if between >> t + 1 & 1]
            guard, table = self._dims_only
        goal = table[k - 1] + table[l - 1]
        window = [t for t in window if (goal | guard) - table[t] & guard == guard]
        columns = [table[t] for t in window]
        out = _fillings(goal, columns, window, self.N, width, guard, self._dims)[0]
        if mode == "filter":
            return self._hom_window_condition(out, k, l)
        if mode == "oracle":
            self._recheck(out, k, l)
        return out

    def _recheck(self, terms, k: int, l: int) -> None:
        """ConsistencyFailure unless each term x of (k, l) passes
        `degenerates_properly(x, U_k, U_l)`; a dimension mismatch there is
        a program fault too.

        The goal U_k + U_l and each term are packed one bit wider than the
        walk, one table for the whole context. A term is packed only once
        x >= 0 and theta . dim x = cap = theta . dim(U_k + U_l), which bound
        every field of x by cap <= 2 theta . theta, so no field carries into
        the next. The table read here is never the list the walk read, but
        one packed afresh from the roots' fields, so a wrong field in the
        walk's table fails here instead of passing twice.
        """
        cap = self._caps[k - 1] + self._caps[l - 1]
        width = self._width + 1
        guard, table = self._packing(width)
        goal = table[k - 1] + table[l - 1]
        caps = self._caps
        for x in terms:
            try:
                if min(x) < 0:
                    kept = False
                elif sum(map(mul, x, caps)) != cap:
                    raise DimensionMismatch("dimension vectors do not add up")
                else:
                    hx = sum(map(mul, compress(table, x), compress(x, x)))
                    kept = self._below(hx, goal, width, guard)
            except DimensionMismatch as exc:
                raise ConsistencyFailure(
                    f"middle term {x} of ({k},{l}) has the wrong dimension vector") from exc
            if not kept:
                raise ConsistencyFailure(
                    f"middle term {x} of ({k},{l}) fails the degeneration test")

    def oracle_middle_terms(self):
        """The kept ((k, l), middle_terms(k, l)) of every pair of `ext_pairs`,
        in that order, found once per context: by walking only the top pair
        of each τ-orbit, or through `relabelled`.

        Why the carry is exact. For a Dynkin quiver Q the AR translation τ is
        a triangle autoequivalence of D^b(kQ) (Happel 1988, "Triangulated
        categories in the representation theory of finite dimensional
        algebras"), and a non-split extension 0 -> U_k -> X -> U_l -> 0 is a
        triangle U_k -> X -> U_l -> U_k[1] with a nonzero third map. Let U_k
        and U_l be non-projective (k and l are keys of `translation`). Then
        τU_k and τU_l are modules, and τ of the triangle is a triangle
        τU_k -> τX -> τU_l -> τU_k[1], again with a nonzero third map. Modules
        are closed under extensions in D^b(kQ), so τX is a module; since τ
        of an indecomposable projective is an injective shifted by [-1], X
        has no projective summand. The same argument runs backwards with
        τ^-1, defined on every τU. So Ext1(U_l, U_k) = Ext1(τU_l, τU_k), and
        X -> τX maps the middle terms of (k, l) one-to-one onto those of
        (τk, τl), summand t going to `translation[t]`.

        Hence the Ext pairs fall into chains (k, l), (τk, τl), ... . A
        chain's top pair has k or l without a τ^-1 (not a value of
        `translation`); the chain ends at the first pair with k or l
        projective. Each top pair is walked by `middle_terms`; the pairs
        below it get the walked terms carried through `translation`, sorted
        into the walk's order. Every carried term is re-checked by `_recheck`,
        the test of `degenerates_properly` (Bongartz 1996, "On degenerations and
        extensions of finite dimensional modules"). A carried pair that is no
        Ext pair, a projective summand to carry, a term off the dimension
        vector or failing the Hom order, or an Ext pair no chain reaches,
        raises ConsistencyFailure.
        """
        if "oracle" not in self._kept:
            self._kept["oracle"] = self._relabel("oracle") if self._source else self._carry()
        return self._kept["oracle"].items()

    def _carry(self) -> dict[tuple[int, int], list[Mult]]:
        """The τ-orbit walk and carry of `oracle_middle_terms`."""
        tau = self.translation
        later = set(tau.values())  # the positions with a τ^-1
        pairs = self.ext_pairs()
        ext = set(pairs)
        found = {}
        for k, l in pairs:
            if k in later and l in later:
                continue  # carried down from (τ^-1 k, τ^-1 l)
            terms = found[k, l] = self.middle_terms(k, l)
            while k in tau and l in tau:
                if (tau[k], tau[l]) not in ext:
                    raise ConsistencyFailure(
                        f"τ({k},{l}) = ({tau[k]},{tau[l]}) is not an Ext pair")
                terms = sorted(self._translate(x, k, l) for x in terms)
                k, l = tau[k], tau[l]
                self._recheck(terms, k, l)
                found[k, l] = terms
        if len(found) != len(pairs):
            raise ConsistencyFailure(
                f"the τ-orbits reach {len(found)} of {len(pairs)} Ext pairs")
        return {p: found[p] for p in pairs}

    def relaxed_middle_terms(self):
        """The kept ((k, l), middle_terms(k, l, 'relaxed')) of every pair of
        `ext_pairs`, in that order, walked once per context or read through
        `relabelled`."""
        if "relaxed" not in self._kept:
            self._kept["relaxed"] = self._relabel("relaxed") if self._source else {
                p: self.middle_terms(*p, mode="relaxed") for p in self.ext_pairs()}
        return self._kept["relaxed"].items()

    def relabelled(self, word) -> RepContext:
        """The context of another adapted word of this quiver, built by the
        constructor, that reads this context's middle terms instead of
        walking its own: each mode's terms, the first time it asks for them.

        A middle term is a module, and an adapted word only names each
        indecomposable U_beta by its position (Gabriel 1972). So position t
        here becomes the position of betas[t] in `word`, and the terms of
        (k, l) become those of the image pair, sorted into the walk's order.
        The new context checks what it reads, in its own positions: the
        image pairs must be exactly its own `ext_pairs` (the adapted words
        of a quiver form one commutation class, Bédard 1999, so comparable
        roots keep their order); every oracle term passes its `_recheck`;
        every relaxed term lies in its path-order window with dimension
        vector beta_k + beta_l. Anything else raises ConsistencyFailure. A
        word that is not adapted to this quiver raises NotAdapted, a
        ValueError, from the constructor.
        """
        other = RepContext(self.quiver, word)
        at = {b: t for t, b in enumerate(self.betas)}
        other._source = self, [at[b] for b in other.betas]
        return other

    def _relabel(self, mode: str) -> dict[tuple[int, int], list[Mult]]:
        """The source's kept terms of `mode` at this context's positions,
        checked as `relabelled` says."""
        source, back = self._source  # back[t]: the source index of root t here
        kept = dict(source.oracle_middle_terms() if mode == "oracle"
                    else source.relaxed_middle_terms())
        pairs = self.ext_pairs()
        image = [(back[k - 1] + 1, back[l - 1] + 1) for k, l in pairs]
        if kept.keys() != set(image):
            raise ConsistencyFailure(
                f"the Ext pairs of {self.word} come from the pairs {sorted(image)} of "
                f"{source.word}, which keeps {mode} terms on {sorted(kept)}")
        check = self._recheck if mode == "oracle" else self._check_relaxed
        move = itemgetter(*back)
        out = {}
        for (k, l), p in zip(pairs, image):
            out[k, l] = sorted(map(move, kept[p]))
            check(out[k, l], k, l)
        return out

    def _check_relaxed(self, terms, k: int, l: int) -> None:
        """ConsistencyFailure unless each term x of (k, l) is >= 0, has its
        support inside the path-order window strictly between k and l, and
        has dimension vector beta_k + beta_l: what the relaxed walk keeps."""
        window = self._reach[k] & self._downset[l] & ~(1 << k | 1 << l)
        goal = list(map(add, self.betas[k - 1], self.betas[l - 1]))
        for x in terms:
            if min(x) < 0 or any(m and not window >> t & 1 for t, m in enumerate(x, start=1)):
                raise ConsistencyFailure(
                    f"relaxed term {x} of ({k},{l}) is not a module in the path-order window")
            if [dot(x, col) for col in zip(*self.betas)] != goal:
                raise ConsistencyFailure(
                    f"relaxed term {x} of ({k},{l}) has the wrong dimension vector")

    def _translate(self, x, k: int, l: int) -> Mult:
        """τ of the middle term x of (k, l), summand by summand."""
        out = [0] * self.N
        for t, m in enumerate(x, start=1):
            if m:
                if t not in self.translation:
                    raise ConsistencyFailure(
                        f"middle term {x} of ({k},{l}) has the projective summand U_{t}")
                out[self.translation[t] - 1] = m
        return tuple(out)

    def _hom_window_condition(self, terms, k: int, l: int) -> list[Mult]:
        # The terms X passing the Hom comparison against U_l over
        # {Z : tau^{-1}U_k <= Z <= U_l}, one window and one mask per pair. The
        # top endpoint is included so the strictness requirement is satisfiable
        # in the almost-split case l = k[1], where the open range is empty;
        # there it holds automatically ([U_l, X] = 0 < [U_l, U_l]).
        k1 = self._next[k]
        if not k1:
            raise ConsistencyFailure(
                f"Ext1(U_{l},U_{k}) != 0 but U_{k} has no later occurrence"
            )
        zs = self._reach[k1] & self._downset[l]
        return list(compress(terms, self._hom_leq(terms, self.unit(l), zs)))

    def superfluous_check(self) -> dict:
        """Compare the relaxed window filter against the degeneration oracle,
        pair by pair, on the kept terms of both.

        A candidate passing the window conditions but failing the oracle is a
        counterexample to the claim that the Hom comparison is redundant; it
        is reported, not raised. The reverse inclusion must always hold.
        """
        pairs = []
        counterexamples = []
        kept = dict(self.oracle_middle_terms())
        for (k, l), relaxed in self.relaxed_middle_terms():
            oracle = kept[k, l]
            missing = [x for x in oracle if x not in relaxed]
            if missing:
                raise ConsistencyFailure(
                    f"oracle term {missing[0]} escapes the window at ({k},{l})"
                )
            extra = [x for x in relaxed if x not in oracle]
            pairs.append(
                {
                    "pair": [k, l],
                    "oracle": [list(x) for x in oracle],
                    "relaxed": [list(x) for x in relaxed],
                    "agree": not extra,
                }
            )
            for x in extra:
                counterexamples.append({"pair": [k, l], "candidate": list(x)})
        return {
            "word": list(self.word),
            "quiver": str(self.quiver),
            "pairs_checked": len(pairs),
            "pairs": pairs,
            "counterexamples": counterexamples,
            "agreement": not counterexamples,
        }

    # -- Grothendieck-group cones ------------------------------------------

    def mesh_vectors(self) -> dict[int, Mult]:
        """r_m = e_m + e_τm - Σ e_p over the mesh arrows p -> m, the class of
        the AR sequence ending at U_m, for each of the N - n non-projective
        m in order.

        [U_l, r_m] = δ_lm for every pair of non-projectives l, m, read from
        `hom_indec` in integers, or ConsistencyFailure: Hom(U_l, -) is exact
        on the AR sequence ending at U_m except at l = m, where it loses one
        dimension (Auslander-Reiten-Smalø 1995, ch. IV-V).
        """
        if len(self.translation) != self.N - self.n:
            raise ConsistencyFailure(
                f"{len(self.translation)} non-projectives, expected {self.N - self.n}")
        terms = {m: [(m, 1), (k, 1)] + [(p, -1) for p in self._preds[m]]
                 for m, k in sorted(self.translation.items())}
        out = {}
        for m, support in terms.items():
            for l in terms:
                got = sum(x * self.hom_indec(l, t) for t, x in support)
                if got != (l == m):
                    raise ConsistencyFailure(
                        f"[U_{l}, r_{m}] = {got}, expected {int(l == m)}: the Hom "
                        f"functionals and the mesh vectors are not dual bases")
            r = [0] * self.N
            for t, x in support:
                r[t - 1] += x
            out[m] = tuple(r)
        return out

    def _extension_generators(self, bound: int) -> dict[Mult, int]:
        """Each y - x of a proper degeneration x < y of modules of height at
        most bound with disjoint supports and gcd(y - x) = 1, mapped to the
        height of y.

        One walk to the bound: `ktheory_cones` asks for b, or for b + 1 only
        when `stabilized` needs E_{b+1}. The walk's columns are the roots as
        `_packing` gives them, dimension fields and then Hom fields, with
        each root's height in a field above them. The target has bound in
        the height field and 2^(w-1) - 1, one below the guard bit, in every
        other. No field of a module of height h <= bound reaches the guard
        bit at the width w chosen here: it is at most theta . dim, so at most
        max(theta) h < 2^(w-1). So only the height field prunes, and the
        remainder `_fillings` returns beside a module m gives its packed
        fields as target - remainder, with no carry between fields.

        Modules are grouped by their dimension fields and kept with their
        packed fields. In a group every module is nonzero, so two of disjoint
        support differ, and their Hom fields differ too (the Hom table is
        unitriangular): the guard-bit test is then strict. Support bits and
        gcd are taken only in groups of two or more. Each unordered pair is
        tested once, in one direction: let t be the last position in the
        union of the two supports. By directedness [U_t, m] = m_t for either
        module, so x <= y forces t into the support of y, which is then the
        larger of the two as an int of support bits; a group sorted by those
        ints puts y after x.

        The result is a fact about the quiver, not the word. Every quantity
        tested is a module invariant: dimension vectors, the Hom vectors
        ([U_z, -])_z over all z, supports, gcds and heights. An adapted word
        only names U_beta by its position (Gabriel 1972), and the adapted
        words of a quiver form one commutation class (Bédard 1999): two
        roots comparable in the AR order are ordered the same way by every
        adapted word, and two incomparable roots have Hom and Ext zero in
        both directions. So every adapted word of the quiver gives the same
        pairs and heights, with its positions relabelled.
        """
        width = (max(self._theta) * bound).bit_length() + 1
        guard, table = self._packing(width)
        top = width * (self.n + self.N)  # the height field sits above the rest
        heights = [sum(b) for b in self.betas]
        fits = [t for t, h in enumerate(heights) if h <= bound]
        target = guard - (guard >> width - 1) | bound << top
        guard |= 1 << top + width - 1
        modules, rests = _fillings(target, [table[t] | heights[t] << top for t in fits],
                                   fits, self.N, width, guard, 0)
        dims = (1 << width * self.n) - 1
        groups: dict[int, list] = {}
        for m, rest in zip(modules, rests):
            packed = target - rest
            groups.setdefault(packed & dims, []).append((packed, m))
        bits = [1 << t for t in range(self.N)]
        out: dict[Mult, int] = {}
        for group in groups.values():
            if len(group) < 2:
                continue
            height = group[0][0] >> top
            group = sorted((sum(compress(bits, m)), gcd(*m), packed, m) for packed, m in group)
            for (sx, cx, hx, x), (sy, cy, hy, y) in combinations(group, 2):
                if (not sx & sy and gcd(cx, cy) == 1
                        and (hy | guard) - hx & guard == guard):
                    out[tuple(map(sub, y, x))] = height
        return out

    def default_ktheory_bound(self) -> int:
        return 2 * sum(highest_root(self.quiver.cartan))

    def ktheory_cones(self, bound: int | None = None) -> dict:
        """Extension cone versus functional cone inside the dimension kernel.

        The kernel K of the multiplicity-to-dimension-vector map has rank
        m = N - n, with coordinates read off free columns. The extension
        cone E_b lives there, generated by the differences y - x of proper
        degenerations x < y (`hom_leq_strict`; for a representation-directed
        algebra the degeneration order is the Hom order, Bongartz 1996) of
        modules of height at most b. It is compared with D^v = {c : d . c >= 0
        for d in D}, where D holds the Hom functionals [U_k, -] of the
        non-projective indecomposables U_k, restricted to K.

        D^v is the simplicial cone on the mesh vectors, with no DD. For a
        non-projective U_m, r_m = e_m + e_τm - Σ_{p->m} e_p is the class of
        the AR sequence ending at U_m (`mesh_vectors`). Its dimension vector
        is 0 by `_validate`'s mesh sums, so r_m lies in K, and
        `mesh_vectors` checks [U_l, r_m] = δ_lm for the non-projectives l in
        integers, or raises ConsistencyFailure. So D.R = I: the m vectors
        r_m are independent in K, which has rank m, hence a basis of it, and
        D restricted to K is the dual basis. A point c of K is then
        Σ_l (d_l . c) r_l, so D^v = {c : D c >= 0} is the cone on the r_m,
        simplicial and pointed, with the r_m as its extreme rays.

        (a) E_b lies in D^v: y - x has [U_z, y - x] >= 0 for every z.
        (b) A nonzero primitive r of K in D^v is itself a generator, from the
            pair (r-, r+) at height ht(r+) = sum dim r+: [P, r] = 0 for a
            projective P, as r has dimension vector 0, so r- < r+ in the Hom
            order, strictly since r != 0 and the Hom table is unitriangular.
        (c) An extreme ray r of D^v lies in E_b iff ht(r+) <= b. By (a), a
            sum of generators on an extreme ray has every term on it, so r
            lies in E_b iff y - x = c r for some c > 0 and a pair of height
            ht(y) <= b. Then x - c r- = y - c r+ >= 0 is a summand common to
            x and y, so ht(y) >= c ht(r+) >= ht(r+); by (b), (r-, r+) is
            such a pair.

        Let B* be the largest ht(r+) over the rays of D^v, where
        ht(r_m+) = ht U_m + ht τU_m (0 when m = 0). By (a) and (c),
        E_b = D^v, the verdict `equal`, exactly when b >= B*; below it the
        witness is the first sorted ray of D^v with ht(r+) > b. `stabilized`
        says that E_{b+1} = E_b: true for b >= B*, where both are D^v; false
        when some ray of D^v has height b + 1, which E_{b+1} holds and E_b
        does not. Otherwise, as E_{b+1} lies in E_b exactly when the dual of
        E_b lies in that of E_{b+1}, the cone cut out by E_b's generators is
        expanded by DD and the generators of height b + 1 are tested on it.
        Below B* it compares these two bounds only: on D4, `1>2,3>2,4>2`
        with the word (2,1,3,4)*3, it reads True at bounds 6 and 7 and False
        at bound 8, and B* = 9.

        By (b), the generators need only the pairs of disjoint support with
        gcd(y - x) = 1; a pair sharing a summand or with a common factor
        gives a multiple of one of those, at a greater height. One walk
        (`_extension_generators`) gives them, only as high as the verdict
        needs: to height b when b >= B* or some ray has height b + 1, where
        the ray heights decide `stabilized`; to b + 1 otherwise, for the
        generators of E_{b+1}.

        That walk runs once per quiver and walked bound: its generators are
        kept in `_EXTENSION_GENERATORS` with coordinate i the multiplicity of
        the i-th root of sorted(betas), and every adapted word of the quiver
        reads them back at its own positions. This is exact because the walk
        tests only module invariants (dimension vectors, the Hom vectors
        ([U_z, -])_z, supports, gcds and heights), and any two adapted words
        order comparable roots alike while incomparable roots have Hom and
        Ext zero both ways; so each word finds the same pairs at the same
        heights, relabelled. The kernel basis, the mesh certificate, the
        kernel check in each coordinate change and `stabilized` stay per
        word. The memo holds one quiver at a time, so a sweep reads it only
        while one quiver's words come in a row.
        """
        bound = self.default_ktheory_bound() if bound is None else index(bound)
        lam = nullspace_basis(list(zip(*self.betas)))  # kernel of m -> dim(m)
        if len(lam) != self.N - self.n:
            raise ConsistencyFailure(
                f"dimension kernel has rank {len(lam)}, expected {self.N - self.n}"
            )
        # Each basis vector ends at its own free column, where the others are
        # 0; coordinates are scaled by `scale`, harmless for cone comparisons.
        free = [max(i for i, x in enumerate(b) if x) for b in lam]
        scale = lcm(*(b[c] for b, c in zip(lam, free)))
        columns = [tuple(b[i] for b in lam) for i in range(self.N)]

        def to_lambda(vec) -> tuple[int, ...]:
            coeffs = [vec[c] * scale // b[c] for b, c in zip(lam, free)]
            rebuilt = [sum(map(mul, coeffs, col)) for col in columns]
            if rebuilt != [scale * x for x in vec]:
                raise ConsistencyFailure(f"{vec} is not in the dimension kernel")
            return primitive(tuple(coeffs))

        heights = [sum(b) for b in self.betas]
        rays = sorted(  # D^v's extreme rays, each with ht(r+)
            (to_lambda(r), heights[m - 1] + heights[self.translation[m] - 1])
            for m, r in self.mesh_vectors().items())
        ray_heights = {h for _, h in rays}
        top = max(ray_heights, default=0)  # B*
        walk = bound if bound >= top or bound + 1 in ray_heights else bound + 1
        # sorted(betas)[i] is the root at position order[i]; argsort of a
        # permutation is its inverse.
        order = sorted(range(self.N), key=self.betas.__getitem__)
        key = self.quiver, walk
        if key not in _EXTENSION_GENERATORS:
            if any(quiver != self.quiver for quiver, _ in _EXTENSION_GENERATORS):
                _EXTENSION_GENERATORS.clear()
            to_roots = itemgetter(*order)
            _EXTENSION_GENERATORS[key] = {
                to_roots(d): h for d, h in self._extension_generators(walk).items()}
        to_positions = itemgetter(*sorted(range(self.N), key=order.__getitem__))
        deltas = {to_positions(d): h for d, h in _EXTENSION_GENERATORS[key].items()}
        e_gens = sorted({to_lambda(d) for d, height in deltas.items() if height <= bound})
        if not e_gens:
            raise ValueError(f"no extension generators below the bound {bound}")
        d_gens = []
        for k in sorted(self.translation):  # the non-projectives
            functional = [self.hom_indec(k, l) for l in range(1, self.N + 1)]
            d_gens.append(tuple(dot(functional, b) for b in lam))
        m = self.N - self.n
        if bound >= top:
            stabilized = True  # E_bound and E_{bound+1} are both D^v
        elif bound + 1 in ray_heights:
            stabilized = False  # E_{bound+1} holds a ray of D^v that E_bound misses
        else:
            e_next = set(e_gens) | {to_lambda(d) for d, h in deltas.items() if h > bound}
            stabilized = RationalCone.from_inequalities(m, e_next).contains(
                RationalCone.from_inequalities(m, e_gens))
        report = {
            "bound": bound,
            "lambda_rank": m,
            "lambda_basis": [list(b) for b in lam],
            "E_generators": [list(g) for g in e_gens],
            "D_generators": [list(g) for g in d_gens],
            "D_count": m,
            "D_independent": True,
            "stabilized": stabilized,
            "duality_verdict": "equal" if bound >= top else "not_equal",
        }
        if bound < top:
            ray = next(r for r, h in rays if h > bound)
            report["witness"] = {"ray_of": "D_dual", "ray": list(ray)}
        return report


def check_superfluous_conjecture(quiver: DynkinQuiver, word) -> dict:
    """Oracle vs relaxed middle terms on every positive-Ext pair."""
    return RepContext(quiver, word).superfluous_check()


def ktheory_cones(quiver: DynkinQuiver, word, bound: int | None = None) -> dict:
    """Degeneration cone vs dual Hom-functional cone in the stable lattice."""
    return RepContext(quiver, word).ktheory_cones(bound)
