"""Cartan matrices, root sequences, and reduced-word enumeration.

Conventions, fixed once for the whole package:

* ``a[i][j] = <alpha_j, alpha_i^vee>``, so a simple reflection acts by
  ``s_i(alpha_j) = alpha_j - a[i][j] alpha_i``.
* Symmetrizers ``d_i`` are the minimal positive integers with
  ``d_i a[i][j] = d_j a[j][i]``; short roots get ``d = 1``.
* Words are 1-based letter tuples; positions in a word are 1-based too.

Roots live in the simple-root basis as integer tuples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

RootVector = tuple[int, ...]
Word = tuple[int, ...]

FAMILIES = "ABCDEFG"

MAX_WORDS = 100_000  # words of either enumeration, or orientations, before CapExceeded


class NotReduced(ValueError):
    """Raised when a word is not reduced; ``position`` is 1-based."""

    def __init__(self, position: int):
        super().__init__(f"word is not reduced at position {position}")
        self.position = position


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed its result cap."""


class VerificationFailure(RuntimeError):
    """An exact invariant failed; the message is the witness (CLI exit 2)."""


@lru_cache(maxsize=None)
def _as_dataclass(cls):
    """A frozen dataclass with the fields of the record class `cls`."""
    from dataclasses import make_dataclass
    return make_dataclass(cls.__name__, cls._fields, frozen=True)


class _DataclassAttribute:
    """A record's `__dataclass_fields__` or `__dataclass_params__`, read
    off `_as_dataclass` on first use."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        return getattr(_as_dataclass(cls), self.name)


class Record:
    """Mixin of the package's records, each a `collections.namedtuple`
    subclass: equality, hash and repr by fields, no field assignment, and no
    `dataclasses` import when the package loads. `_replace` builds through
    the constructor, so a record's checks run there too, and the
    `dataclasses` functions (`replace`, `fields`, `asdict`) and `pprint`
    take a record as they did when it was a frozen dataclass."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassAttribute()
    __dataclass_params__ = _DataclassAttribute()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class CartanMatrix(Record, namedtuple("CartanMatrix", "entries")):
    """A finite-type Cartan matrix, stored as its entries: a tuple of rows of
    ints, so equal entries give equal matrices. The constructor (and so
    `_replace`) refuses what is not finite-type Cartan data: a non-int entry
    (a float such as 2.0 included) raises TypeError, every other fault
    ValueError."""

    __slots__ = ()

    def __new__(cls, entries):
        rows = tuple(tuple(map(index, row)) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if rows[i][j] > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        if not _is_positive_definite(rows, _symmetrizers(rows)):
            raise ValueError("matrix is not of finite type")
        return super().__new__(cls, rows)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def a(self, i: int, j: int) -> int:
        """Entry ``<alpha_j, alpha_i^vee>``, 1-based."""
        return self.entries[i - 1][j - 1]


def _symmetrizers(entries) -> tuple[int, ...]:
    n = len(entries)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or entries[i][j] == 0:
                    continue
                required = d[i] * entries[i][j] / entries[j][i]
                if d[j] is None:
                    d[j] = required
                    queue.append(j)
                elif d[j] != required:
                    raise ValueError("matrix is not symmetrizable")
    denom_lcm = lcm(*(f.denominator for f in d))
    ints = [int(f * denom_lcm) for f in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _is_positive_definite(entries, sym) -> bool:
    """Sylvester's criterion: every leading principal minor of D.A is
    positive. Bareiss's fraction-free elimination leaves the k-th leading
    minor as the k-th pivot, and each of its divisions is exact."""
    b = [[d * x for x in row] for d, row in zip(sym, entries)]
    prev = 1
    for c, top in enumerate(b):
        pivot = top[c]
        if pivot <= 0:
            return False
        for row in b[c + 1:]:
            f = row[c]
            row[c + 1:] = [(pivot * x - f * y) // prev
                           for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = pivot
    return True


def _chain(n: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    return m


@lru_cache(maxsize=None)
def cartan_matrix(family: str, rank: int) -> CartanMatrix:
    """Standard Cartan matrix for a family letter A-G at the given rank.

    Rank-2 members of B, C, G are pinned:

    >>> cartan_matrix("B", 2).entries
    ((2, -2), (-1, 2))
    >>> cartan_matrix("G", 2).entries
    ((2, -1), (-3, 2))
    """
    family = family.upper()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n = rank
    if family == "A":
        if n < 1:
            raise ValueError("A requires rank >= 1")
        m = _chain(n)
    elif family == "B":
        if n < 2:
            raise ValueError("B requires rank >= 2")
        m = _chain(n)
        m[n - 2][n - 1] = -2
    elif family == "C":
        if n < 2:
            raise ValueError("C requires rank >= 2")
        m = _chain(n)
        m[n - 1][n - 2] = -2
    elif family == "D":
        if n < 3:
            raise ValueError("D requires rank >= 3")
        m = _chain(n - 1)
        for row in m:
            row.append(0)
        m.append([0] * n)
        m[n - 1][n - 1] = 2
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    elif family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7, or 8")
        # Vertex 2 hangs off vertex 4 of the chain 1-3-4-5-...-n.
        chain = [1, 3] + list(range(4, n + 1))
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(2, 4)]
        for u, v in edges:
            m[u - 1][v - 1] = m[v - 1][u - 1] = -1
    elif family == "F":
        if n != 4:
            raise ValueError("F requires rank 4")
        m = _chain(4)
        m[2][1] = -2
    else:  # G
        if n != 2:
            raise ValueError("G requires rank 2")
        m = [[2, -1], [-3, 2]]
    return CartanMatrix(m)


def parse_type(text: str) -> CartanMatrix:
    """Parse a type string such as ``"A3"`` or ``"G2"``."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in FAMILIES or not text[1:].isdigit():
        raise ValueError(f"cannot parse type {text!r}")
    return cartan_matrix(text[0].upper(), int(text[1:]))


@lru_cache(maxsize=None)
def langlands_dual(c: CartanMatrix) -> CartanMatrix:
    """The transpose of the Cartan matrix.

    >>> langlands_dual(cartan_matrix("B", 2)) == cartan_matrix("C", 2)
    True
    """
    return CartanMatrix(zip(*c.entries))


def reflect_step(c: CartanMatrix, m, letter: int):
    """``(beta, m . s_letter)``, where ``m`` (a tuple of rows) is the matrix of
    ``s_{i_1} ... s_{i_{t-1}}`` and ``beta`` is its column ``letter``.

    >>> beta, m = reflect_step(cartan_matrix("A", 2), ((1, 0), (0, 1)), 1)
    >>> beta, m
    ((1, 0), ((-1, 1), (0, 1)))
    """
    col = letter - 1
    arow = c.entries[col]
    beta = tuple(row[col] for row in m)
    return beta, tuple(
        tuple(x - row[col] * a for x, a in zip(row, arow)) if row[col] else row
        for row in m
    )


def beta_sequence(c: CartanMatrix, word: Word) -> tuple[RootVector, ...]:
    """Roots ``beta_t = s_{i_1} ... s_{i_{t-1}}(alpha_{i_t})`` of a reduced word.

    Raises NotReduced at the first position whose root fails to be positive.

    >>> a2 = cartan_matrix("A", 2)
    >>> beta_sequence(a2, (1, 2, 1))
    ((1, 0), (1, 1), (0, 1))

    The walk is cached per (Cartan matrix, word), so a `RepContext` and the
    cones of one word share it; errors are not cached and raise again. The
    key holds the letters as ints, so a float word, equal to an int word as
    a key, raises TypeError whether or not that word is cached.
    """
    return _beta_sequence(c, tuple(map(index, word)))


@lru_cache(maxsize=256)
def _beta_sequence(c: CartanMatrix, word: Word) -> tuple[RootVector, ...]:
    n = c.rank
    for t, letter in enumerate(word, start=1):
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} out of range at position {t}")
    betas: list[RootVector] = []
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for t, letter in enumerate(word, start=1):
        beta, m = reflect_step(c, m, letter)
        if min(beta) < 0 or not any(beta):
            raise NotReduced(t)
        betas.append(beta)
    return tuple(betas)


def tight_pairs(word: Word) -> list[tuple[int, int]]:
    """Each position with the next occurrence of its letter, in order; one
    backward pass keeps each letter's next position.

    >>> tight_pairs((1, 2, 1, 2))
    [(1, 3), (2, 4)]
    """
    nxt: dict[int, int] = {}
    pairs = []
    for p in range(len(word), 0, -1):
        if (l := nxt.get(word[p - 1])) is not None:
            pairs.append((p, l))
        nxt[word[p - 1]] = p
    return pairs[::-1]


def _reflect_weight(c: CartanMatrix, lam: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i (0-based i) on a weight in fundamental-weight coordinates."""
    x = lam[i]
    return tuple(y - x * row[i] for y, row in zip(lam, c.entries))


@lru_cache(maxsize=None)
def positive_roots(c: CartanMatrix) -> tuple[RootVector, ...]:
    """All positive roots, sorted by (height, coordinates).

    They are the roots of any reduced word of w0, and the weight walk of
    `longest_words`, taking the first letter that lengthens w, finds one.
    """
    lam, word = (1,) * c.rank, []
    while (i := next((i for i, x in enumerate(lam) if x > 0), None)) is not None:
        word.append(i + 1)
        lam = _reflect_weight(c, lam, i)
    return tuple(sorted(_beta_sequence(c, tuple(word)), key=lambda v: (sum(v), v)))


def num_positive_roots(c: CartanMatrix) -> int:
    return len(positive_roots(c))


def highest_root(c: CartanMatrix) -> RootVector:
    return positive_roots(c)[-1]


def longest_words(c: CartanMatrix, what: str, state, letters, advance):
    """Longest-element words from one weight walk over ``letters(state)``.

    It holds lam = w^-1(rho) in fundamental-weight coordinates: letter i
    lengthens w exactly when lam_i > 0, and then lam becomes s_i lam;
    ``advance`` gives the next state. CapExceeded past ``MAX_WORDS`` words.
    """
    total = num_positive_roots(c)
    out: list[Word] = []

    def walk(state, lam, prefix: list[int]):
        if len(prefix) == total:
            if len(out) >= MAX_WORDS:
                raise CapExceeded(f"more than {MAX_WORDS} {what}")
            out.append(tuple(prefix))
            return
        for letter in letters(state):
            if lam[letter - 1] > 0:
                prefix.append(letter)
                walk(advance(state, letter), _reflect_weight(c, lam, letter - 1), prefix)
                prefix.pop()

    walk(state, (1,) * c.rank, [])
    return out


def enumerate_reduced_words(c: CartanMatrix) -> list[Word]:
    """All reduced words of the longest element, in lexicographic order,
    from the weight walk of `longest_words`.

    Raises CapExceeded before the walk when there are more than
    ``MAX_WORDS``. They are counted layer by layer of the weak order, each
    w keyed by w(rho) with the walk's step: s_i w is longer than w exactly
    when coordinate i of w(rho) is positive. Every reduced word of w
    extends to one of w0, so a layer's total is a lower bound on the count
    and the last layer's total is the count (768 for A_4, 2,316 for D_4,
    24,024 for B_4). The count stops at the first layer past the cap, and a
    layer has no more elements than words, so it visits at most
    N * ``MAX_WORDS`` of them.
    """
    n = c.rank
    layer = {(1,) * n: 1}
    for _ in range(num_positive_roots(c)):
        longer: dict[tuple[int, ...], int] = {}
        for lam, words in layer.items():
            for i, x in enumerate(lam):
                if x > 0:
                    key = _reflect_weight(c, lam, i)
                    longer[key] = longer.get(key, 0) + words
        if sum(longer.values()) > MAX_WORDS:
            raise CapExceeded(f"more than {MAX_WORDS} reduced words")
        layer = longer
    letters = range(1, n + 1)
    return longest_words(
        c, "reduced words", None, lambda _: letters, lambda state, _: state
    )


def staircase_word(n: int) -> Word:
    """The reduced word (n, n-1, n, n-2, n-1, n, ...) of type A_n.

    Compatible with the linearly ordered quiver 1 -> 2 -> ... -> n.

    >>> staircase_word(3)
    (3, 2, 3, 1, 2, 3)
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    out: list[int] = []
    for start in range(n, 0, -1):
        out.extend(range(start, n + 1))
    return tuple(out)
