"""Flag-variety exchange relations and min-plus membership checks.

Weights are indexed by proper nonempty subsets of [n] and kept as exact
rationals. The generating family is the classical one-element exchange
relations; membership and initial forms are certified on these generators
only, which is the desk-checkable fragment of the full ideal condition.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .linalg import dot, rank, rational
from .rootsys import Record, VerificationFailure

Subset = tuple[int, ...]
Term = tuple[int, Subset, Subset]  # sign, A, B with A, B sorted tuples

MIN_N = 3
MAX_N = 6


class MissingCoordinate(KeyError):
    pass


class InvariantFailure(VerificationFailure):
    """An identity of the exchange relations or the weight map failed."""


class PlueckerRelation(Record, namedtuple("PlueckerRelation", "terms")):
    __slots__ = ()

    def __str__(self) -> str:
        bits = []
        for sign, a, b in self.terms:
            mono = f"p{subset_label(a)}*p{subset_label(b)}"
            bits.append(("- " if sign < 0 else "+ ") + mono)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"sign": s, "a": subset_label(a), "b": subset_label(b)}
                for s, a, b in self.terms
            ]
        }


def subset_label(s: Subset) -> str:
    return "".join(str(i) for i in s)


def all_subsets(n: int) -> list[Subset]:
    """S: proper nonempty subsets of [n], graded then lexicographic."""
    out = []
    for k in range(1, n):
        out.extend(combinations(range(1, n + 1), k))
    return out


def pair_order(n: int) -> list[tuple[int, int]]:
    """Coordinate order for d: (i,j) with 1 <= i <= j <= n-1, lexicographic."""
    return [(i, j) for i in range(1, n) for j in range(i, n)]


def _check_n(n: int):
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be between {MIN_N} and {MAX_N}, got {n}")


def _normalize_relation(raw_terms) -> tuple[Term, ...] | None:
    combined: dict[tuple[Subset, Subset], int] = {}
    for sign, a, b in raw_terms:
        key = tuple(sorted((tuple(a), tuple(b)), key=lambda s: (len(s), s)))
        combined[key] = combined.get(key, 0) + sign
    terms = sorted(
        (key, c) for key, c in combined.items() if c != 0
    )
    if not terms:
        return None
    flip = -1 if terms[0][1] < 0 else 1
    out = tuple((flip * c, key[0], key[1]) for key, c in terms)
    # Coefficients in the one-element exchange family are always +-1.
    if any(abs(c) != 1 for c, _, _ in out):
        raise InvariantFailure(f"exchange coefficient other than +-1 in {out}")
    return out


def pluecker_relations(n: int) -> list[PlueckerRelation]:
    """One-element exchange relations between exterior degrees a and b.

    For index sets I (size a-1) and J (size b+1) the alternating sum over
    j in J of p_{I+j} p_{J-j} vanishes on the flag variety; terms with
    j already in I are dropped. Identically-zero and duplicate relations
    are removed and the result is deterministically ordered.
    """
    _check_n(n)
    ground = range(1, n + 1)
    seen = set()
    out = []
    for a in range(1, n):
        for b in range(a, n):
            for i_set in combinations(ground, a - 1):
                for j_set in combinations(ground, b + 1):
                    raw = []
                    for t, j in enumerate(j_set, start=1):
                        if j in i_set:
                            continue
                        insertion = (-1) ** sum(1 for i in i_set if i > j)
                        sign = (-1) ** t * insertion
                        a_sub = tuple(sorted(i_set + (j,)))
                        b_sub = tuple(x for x in j_set if x != j)
                        raw.append((sign, a_sub, b_sub))
                    terms = _normalize_relation(raw)
                    if terms is None:
                        continue
                    if len(terms) < 3:
                        raise InvariantFailure(
                            f"exchange relation with fewer than 3 terms: {terms}"
                        )
                    if terms not in seen:
                        seen.add(terms)
                        out.append(PlueckerRelation(terms))
    out.sort(key=lambda r: (len(r.terms[0][1]), len(r.terms[0][2]), r.terms))
    return out


# -- the weight map ----------------------------------------------------------


def _coerce_root_values(n: int, d) -> list[Fraction]:
    pairs = pair_order(n)
    if hasattr(d, "keys"):
        vals = {tuple(k): rational(v) for k, v in d.items()}
        if sorted(vals) != sorted(pairs):
            raise ValueError(f"d must have exactly the keys {pairs}")
        return [vals[pair] for pair in pairs]
    seq = [rational(x) for x in d]
    if len(seq) != len(pairs):
        raise ValueError(f"d must have {len(pairs)} entries, got {len(seq)}")
    return seq


def phi(n: int, d) -> dict[Subset, Fraction]:
    """Weight vector on S built from a positive-root coordinate vector.

    For I not an initial segment, match the ascending complement positions
    [k] \\ I against the descending excess I \\ [k] and sum the root
    coordinates d_{p, q-1}; initial segments get weight zero. This is
    `phi_matrix(n)` applied to d.
    """
    _check_n(n)
    dvec = _coerce_root_values(n, d)
    return {
        subset: dot(row, dvec) for subset, row in zip(all_subsets(n), phi_matrix(n))
    }


def phi_matrix(n: int) -> list[tuple[Fraction, ...]]:
    """Rows per subset (all_subsets order), columns per pair_order entry."""
    pairs = pair_order(n)
    rows = []
    for subset in all_subsets(n):
        row = [Fraction(0)] * len(pairs)
        k = len(subset)
        head = set(range(1, k + 1))
        ps = sorted(head - set(subset))
        qs = sorted(set(subset) - head, reverse=True)
        for p, q in zip(ps, qs):
            if not p <= k < q:
                raise InvariantFailure(f"unmatched positions {p}, {q} in {subset}")
            row[pairs.index((p, q - 1))] += 1
        rows.append(tuple(row))
    return rows


def phi_rank(n: int) -> int:
    _check_n(n)
    return rank(phi_matrix(n))


# -- membership and initial forms --------------------------------------------


def term_weight(w, a: Subset, b: Subset) -> Fraction:
    try:
        return rational(w[a]) + rational(w[b])
    except KeyError as exc:
        raise MissingCoordinate(f"no weight for subset {subset_label(exc.args[0])}")


def relation_weights(w, rel: PlueckerRelation) -> list[Fraction]:
    return [term_weight(w, a, b) for _, a, b in rel.terms]


def trop_membership(w, rels) -> dict:
    """Min attained at least twice, checked per generating relation."""
    report = []
    failures = []
    for rel in rels:
        weights = relation_weights(w, rel)
        low = min(weights)
        hits = sum(1 for x in weights if x == low)
        entry = {
            "relation": str(rel),
            "weights": [str(x) for x in weights],
            "min_count": hits,
            "passes": hits >= 2,
        }
        report.append(entry)
        if hits < 2:
            failures.append(entry)
    return {
        "passes": not failures,
        "relation_count": len(report),
        "relations": report,
        "failures": failures,
    }


def initial_form(w, rel: PlueckerRelation) -> dict:
    """Terms attaining the minimum weight; binomial iff exactly two."""
    weights = relation_weights(w, rel)
    low = min(weights)
    attaining = [
        {"sign": s, "a": subset_label(a), "b": subset_label(b)}
        for (s, a, b), x in zip(rel.terms, weights)
        if x == low
    ]
    return {
        "relation": str(rel),
        "min_weight": str(low),
        "terms": attaining,
        "is_binomial": len(attaining) == 2,
    }
