"""The middle-term engine: enumerator, degeneration test and cone arithmetic.

The digests below were recorded before the packed filling walk, the sparse
degeneration test and the integer-only cone arithmetic replaced the older
tuple and `Fraction` routes; the same inputs must keep producing the same
JSON. The K-theory digest also predates the packed Hom comparison, the
single walk for both bounds and the elimination-free kernel coordinates.
The slow routes stay in `engine_oracle.py` as references, and
`hom_leq_strict` is the reference for the packed Hom comparison.
"""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import conelab, quiverrep
from conekit.linalg import integerize, rank, row_space_basis
from conekit.polycone import _reduce_mod_rows, dd_vrep
from conekit.quiverrep import (
    all_orientations,
    bounded_multisets,
    enumerate_adapted_words,
    equioriented_a,
    ktheory_cones,
)
from conekit.rootsys import (
    CapExceeded,
    cartan_matrix,
    num_positive_roots,
    reflect_step,
    staircase_word,
)
from engine_oracle import (
    brute_extreme_rays,
    brute_multisets,
    integerize_by_fractions,
    reduce_mod_rows_by_fractions,
)


def first_adapted_word(quiver) -> tuple[int, ...]:
    """The lexicographically first adapted word: smallest usable sink first."""
    c = quiver.cartan
    total = num_positive_roots(c)

    def walk(q, m, prefix):
        if len(prefix) == total:
            return tuple(prefix)
        for v in sorted(q.sinks()):
            beta, m2 = reflect_step(c, m, v)
            if all(x >= 0 for x in beta) and any(beta):
                word = walk(q.reflected(v), m2, prefix + [v])
                if word is not None:
                    return word
        return None

    identity = tuple(tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank))
    return walk(quiver, identity, [])


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# -- outputs pinned before the engine changed ---------------------------------

PINNED_REPORTS = {
    ("A", 6): "395db9cae5ff36b5fe96d9634b3c525ff998fb73bfb11ef329d13308a12ad7eb",
    ("D", 5): "b3f992408b46bdaf30aad90fdd388de589e3c26595f197e4604e8d1caf3a3b44",
    ("E", 6): "6cc406ec76bcf17b8fae6c6e6457a2799adb521cf278eacacf167ae68533233d",
}


@pytest.mark.parametrize("family, rank", sorted(PINNED_REPORTS))
def test_check_conjecture_output_pinned(family, rank):
    quiver = all_orientations(cartan_matrix(family, rank))[0]
    report = conelab.check_conjecture(quiver, first_adapted_word(quiver))
    assert report.verdict == "equal"
    assert _digest(report.to_dict()) == PINNED_REPORTS[family, rank]


def test_ktheory_output_pinned():
    report = ktheory_cones(equioriented_a(4), staircase_word(4))
    assert report["duality_verdict"] == "equal"
    assert _digest(report) == (
        "dfeb2f00949d8405955a3c6d1e4a58d4f0437243a0e2b9c30d2f27a0db0b37a7"
    )


# -- the packed filling walk against brute force ------------------------------

# Entries up to 4 against targets up to 3: some columns exceed every target
# entry, so the field width must come from the columns too.
TARGETS = st.lists(st.integers(0, 3), min_size=1, max_size=3)


@st.composite
def _multiset_problem(draw):
    target = draw(TARGETS)
    column = st.lists(
        st.integers(0, 4), min_size=len(target), max_size=len(target)
    ).filter(any)
    columns = draw(st.lists(column, min_size=0, max_size=4))
    return tuple(target), [tuple(c) for c in columns]


@settings(max_examples=300, deadline=None)
@given(_multiset_problem(), st.booleans())
def test_bounded_multisets_matches_brute_force(problem, exact):
    target, columns = problem
    assert bounded_multisets(target, columns, exact) == brute_multisets(
        target, columns, exact
    )


def test_bounded_multisets_edge_cases():
    # a zero target admits only the empty filling
    assert bounded_multisets((0, 0), [(1, 0), (2, 3)]) == [(0, 0)]
    # a column entry above every target entry, and wider than its field
    columns = [(9, 1), (1, 0), (0, 1)]
    assert bounded_multisets((1, 2), columns) == [(0, 1, 2)]
    assert bounded_multisets((1, 2), columns, exact=False) == [
        (0, a, b) for a in range(2) for b in range(3)
    ]
    # a coordinate no column can lower has no exact filling
    assert bounded_multisets((1, 1), [(1, 0)]) == []
    assert bounded_multisets((-1, 2), [(0, 1)]) == []


def test_bounded_multisets_cap(monkeypatch):
    monkeypatch.setattr(quiverrep, "MAX_MULTISETS", 3)
    assert len(bounded_multisets((2,), [(1,)], exact=False)) == 3
    with pytest.raises(CapExceeded, match="more than 3 modules"):
        bounded_multisets((3,), [(1,)], exact=False)
    with pytest.raises(CapExceeded, match="more than 3 modules"):
        bounded_multisets((6, 6), [(1, 1), (2, 2)])


# -- the packed Hom comparison against hom_leq_strict -------------------------


def _ktheory_cases():
    for quiver in all_orientations(cartan_matrix("A", 3)):
        for word in enumerate_adapted_words(quiver):
            yield quiver, word
    yield equioriented_a(4), staircase_word(4)
    d4 = all_orientations(cartan_matrix("D", 4))[0]
    yield d4, first_adapted_word(d4)


def test_packed_hom_comparison_matches_hom_leq_strict():
    cases = 0
    for quiver, word in _ktheory_cases():
        ctx = quiverrep.RepContext(quiver, word)
        heights = [(sum(b),) for b in ctx.betas]
        bound = ctx.default_ktheory_bound()
        by_dim = {}
        for m in bounded_multisets((bound,), heights, exact=False):
            by_dim.setdefault(ctx.dim_vector(m), []).append(m)
        for dim, group in by_dim.items():
            expected = [
                (x, y) for x in group for y in group if ctx.hom_leq_strict(x, y)
            ]
            assert ctx._degenerations(dim, group) == expected
        cases += 1
    assert cases == 14


# -- double description against every square subsystem -----------------------


@st.composite
def _pointed_cone(draw):
    dim = draw(st.integers(2, 4))
    form = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    forms = draw(st.lists(form, min_size=dim, max_size=8))
    assume(rank(forms) == dim)  # no lineality
    return dim, [tuple(f) for f in forms]


@settings(max_examples=300, deadline=None)
@given(_pointed_cone())
def test_dd_vrep_matches_brute_force_extreme_rays(problem):
    dim, forms = problem
    assert dd_vrep(dim, forms) == (brute_extreme_rays(dim, forms), [])


# -- integer fast paths against the Fraction routes ---------------------------

INT_VECTORS = st.lists(st.integers(-30, 30), min_size=0, max_size=6)


@settings(max_examples=300, deadline=None)
@given(INT_VECTORS)
def test_integerize_matches_fraction_route(v):
    assert integerize(v) == integerize_by_fractions(v)
    assert integerize(tuple(v)) == integerize_by_fractions(v)


@st.composite
def _vector_and_rows(draw):
    dim = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    rows = draw(st.lists(vec, min_size=1, max_size=dim))
    return tuple(draw(vec)), rows


@settings(max_examples=300, deadline=None)
@given(_vector_and_rows())
def test_reduce_mod_rows_matches_fraction_route(problem):
    v, rows = problem
    basis = row_space_basis(rows)
    assert _reduce_mod_rows(v, basis) == reduce_mod_rows_by_fractions(v, basis)


# -- the degree cone does not depend on the adapted word ----------------------


def _cone_by_root(quiver, word) -> set[tuple]:
    """Degree-cone forms as sorted (root, coefficient) records."""
    ctx = quiverrep.RepContext(quiver, word)
    cone = conelab.degree_cone(quiver, word, ctx=ctx)
    return {
        tuple(sorted((ctx.betas[t], x) for t, x in enumerate(form) if x))
        for form in cone.inequalities
    }


@pytest.mark.parametrize(
    "family, rank", [("A", 4), ("D", 4)], ids=["A4", "D4"]
)
def test_degree_cone_is_independent_of_the_adapted_word(family, rank):
    # The adapted words of a quiver form one commutation class, and each
    # middle term is a module: relabelled by root, every word gives one cone.
    # An orientation has 12-70 adapted words in A4 and 72-216 in D4; about a
    # dozen, at a fixed stride through the enumeration, are compared.
    for quiver in all_orientations(cartan_matrix(family, rank)):
        words = enumerate_adapted_words(quiver)
        assert len(words) >= 2
        words = words[:: max(1, len(words) // 12)]
        reference = _cone_by_root(quiver, words[0])
        for word in words[1:]:
            assert _cone_by_root(quiver, word) == reference
