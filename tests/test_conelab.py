"""Tight monomial cones, degree cones, and the equality check between them."""

import pytest

from conekit.conelab import (
    check_conjecture,
    commutator_terms,
    degree_cone,
    lusztig_cone,
    negative_tight_cone,
    root_sum_identity,
    theorem_term_inequalities,
)
from conekit.rootsys import (
    cartan_matrix,
    enumerate_reduced_words,
    langlands_dual,
    staircase_word,
)
from conekit.quiverrep import (
    RepContext,
    all_orientations,
    enumerate_adapted_words,
    equioriented_a,
)
from engine_oracle import violation_by_facets

A2 = cartan_matrix("A", 2)
A3 = cartan_matrix("A", 3)
B2 = cartan_matrix("B", 2)
G2 = cartan_matrix("G", 2)


def test_lusztig_cone_a2_is_simplicial():
    for word in ((1, 2, 1), (2, 1, 2)):
        cone = lusztig_cone(A2, word)
        assert cone.rays == ((0, 1, 0), (0, 1, 1), (1, 1, 0))
        prof = cone.analyze()
        assert prof.lineality_dim == 0
        assert prof.is_simplicial_mod_lineality


def test_negative_cone_a2_profile():
    prof = negative_tight_cone(A2, (1, 2, 1)).analyze()
    assert prof.lineality_dim == 2
    assert prof.ray_count == 1
    assert prof.is_simplicial_mod_lineality


def test_lusztig_cone_structure_rank2():
    for cartan in (B2, G2):
        for word in enumerate_reduced_words(cartan):
            full = lusztig_cone(cartan, word).analyze()
            assert full.lineality_dim == 0
            assert full.is_simplicial_mod_lineality
            neg = negative_tight_cone(cartan, word).analyze()
            assert neg.ray_count + neg.lineality_dim == len(word)
            assert neg.is_simplicial_mod_lineality


@pytest.mark.parametrize(
    "cartan,word,forms",
    [
        (A2, (1, 2, 1), [(1, -1, 1)]),
        (B2, (2, 1, 2, 1), [(1, -2, 1, 0), (0, 1, -1, 1)]),
        (G2, (1, 2, 1, 2, 1, 2), [
            (1, -3, 1, 0, 0, 0),
            (0, 1, -1, 1, 0, 0),
            (0, 0, 1, -3, 1, 0),
            (0, 0, 0, 1, -1, 1),
        ]),
    ],
)
def test_term_inequalities_rank2(cartan, word, forms):
    assert theorem_term_inequalities(cartan, word) == forms


def test_commutator_terms_track_forms():
    terms = commutator_terms(B2, (2, 1, 2, 1))
    assert [t["pair"] for t in terms] == [(1, 3), (2, 4)]
    assert terms[0]["multiplicities"] == {2: 2}
    assert terms[1]["multiplicities"] == {3: 1}
    forms = theorem_term_inequalities(B2, (2, 1, 2, 1))
    assert [t["form"] for t in terms] == forms


def test_commutator_multiplicity_matches_form_coefficient():
    # interior coefficients of a term inequality are negated multiplicities
    for cartan in (A2, B2, G2):
        for word in enumerate_reduced_words(cartan):
            for term in commutator_terms(cartan, word):
                k, l = term["pair"]
                form = term["form"]
                assert form[k - 1] == 1 and form[l - 1] == 1
                for s, mult in term["multiplicities"].items():
                    assert k < s < l
                    assert form[s - 1] == -mult


@pytest.mark.parametrize("cartan", [A2, A3, B2, G2])
def test_root_sum_identity_all_words(cartan):
    for word in enumerate_reduced_words(cartan):
        assert root_sum_identity(cartan, word)


def test_degree_cone_a2():
    cone = degree_cone(equioriented_a(2), (2, 1, 2))
    assert cone.facets == ((1, -1, 1),)
    assert violation_by_facets(cone, (1, 1, 1)) is None
    assert violation_by_facets(cone, (0, 1, 0)) is not None


def test_degree_cone_matches_context_reuse():
    q = equioriented_a(3)
    word = staircase_word(3)
    ctx = RepContext(q, word)
    shared, fresh = degree_cone(q, word, ctx), degree_cone(q, word)
    assert shared.contains(fresh) and fresh.contains(shared)


def test_context_of_another_case_is_rejected():
    q = equioriented_a(3)
    word = staircase_word(3)
    d4 = all_orientations(cartan_matrix("D", 4))[0]
    other_word = next(w for w in enumerate_adapted_words(q) if w != word)
    for ctx in (RepContext(d4, enumerate_adapted_words(d4)[0]), RepContext(q, other_word)):
        with pytest.raises(ValueError, match="context built for"):
            degree_cone(q, word, ctx=ctx)
        with pytest.raises(ValueError, match="context built for"):
            check_conjecture(q, word, ctx=ctx)
    shared = check_conjecture(q, list(word), ctx=RepContext(q, word))
    assert shared.to_dict() == check_conjecture(q, word).to_dict()


def test_context_of_an_equal_quiver_is_accepted():
    # the same quiver built by another route is the same quiver
    twin = all_orientations(cartan_matrix("A", 3))[0]
    word = staircase_word(3)
    shared = check_conjecture(equioriented_a(3), word, ctx=RepContext(twin, word))
    assert shared.to_dict() == check_conjecture(twin, word).to_dict()


def test_check_conjecture_staircase():
    report = check_conjecture(equioriented_a(3), staircase_word(3))
    assert report.verdict == "equal"
    assert report.witness is None
    data = report.to_dict()
    assert data["verdict"] == "equal"
    assert data["word"] == list(staircase_word(3))


def test_check_conjecture_every_a3_orientation():
    for q in all_orientations(A3):
        for word in enumerate_adapted_words(q):
            assert check_conjecture(q, word).verdict == "equal"


def test_degree_cone_equals_dual_negative_cone_directly():
    # the two sides are built by unrelated pipelines; compare them raw
    q = equioriented_a(3)
    for word in enumerate_adapted_words(q):
        left = degree_cone(q, word)
        right = negative_tight_cone(langlands_dual(q.cartan), word)
        assert left.contains(right) and right.contains(left)
