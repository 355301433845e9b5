"""Min-plus relation checks for flag varieties in Pluecker coordinates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conekit.tropflag import (
    MissingCoordinate,
    all_subsets,
    initial_form,
    pair_order,
    phi,
    phi_matrix,
    phi_rank,
    pluecker_relations,
    relation_weights,
    subset_label,
    trop_membership,
)


def test_subset_labels_roundtrip():
    assert subset_label((1, 3)) == "13"


def test_all_subsets_graded():
    subs = all_subsets(3)
    assert subs == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert len(all_subsets(4)) == 14


def test_pair_order_matches_coordinate_layout():
    assert pair_order(3) == [(1, 1), (1, 2), (2, 2)]
    assert len(pair_order(5)) == 10


def test_relations_n3():
    rels = pluecker_relations(3)
    assert [str(r) for r in rels] == ["p1*p23 - p2*p13 + p3*p12"]
    assert all(abs(s) == 1 for s, _, _ in rels[0].terms)


def test_relations_n4_count_and_shape():
    rels = pluecker_relations(4)
    assert len(rels) == 10
    for rel in rels:
        assert len(rel.terms) >= 3
        # first term is sign-normalized
        assert rel.terms[0][0] == 1
        # every term multiplies the same pair of subset sizes
        sizes = {(len(a), len(b)) for _, a, b in rel.terms}
        assert len(sizes) == 1
    # one of them is the Grassmannian relation on 2-subsets
    gr = [r for r in rels if {(len(a), len(b)) for _, a, b in r.terms} == {(2, 2)}]
    assert len(gr) == 1
    assert str(gr[0]) == "p12*p34 - p13*p24 + p14*p23"


def test_relations_n5_smoke():
    rels = pluecker_relations(5)
    assert len(rels) == 66
    assert len({str(r) for r in rels}) == 66


def test_range_guard():
    with pytest.raises(ValueError):
        pluecker_relations(2)
    with pytest.raises(ValueError):
        pluecker_relations(7)


def test_phi_examples_n3():
    d = {(1, 1): 0, (1, 2): 0, (2, 2): 1}
    out = phi(3, d)
    assert out[(1, 3)] == 1
    assert out[(1, 2)] == 0
    assert all(out[s] == 0 for s in all_subsets(3) if s != (1, 3))


def test_phi_interleaved_pairing_n5():
    d = {p: 0 for p in pair_order(5)}
    d[(1, 4)] = 7
    d[(3, 3)] = 11
    out = phi(5, d)
    assert out[(2, 3, 5)] == 7
    assert out[(1, 2, 4)] == 11
    assert out[(2, 4, 5)] == 18
    assert out[(1, 2, 3)] == 0


def test_phi_accepts_flat_sequence():
    by_pairs = phi(3, {(1, 1): 2, (1, 2): 3, (2, 2): 5})
    flat = phi(3, (2, 3, 5))
    assert by_pairs == flat


def test_phi_rank_is_full():
    assert phi_rank(3) == 3
    assert phi_rank(4) == 6
    assert phi_rank(5) == 10
    rows = phi_matrix(4)
    assert len(rows) == len(all_subsets(4))


def test_membership_at_zero_weight():
    rels = pluecker_relations(3)
    w = {s: 0 for s in all_subsets(3)}
    report = trop_membership(w, rels)
    assert report["passes"] is True
    assert report["failures"] == []
    assert report["relation_count"] == 1


def test_membership_failure_witness():
    rels = pluecker_relations(3)
    w = {s: 0 for s in all_subsets(3)}
    w[(2,)] = -5
    report = trop_membership(w, rels)
    assert report["passes"] is False
    assert report["failures"][0]["min_count"] == 1
    assert report["failures"][0]["relation"] == "p1*p23 - p2*p13 + p3*p12"


def test_membership_missing_coordinate():
    rels = pluecker_relations(3)
    with pytest.raises(MissingCoordinate):
        trop_membership({(1,): 0}, rels)


def test_initial_form_binomial():
    rels = pluecker_relations(3)
    w = {s: 0 for s in all_subsets(3)}
    w[(2,)] = 5  # pushes the middle term out of the minimum
    out = initial_form(w, rels[0])
    assert out["is_binomial"] is True
    assert out["min_weight"] == "0"
    assert [t["sign"] for t in out["terms"]] == [1, 1]


def test_initial_form_total():
    rels = pluecker_relations(3)
    w = {s: 0 for s in all_subsets(3)}
    out = initial_form(w, rels[0])
    assert out["is_binomial"] is False
    assert len(out["terms"]) == 3


def test_relation_weights_are_fractions():
    rels = pluecker_relations(3)
    w = {s: Fraction(1, 3) for s in all_subsets(3)}
    assert relation_weights(w, rels[0]) == [Fraction(2, 3)] * 3


def _shifted(w, n, shifts):
    # adding a constant per subset size is projective rescaling
    return {s: w[s] + shifts[len(s) - 1] for s in all_subsets(n)}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=14, max_size=14),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_membership_invariant_under_size_shifts(values, shifts):
    n = 4
    w = dict(zip(all_subsets(n), values))
    rels = pluecker_relations(n)
    base = trop_membership(w, rels)
    moved = trop_membership(_shifted(w, n, shifts), rels)
    assert base["passes"] == moved["passes"]
    assert [r["passes"] for r in base["relations"]] == [
        r["passes"] for r in moved["relations"]
    ]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=14, max_size=14),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_initial_terms_invariant_under_size_shifts(values, shifts):
    n = 4
    w = dict(zip(all_subsets(n), values))
    moved = _shifted(w, n, shifts)
    for rel in pluecker_relations(n):
        a = initial_form(w, rel)
        b = initial_form(moved, rel)
        assert a["terms"] == b["terms"]
        assert a["is_binomial"] == b["is_binomial"]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=6,
        max_size=6,
    ),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=6,
        max_size=6,
    ),
)
def test_phi_is_linear(xs, ys):
    n = 4
    pairs = pair_order(n)
    dx = dict(zip(pairs, xs))
    dy = dict(zip(pairs, ys))
    dsum = {p: dx[p] + dy[p] for p in pairs}
    fx, fy, fs = phi(n, dx), phi(n, dy), phi(n, dsum)
    for s in all_subsets(n):
        assert fs[s] == fx[s] + fy[s]
    three = phi(n, {p: 3 * dx[p] for p in pairs})
    for s in all_subsets(n):
        assert three[s] == 3 * fx[s]


def test_float_and_string_weights_raise():
    # 0.1 + 0.2 != 0.3 in binary, so a float weight read as its binary
    # fraction broke the tie this relation needs; the decimal weights pass.
    rels = pluecker_relations(3)
    decimal = {(1,): Fraction(1, 10), (2,): Fraction(3, 10), (3,): 1,
               (1, 2): 0, (1, 3): 0, (2, 3): Fraction(1, 5)}
    assert trop_membership(decimal, rels)["passes"]
    floats = {k: float(v) for k, v in decimal.items()}
    with pytest.raises(TypeError):
        trop_membership(floats, rels)
    with pytest.raises(TypeError):
        initial_form(floats, rels[0])
    d = dict.fromkeys(pair_order(3), 1)
    for bad in (0.5, "1/2", 1.0):
        with pytest.raises(TypeError):
            phi(3, {**d, (1, 2): bad})
        with pytest.raises(TypeError):
            phi(3, [bad, 1, 1])
