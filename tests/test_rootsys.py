"""Cartan matrices, reduced words, and root sequences."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import rootsys
from conekit.rootsys import (
    CapExceeded,
    CartanMatrix,
    NotReduced,
    beta_sequence,
    cartan_matrix,
    enumerate_reduced_words,
    highest_root,
    langlands_dual,
    num_positive_roots,
    parse_type,
    positive_roots,
    staircase_word,
    tight_pairs,
)
from engine_oracle import (
    k_shift,
    positive_definite_by_fractions,
    positive_roots_by_matrix,
    reduced_words_by_matrix,
)

A2 = cartan_matrix("A", 2)
A3 = cartan_matrix("A", 3)
B2 = cartan_matrix("B", 2)
G2 = cartan_matrix("G", 2)


def test_pinned_entries():
    assert A2.entries == ((2, -1), (-1, 2))
    assert B2.entries == ((2, -2), (-1, 2))
    assert G2.entries == ((2, -1), (-3, 2))
    # a(i, j) reads row i, column j in 1-based indexing
    assert B2.a(1, 2) == -2
    assert B2.a(2, 1) == -1


def test_parse_type_accepts_lowercase():
    assert parse_type("b2").entries == B2.entries
    assert parse_type("A3").entries == A3.entries


def test_parse_type_rejects_garbage():
    with pytest.raises(ValueError):
        parse_type("X9")
    with pytest.raises(ValueError):
        parse_type("A")


def test_cartan_from_entries_validates():
    with pytest.raises(ValueError):
        CartanMatrix(((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        CartanMatrix(((2, -1), (-1, 0)))


@pytest.mark.parametrize("entries, message", [
    (((2, -1),), "matrix is not square"),
    (((2, -1), (-1, 1)), "diagonal entries must equal 2"),
    (((2, 1), (1, 2)), "off-diagonal entries must be <= 0"),
    (((2, -1), (0, 2)), "zero pattern must be symmetric"),
    # d_2 = d_1 / 2 from the first edge, d_3 = d_2 and d_1 = d_3 around the cycle
    (((2, -1, -1), (-2, 2, -1), (-1, -1, 2)), "matrix is not symmetrizable"),
    (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), "matrix is not of finite type"),  # affine A2
    (((2, -2), (-2, 2)), "matrix is not of finite type"),  # affine A1
    (((2, -3), (-3, 2)), "matrix is not of finite type"),  # hyperbolic rank 2
])
def test_the_constructor_names_each_fault(entries, message):
    with pytest.raises(ValueError) as caught:
        CartanMatrix(entries)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        A2._replace(entries=entries)
    assert str(caught.value) == message


@pytest.mark.parametrize("entries", [
    ((2, -1.5), (-1, 2)),  # int() truncated this to A2
    ((2.0, -1), (-1, 2)),
    (("2", -1), (-1, 2)),
])
def test_cartan_from_entries_rejects_non_int_entries(entries):
    with pytest.raises(TypeError):
        CartanMatrix(entries)


FINITE_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(family, n) for family in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
NOT_FINITE = [
    ((2, -2), (-2, 2)),  # affine A1
    ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)),  # affine A3
    ((2, -3), (-3, 2)),  # hyperbolic rank 2
]


def test_sylvester_by_bareiss_matches_fractions():
    for family, n in FINITE_TYPES:
        c = cartan_matrix(family, n)
        for entries in (c.entries, langlands_dual(c).entries):
            sym = rootsys._symmetrizers(entries)
            assert rootsys._is_positive_definite(entries, sym)
            assert positive_definite_by_fractions(entries, sym)
    for entries in NOT_FINITE:
        sym = rootsys._symmetrizers(entries)
        assert not rootsys._is_positive_definite(entries, sym)
        assert not positive_definite_by_fractions(entries, sym)
        with pytest.raises(ValueError, match="^matrix is not of finite type$"):
            CartanMatrix(entries)


_EDGES = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4)]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(_EDGES),
                                             min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))))
def test_sylvester_by_bareiss_matches_fractions_on_random_matrices(problem):
    n, edges = problem
    entries = [[2 * (i == j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), (a, b) in zip(pairs, edges):
        entries[i][j], entries[j][i] = a, b
    try:
        sym = rootsys._symmetrizers(entries)
    except ValueError:
        assume(False)  # not symmetrizable
    assert rootsys._is_positive_definite(entries, sym) == positive_definite_by_fractions(
        entries, sym)


def test_langlands_dual_transposes():
    assert langlands_dual(B2).entries == ((2, -1), (-2, 2))
    assert langlands_dual(A3) == A3
    assert langlands_dual(langlands_dual(G2)) == G2
    for n in range(2, 6):
        assert langlands_dual(cartan_matrix("B", n)) == cartan_matrix("C", n)
    for c in (cartan_matrix("F", 4), G2):
        dual = langlands_dual(c)
        assert dual != c and dual.entries == tuple(zip(*c.entries))


@pytest.mark.parametrize(
    "cartan,count",
    [(A2, 3), (A3, 6), (B2, 4), (G2, 6), (cartan_matrix("A", 4), 10)],
)
def test_num_positive_roots(cartan, count):
    assert num_positive_roots(cartan) == count
    assert len(positive_roots(cartan)) == count


def test_highest_root_values():
    assert highest_root(A3) == (1, 1, 1)
    # alpha_1 is short in this B2 convention, so the long dominant root
    # doubles it
    assert highest_root(B2) == (2, 1)
    assert highest_root(G2) == (2, 3)


def test_beta_sequence_a2():
    assert beta_sequence(A2, (1, 2, 1)) == ((1, 0), (1, 1), (0, 1))
    assert beta_sequence(A2, (2, 1, 2)) == ((0, 1), (1, 1), (1, 0))


def test_beta_sequence_staircase_a3():
    assert beta_sequence(A3, staircase_word(3)) == (
        (0, 0, 1),
        (0, 1, 1),
        (0, 1, 0),
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    )


def test_beta_sequence_rejects_non_reduced():
    with pytest.raises(NotReduced, match="position 2"):
        beta_sequence(A2, (1, 1, 2))
    with pytest.raises(NotReduced):
        beta_sequence(B2, (1, 2, 1, 2, 1))


def test_beta_sequence_takes_a_list_word():
    # the cache keys on the word as a tuple, so a list is no TypeError
    assert beta_sequence(A2, [1, 2, 1]) == beta_sequence(A2, (1, 2, 1))


def test_beta_sequence_rejects_a_float_word_after_its_int_word():
    # (1.0, 2.0, 1.0) == (1, 2, 1) as a cache key; the letters must not pass
    # as ints once the int word is cached
    beta_sequence(A2, (1, 2, 1))
    with pytest.raises(TypeError):
        beta_sequence(A2, (1.0, 2.0, 1.0))


@pytest.mark.parametrize("word, error, message", [
    ((1, 1), NotReduced, "word is not reduced at position 2"),
    ((1, 3), ValueError, "letter 3 out of range at position 2"),
])
def test_beta_sequence_errors_raise_again(word, error, message):
    for _ in range(2):
        with pytest.raises(error, match=f"^{message}$"):
            beta_sequence(A2, word)


def test_staircase_word_shape():
    assert staircase_word(3) == (3, 2, 3, 1, 2, 3)
    assert staircase_word(4) == (4, 3, 4, 2, 3, 4, 1, 2, 3, 4)
    assert len(staircase_word(5)) == num_positive_roots(cartan_matrix("A", 5))


@pytest.mark.parametrize(
    "cartan,count",
    [(A2, 2), (A3, 16), (B2, 2), (G2, 2), (cartan_matrix("A", 4), 768)],
)
def test_reduced_word_counts(cartan, count):
    words = enumerate_reduced_words(cartan)
    assert len(words) == count
    assert len(set(words)) == count


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(rootsys, "MAX_WORDS", 5)
    with pytest.raises(CapExceeded, match="more than 5 reduced words"):
        enumerate_reduced_words(A3)


def test_staircase_bound_is_exact_in_type_a(monkeypatch):
    # The layer count before the walk is exact: at a cap equal to the count
    # the walk runs, one below it rejects with no walk. D4 and B4 stub the
    # walk (B4 takes seconds), which the count must reach.
    monkeypatch.setattr(rootsys, "MAX_WORDS", 16)
    assert len(enumerate_reduced_words(A3)) == 16
    monkeypatch.setattr(rootsys, "MAX_WORDS", 15)
    monkeypatch.setattr(rootsys, "longest_words", None)  # never reached
    with pytest.raises(CapExceeded, match="more than 15 reduced words"):
        enumerate_reduced_words(A3)
    for name, count in (("D4", 2316), ("B4", 24024)):
        monkeypatch.setattr(rootsys, "MAX_WORDS", count)
        monkeypatch.setattr(rootsys, "longest_words", lambda *args: ["walked"])
        assert enumerate_reduced_words(parse_type(name)) == ["walked"]
        monkeypatch.setattr(rootsys, "MAX_WORDS", count - 1)
        monkeypatch.setattr(rootsys, "longest_words", None)
        with pytest.raises(CapExceeded, match=f"more than {count - 1} reduced words"):
            enumerate_reduced_words(parse_type(name))


@pytest.mark.parametrize(
    "name, up_front",
    [("A4", False), ("D5", True), ("F4", True), ("A5", True), ("D6", True),
     ("E6", True), ("E7", True), ("E8", True)],
)
def test_reduced_word_cap_before_the_walk(monkeypatch, name, up_front):
    # A4 has 768 reduced words of w0, so the walk runs; D5 (12,985,968),
    # F4 (2,144,892) and the larger types pass the cap within the count.
    walks = []
    monkeypatch.setattr(rootsys, "longest_words", lambda *args: walks.append(args) or [])
    if up_front:
        with pytest.raises(CapExceeded, match="more than 100000 reduced words"):
            enumerate_reduced_words(parse_type(name))
    else:
        assert enumerate_reduced_words(parse_type(name)) == []
    assert len(walks) == (0 if up_front else 1)


def test_tight_pairs_next_occurrence():
    assert tight_pairs((1, 2, 1)) == [(1, 3)]
    assert tight_pairs(staircase_word(3)) == [(1, 3), (2, 5), (3, 6)]
    assert tight_pairs(()) == []


@given(st.sampled_from(enumerate_reduced_words(A3)))
def test_betas_permute_positive_roots(word):
    betas = beta_sequence(A3, word)
    assert sorted(betas) == sorted(positive_roots(A3))


@given(st.sampled_from(enumerate_reduced_words(B2) + enumerate_reduced_words(G2)))
def test_rank2_betas_distinct_and_positive(word):
    cartan = B2 if len(word) == 4 else G2
    betas = beta_sequence(cartan, word)
    assert len(set(betas)) == len(betas)
    assert all(all(x >= 0 for x in b) for b in betas)


@given(st.sampled_from(enumerate_reduced_words(A3)))
def test_tight_pairs_point_at_same_letter(word):
    for k, s in tight_pairs(word):
        assert k < s and word[s - 1] == word[k - 1]
        assert all(word[j - 1] != word[k - 1] for j in range(k + 1, s))


@given(st.lists(st.integers(1, 4), max_size=24))
def test_tight_pairs_match_the_forward_scan(word):
    every = range(1, len(word) + 1)
    assert tight_pairs(word) == [
        (k, s) for k in every if (s := k_shift(word, k)) is not None
    ]


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2",
])
def test_reduced_words_match_the_matrix_walk(name):
    # the same words in the same order; B4 has 24,024
    c = parse_type(name)
    assert enumerate_reduced_words(c) == reduced_words_by_matrix(c)


def test_positive_roots_match_the_matrix_walk():
    for family, n in FINITE_TYPES:
        c = cartan_matrix(family, n)
        for cartan in (c, langlands_dual(c)):
            assert positive_roots(cartan) == positive_roots_by_matrix(cartan)
