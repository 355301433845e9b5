import pytest
from hypothesis import given, settings, strategies as st

from conekit import conelab, hallalg, rootsys
from conekit.rootsys import CapExceeded, NotReduced, cartan_matrix
from conekit.quiverrep import (
    ConsistencyFailure,
    NotAdapted,
    RepContext,
    _euler_table,
    all_orientations,
    check_superfluous_conjecture,
    enumerate_adapted_words,
    equioriented_a,
    euler_form,
    is_adapted,
    ktheory_cones,
    parse_quiver,
    quiver_from_arrows,
)
from engine_oracle import (
    adapted_words_by_matrix,
    euler_table_by_pairs,
    is_adapted_by_reflection,
)

STAIR3 = (3, 2, 3, 1, 2, 3)


def _staircase_ctx() -> RepContext:
    return RepContext(equioriented_a(3), STAIR3)


def test_parse_quiver_grammar():
    q = parse_quiver("1>2,2>3")
    assert q.n == 3
    assert q.arrows == ((1, 2), (2, 3))
    assert q.sinks() == (3,)
    with pytest.raises(ValueError):
        parse_quiver("1-2")
    with pytest.raises(ValueError):
        parse_quiver("")


def test_quiver_from_arrows_rejects_non_dynkin():
    with pytest.raises(ValueError):
        quiver_from_arrows(2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        quiver_from_arrows(3, ((1, 2), (2, 3), (3, 1)))


def test_equioriented_shape():
    q = equioriented_a(4)
    assert q.arrows == ((1, 2), (2, 3), (3, 4))
    assert q.sinks() == (4,)


def test_equal_quivers_built_by_other_routes():
    # A quiver is its matrix's entries and its arrows, in order.
    a3 = all_orientations(cartan_matrix("A", 3))
    assert [str(q) for q in a3] == ["1>2,2>3", "2>1,2>3", "1>2,3>2", "2>1,3>2"]
    assert equioriented_a(3) == a3[0] == parse_quiver("1>2,2>3")
    assert parse_quiver("1>2,3>2,4>2") in all_orientations(cartan_matrix("D", 4))
    assert parse_quiver("2>3,1>2") != a3[0]


def test_adaptedness():
    q = equioriented_a(3)
    assert is_adapted(q, STAIR3)
    assert not is_adapted(q, (1, 2, 3, 1, 2, 1))


@pytest.mark.parametrize("family, rank", [("A", 3), ("A", 4), ("D", 4)])
def test_adaptedness_matches_reflected_quivers(family, rank):
    # Arrow counts against a new quiver per letter: every adapted word of
    # every orientation, and on two of them each letter replaced by every
    # other vertex (a wrong sink, or a reflection off the word's path) and
    # by 0 and n + 1 (out of range).
    rejected = 0
    for q in all_orientations(cartan_matrix(family, rank)):
        words = enumerate_adapted_words(q)
        for word in words:
            assert is_adapted(q, word) and is_adapted_by_reflection(q, word)
        for word in words[:2]:
            for i in range(len(word)):
                for v in range(q.n + 2):
                    bad = word[:i] + (v,) + word[i + 1:]
                    expected = is_adapted_by_reflection(q, bad)
                    assert is_adapted(q, bad) == expected
                    rejected += not expected
    assert rejected > 0


def test_adapted_words_match_the_matrix_walk():
    # Arrow counts and the weight walk against a new quiver and a matrix
    # step per letter: the same words in the same order for every
    # orientation of A2-A5 and D4, and the first D5 orientation (18,720).
    cases = [q for family, rank in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4)]
             for q in all_orientations(cartan_matrix(family, rank))]
    d5 = all_orientations(cartan_matrix("D", 5))[0]
    for q in cases + [d5]:
        assert enumerate_adapted_words(q) == adapted_words_by_matrix(q)
    assert len(enumerate_adapted_words(d5)) == 18720


def test_sink_sequences_need_not_be_reduced():
    # (3,2,1,3,2,1) reflects through sinks all the way but is not reduced,
    # so it passes is_adapted yet never appears in the enumeration
    q = equioriented_a(3)
    word = (3, 2, 1, 3, 2, 1)
    assert is_adapted(q, word)
    assert word not in enumerate_adapted_words(q)
    with pytest.raises(NotReduced):
        RepContext(q, word)


def test_adapted_words_share_the_word_cap(monkeypatch):
    q = equioriented_a(3)
    assert len(enumerate_adapted_words(q)) == 2
    monkeypatch.setattr(rootsys, "MAX_WORDS", 1)
    with pytest.raises(CapExceeded, match="more than 1 adapted words"):
        enumerate_adapted_words(q)


def test_orientations_share_the_word_cap(monkeypatch):
    # A4 has three edges, so eight orientations; the cap is read per call.
    a4 = cartan_matrix("A", 4)
    monkeypatch.setattr(rootsys, "MAX_WORDS", 7)
    with pytest.raises(CapExceeded, match="^more than 7 orientations$"):
        all_orientations(a4)
    monkeypatch.setattr(rootsys, "MAX_WORDS", 8)
    assert len(set(all_orientations(a4))) == 8


@pytest.mark.parametrize("value", [2.7, 2.0])
@pytest.mark.parametrize("call", [
    lambda x: RepContext(parse_quiver("1>2"), (x, 1, 2)),
    lambda x: quiver_from_arrows(2, [(1, x)]),
    lambda x: hallalg.normalize_module([(1, x)]),
    lambda x: hallalg.hall_product(2, ((1, 1),), ((x, 2),)),
], ids=["RepContext", "quiver_from_arrows", "normalize_module", "hall_product"])
def test_integer_inputs_are_checked_not_truncated(call, value):
    # int() read 2.7 as 2 and accepted 2.0; a letter, an arrow end or an
    # interval end must be an integer itself.
    call(2)
    with pytest.raises(TypeError):
        call(value)


def test_adapted_word_counts():
    assert enumerate_adapted_words(equioriented_a(2)) == [(2, 1, 2)]
    assert enumerate_adapted_words(equioriented_a(3)) == [
        (3, 2, 1, 3, 2, 3),
        STAIR3,
    ]
    counts = [len(enumerate_adapted_words(q)) for q in all_orientations(cartan_matrix("A", 3))]
    assert counts == [2, 4, 4, 2]
    assert len(enumerate_adapted_words(equioriented_a(4))) == 12


def test_adapted_word_count_d4():
    center = quiver_from_arrows(4, ((1, 2), (3, 2), (4, 2)))
    words = enumerate_adapted_words(center)
    assert len(words) == 216
    assert all(is_adapted(center, w) for w in words[:10])


def test_euler_form_values():
    q = equioriented_a(3)
    assert euler_form(q, (1, 0, 0), (0, 1, 0)) == -1
    assert euler_form(q, (0, 1, 0), (1, 0, 0)) == 0
    # each indecomposable is rigid with endomorphism algebra k
    ctx = _staircase_ctx()
    for beta in ctx.betas:
        assert euler_form(q, beta, beta) == 1
    with pytest.raises(ValueError):
        euler_form(q, (1, 0), (0, 1, 0))


@pytest.mark.parametrize("top", [1, 2**5, 2**12, 2**25])
def test_euler_table_at_each_field_width(top):
    # Made-up roots with an entry of `top`: their bounds (5, 2080, about
    # 2^25 and 2^51) need fields of 1, 2, 4 and 8 bytes, and the memoryview
    # cast must read back both signs in each of the four formats.
    q = equioriented_a(3)
    roots = [(top, 0, 1), (1, top, 0), (0, 1, top), (2, 1, 1), (0, 0, 1)]
    table = _euler_table(q, roots)
    assert table == euler_table_by_pairs(q, roots)
    assert min(map(min, table)) < 0 < max(map(max, table))


def test_euler_table_width_guard():
    # No 8-byte field holds a bound near 2^140: a ConsistencyFailure, under
    # python -O too, never a StopIteration from the width search.
    with pytest.raises(ConsistencyFailure, match="does not fit 8 bytes"):
        _euler_table(equioriented_a(2), [(1, 0), (2**70, 1)])


def _tamper(ctx: RepContext, entries: dict) -> RepContext:
    table = [list(row) for row in ctx._euler]
    for (k, l), x in entries.items():
        table[k - 1][l - 1] = x
    ctx._euler = tuple(map(tuple, table))
    return ctx


# Each message recorded from the pairwise loop over (k, l), k <= l, that
# checks Hom(U_k, U_l) and then Ext1(U_l, U_k) for every pair.
@pytest.mark.parametrize("entries, message", [
    ({(2, 4): -1}, "negative Hom dimension at (2,4): enumeration not directed"),
    ({(3, 3): -1}, "negative Hom dimension at (3,3): enumeration not directed"),
    ({(4, 2): 1}, "negative Ext dimension at (4,2): enumeration not directed"),
    ({(1, 4): -1, (3, 1): 1}, "negative Ext dimension at (3,1): enumeration not directed"),
    ({(2, 3): -1, (5, 1): 1}, "negative Ext dimension at (5,1): enumeration not directed"),
    ({(5, 6): -1, (6, 2): 1, (3, 5): -1},
     "negative Ext dimension at (6,2): enumeration not directed"),
    ({(2, 4): 0}, "mesh arrow 2->4 but Hom(U_2,U_4) = 0"),
])
def test_validate_names_the_first_failing_pair(entries, message):
    ctx = _tamper(_staircase_ctx(), entries)
    with pytest.raises(ConsistencyFailure) as info:
        ctx._validate()
    assert str(info.value) == message


def _first_directedness_failure(ctx: RepContext):
    """The message of the pairwise loop over (k, l), k <= l, Hom(U_k, U_l)
    then Ext1(U_l, U_k), or None when every pair passes."""
    for k in range(1, ctx.N + 1):
        for l in range(k, ctx.N + 1):
            if ctx.hom_indec(k, l) < 0:
                return f"negative Hom dimension at ({k},{l}): enumeration not directed"
            if l > k and ctx.ext_indec(l, k) < 0:
                return f"negative Ext dimension at ({l},{k}): enumeration not directed"
    return None


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       st.integers(-2, 2), max_size=5))
def test_validate_matches_the_pairwise_loop(entries):
    # `_validate` searches only the first row the fast check flags.
    ctx = _tamper(_staircase_ctx(), entries)
    expected = _first_directedness_failure(ctx)
    try:
        ctx._validate()
    except ConsistencyFailure as exc:
        message = str(exc)
    else:
        message = None
    if expected is not None or (message or "").startswith("negative"):
        assert message == expected


def test_context_requires_adapted_word():
    with pytest.raises(NotAdapted):
        RepContext(equioriented_a(3), (1, 2, 3, 1, 2, 1))


def test_ar_structure_staircase():
    ctx = _staircase_ctx()
    data = ctx.ar_data()
    assert data["betas"] == [
        [0, 0, 1],
        [0, 1, 1],
        [0, 1, 0],
        [1, 1, 1],
        [1, 1, 0],
        [1, 0, 0],
    ]
    assert data["projectives"] == [1, 2, 4]
    assert data["injectives"] == [4, 5, 6]
    # tau pairs each non-projective with the predecessor of its mesh
    assert data["translation"] == [[3, 1], [5, 2], [6, 3]]
    assert RepContext(equioriented_a(3), STAIR3).ar_data() == data


def test_hom_ext_directedness():
    ctx = _staircase_ctx()
    for k in range(1, 7):
        assert ctx.hom_indec(k, k) == 1
        assert ctx.ext_indec(k, k) == 0
        for l in range(k + 1, 7):
            # Hom runs forward along the adapted order, Ext backward
            assert ctx.hom_indec(l, k) == 0
            assert ctx.ext_indec(k, l) == 0


def test_ext_pairs_staircase():
    ctx = _staircase_ctx()
    pairs = [
        (k, l)
        for k in range(1, 7)
        for l in range(k + 1, 7)
        if ctx.ext_indec(l, k)
    ]
    assert pairs == [(1, 3), (1, 5), (2, 5), (2, 6), (3, 6)]
    for k, l in pairs:
        assert ctx.ext_indec(l, k) == 1


def test_middle_terms_staircase():
    ctx = _staircase_ctx()
    assert ctx.middle_terms(2, 5) == [(0, 0, 1, 1, 0, 0)]
    assert ctx.middle_terms(1, 3) == [(0, 1, 0, 0, 0, 0)]
    assert ctx.middle_terms(1, 2) == []
    with pytest.raises(ValueError):
        ctx.middle_terms(5, 2)
    with pytest.raises(ValueError):
        ctx.middle_terms(1, 3, mode="fast")


def test_middle_term_dimension_vectors_add_up():
    for q in all_orientations(cartan_matrix("A", 3)):
        for word in enumerate_adapted_words(q):
            ctx = RepContext(q, word)
            for k in range(1, 7):
                for l in range(k + 1, 7):
                    for mid in ctx.middle_terms(k, l):
                        total = tuple(
                            sum(m * ctx.betas[t][v] for t, m in enumerate(mid))
                            for v in range(3)
                        )
                        expected = tuple(
                            ctx.betas[k - 1][v] + ctx.betas[l - 1][v]
                            for v in range(3)
                        )
                        assert total == expected


def test_middle_term_modes_agree_in_type_a():
    for q in all_orientations(cartan_matrix("A", 3)):
        for word in enumerate_adapted_words(q):
            ctx = RepContext(q, word)
            for k in range(1, 7):
                for l in range(k + 1, 7):
                    assert ctx.middle_terms(k, l) == ctx.middle_terms(
                        k, l, mode="filter"
                    )


def test_degeneration_order_a2():
    ctx = RepContext(equioriented_a(2), (2, 1, 2))
    s2, p1, s1 = ctx.unit(1), ctx.unit(2), ctx.unit(3)
    split = tuple(a + b for a, b in zip(s1, s2))
    assert ctx.degenerates_properly(p1, s1, s2)
    assert not ctx.degenerates_properly(split, s1, s2)
    with pytest.raises(Exception):
        ctx.degenerates_properly(s1, s1, s2)


def test_superfluous_check_reports_agreement():
    report = check_superfluous_conjecture(equioriented_a(3), STAIR3)
    assert report["agreement"] is True
    assert report["counterexamples"] == []
    assert report["pairs_checked"] == len(report["pairs"])
    assert report["pairs_checked"] >= 5


def test_ktheory_cones_staircase():
    out = ktheory_cones(equioriented_a(3), STAIR3)
    assert out["duality_verdict"] == "equal"
    assert out["stabilized"] is True
    assert out["lambda_rank"] == 3
    assert out["D_independent"] is True
    assert out["D_count"] == len(out["D_generators"])
    assert out["D_count"] == 6 - 3


def test_ktheory_cones_a2():
    out = ktheory_cones(equioriented_a(2), (2, 1, 2))
    assert out["duality_verdict"] == "equal"
    assert out["lambda_rank"] == 1
    assert out["lambda_basis"] == [[1, -1, 1]]
    assert out["D_count"] == 1


# -- relabelled contexts read one walk per quiver -------------------------------


def _adapted_quivers():
    yield from all_orientations(cartan_matrix("A", 3))
    yield from all_orientations(cartan_matrix("A", 4))
    yield parse_quiver("1>2,3>2,4>2")


@pytest.mark.parametrize("quiver", list(_adapted_quivers()), ids=str)
def test_relabelled_terms_match_a_fresh_walk(quiver):
    # The first adapted word walks; every other word reads its terms through
    # the roots, and must find what a walk of its own finds.
    first, *words = enumerate_adapted_words(quiver)
    source = RepContext(quiver, first)
    for word in words:
        fresh, ctx = RepContext(quiver, word), source.relabelled(word)
        assert ctx.word == word
        assert dict(ctx.oracle_middle_terms()) == {
            p: fresh.middle_terms(*p) for p in fresh.ext_pairs()}
        assert dict(ctx.relaxed_middle_terms()) == {
            p: fresh.middle_terms(*p, mode="relaxed") for p in fresh.ext_pairs()}
        got = conelab.check_conjecture(quiver, word, ctx=ctx)
        want = conelab.check_conjecture(quiver, word, ctx=fresh)
        assert got.verdict == want.verdict == "equal"
        assert got.degree_cone.inequalities == want.degree_cone.inequalities
        assert ctx.superfluous_check() == fresh.superfluous_check()


def _relabelled_pair():
    quiver = parse_quiver("1>2,3>2,4>2")
    first, second = enumerate_adapted_words(quiver)[:2]
    return RepContext(quiver, first), second


@pytest.mark.parametrize("mode", ["oracle", "relaxed"])
def test_a_tampered_kept_term_fails_the_relabelled_check(mode):
    source, word = _relabelled_pair()
    kept = dict(getattr(source, f"{mode}_middle_terms")())
    terms = next(terms for terms in kept.values() if terms)
    x = list(terms[0])
    x[x.index(0)] = 1  # one multiplicity changed: the dimension vector is off
    terms[0] = tuple(x)
    with pytest.raises(ConsistencyFailure):
        getattr(source.relabelled(word), f"{mode}_middle_terms")()


@pytest.mark.parametrize("mode", ["oracle", "relaxed"])
def test_a_dropped_ext_pair_fails_the_relabelled_check(mode):
    source, word = _relabelled_pair()
    getattr(source, f"{mode}_middle_terms")()
    del source._kept[mode][source.ext_pairs()[-1]]
    with pytest.raises(ConsistencyFailure, match="Ext pairs"):
        getattr(source.relabelled(word), f"{mode}_middle_terms")()


def test_relabelled_takes_only_words_of_its_quiver():
    source = _staircase_ctx()
    other = all_orientations(cartan_matrix("A", 3))[1]
    word = enumerate_adapted_words(other)[0]
    assert not is_adapted(source.quiver, word)
    with pytest.raises(ValueError):
        source.relabelled(word)
