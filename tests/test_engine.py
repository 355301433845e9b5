"""The middle-term engine: enumerator, degeneration test and cone arithmetic.

The digests below were recorded before the packed filling walk, the sparse
degeneration test and the integer-only cone arithmetic replaced the older
tuple and `Fraction` routes; the same inputs must keep producing the same
JSON. The K-theory digest also predates the packed Hom comparison, the
single walk for both bounds, the elimination-free kernel coordinates, the
verdicts read off the rays of D^v and those rays read off the AR mesh
vectors.
The E7 digest predates the Hom budget inside the filling walk, the packed
degeneration test and the fraction-free row reduction. The slow routes stay
in `engine_oracle.py` as references.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from operator import le
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conekit import certify, conelab, polycone, quiverrep
from conekit.cli import run
from conekit.linalg import dot, integerize, nullspace_basis, rank, row_space_basis
from conekit.polycone import (
    DimensionMismatch,
    RationalCone,
    _reduce_mod_rows,
    dd_vrep,
    with_lines,
)
from conekit.quiverrep import (
    ConsistencyFailure,
    RepContext,
    all_orientations,
    bounded_multisets,
    enumerate_adapted_words,
    equioriented_a,
    ktheory_cones,
)
from conekit.rootsys import (
    CapExceeded,
    cartan_matrix,
    langlands_dual,
    num_positive_roots,
    reflect_step,
    staircase_word,
    tight_pairs,
)
from engine_oracle import (
    brute_extreme_rays,
    brute_multisets,
    cone_generated_by,
    containment_witness,
    degenerates_properly_sparse,
    dim_vector,
    dual_by_second_dd,
    euler_table_by_pairs,
    extension_generators_by_mesh,
    extension_generators_by_pairs,
    hom_dominated_sparse,
    integerize_by_fractions,
    k_shift,
    mesh_arrows_by_scan,
    middle_terms_by_filter,
    nullspace_by_fractions,
    rank_by_fractions,
    reach_by_closure,
    reduce_mod_rows_by_fractions,
    row_space_by_fractions,
)


def first_adapted_word(quiver, order=sorted) -> tuple[int, ...]:
    """The first adapted word when each step tries the sinks in `order`: by
    default the lexicographically first, smallest usable sink first."""
    c = quiver.cartan
    total = num_positive_roots(c)

    def walk(q, m, prefix):
        if len(prefix) == total:
            return tuple(prefix)
        for v in order(q.sinks()):
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
    ("E", 7): "92bc15e27b23018fed850e066fc405292ef7843840c710eda9e5aadb0110a948",
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


def test_ktheory_d4_pinned():
    # K-theory verdicts off type A. Below B* = 9, `stabilized` compares bound
    # b with b + 1 only: it reads True at bound 7, yet bound 8 grows the cone
    # again, and the verdict is `equal` first at bound 9 (a CI known-answer
    # step).
    quiver = quiverrep.parse_quiver("1>2,3>2,4>2")
    reports = [ktheory_cones(quiver, (2, 1, 3, 4) * 3, b) for b in (5, 7, 8)]
    assert all(r["duality_verdict"] == "not_equal" and "witness" in r for r in reports)
    assert [r["stabilized"] for r in reports] == [False, True, False]
    assert _digest(reports) == (
        "8f1778030f0735633c2324d1c9cc576f9cb8e022dac7c7c95e821117c69e0c22"
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


@st.composite
def _budget_problem(draw):
    # Exact coordinates first, then 1 or 2 budgets; every column has a
    # positive exact entry, as `_fillings` requires of an exact walk.
    exact_part = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    budgets = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    head = st.lists(
        st.integers(0, 4), min_size=len(exact_part), max_size=len(exact_part)
    ).filter(any)
    tail = st.lists(st.integers(0, 5), min_size=len(budgets), max_size=len(budgets))
    columns = draw(st.lists(st.tuples(head, tail), min_size=0, max_size=4))
    return tuple(exact_part), tuple(budgets), [tuple(h + t) for h, t in columns]


@settings(max_examples=300, deadline=None)
@given(_budget_problem(), st.booleans())
def test_filling_walk_with_budgets_matches_brute_force(problem, exact):
    # the walk of oracle middle terms: exact fields, then budget fields
    exact_part, budgets, columns = problem
    target = exact_part + budgets
    fits = [t for t, col in enumerate(columns) if all(map(le, col, target))]
    width = max(target).bit_length() + 1
    full = [(1 << width) - 1] * len(exact_part)
    got, rests = quiverrep._fillings(
        quiverrep.pack(target, width),
        [quiverrep.pack(columns[t], width) for t in fits],
        fits,
        len(columns),
        width,
        quiverrep.pack([1 << (width - 1)] * len(target), width),
        quiverrep.pack(full, width) if exact else 0,
    )
    want = brute_multisets(target, columns, exact=False)
    if exact:
        want = [
            n for n in want
            if all(
                sum(m * col[i] for m, col in zip(n, columns)) == x
                for i, x in enumerate(exact_part)
            )
        ]
    assert got == want
    # beside each result, the remainder the walk held: the target less the
    # chosen columns, field by field
    assert rests == [
        quiverrep.pack([x - sum(m * col[i] for m, col in zip(n, columns))
                        for i, x in enumerate(target)], width)
        for n in got
    ]


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
    # a column must be as long as the target, nonnegative and nonzero
    with pytest.raises(DimensionMismatch):
        bounded_multisets((2,), [(1, 5)])
    with pytest.raises(ValueError):
        bounded_multisets((2, 2), [(1, -1), (0, 1)])
    for columns in ([(0,), (1,)], [(1,), (0,)]):
        with pytest.raises(ValueError):
            bounded_multisets((1,), columns)


def test_bounded_multisets_cap(monkeypatch):
    monkeypatch.setattr(quiverrep, "MAX_MULTISETS", 3)
    assert len(bounded_multisets((2,), [(1,)], exact=False)) == 3
    with pytest.raises(CapExceeded, match="more than 3 modules"):
        bounded_multisets((3,), [(1,)], exact=False)
    with pytest.raises(CapExceeded, match="more than 3 modules"):
        bounded_multisets((6, 6), [(1, 1), (2, 2)])


# -- K-theory's packed Hom comparison against the sparse sum


def _ktheory_cases():
    for quiver in all_orientations(cartan_matrix("A", 3)):
        for word in enumerate_adapted_words(quiver):
            yield quiver, word
    yield equioriented_a(4), staircase_word(4)
    d4 = all_orientations(cartan_matrix("D", 4))[0]
    yield d4, first_adapted_word(d4)


def test_packed_hom_comparison_matches_sparse_reference():
    # The generators from pairs of disjoint support, compared by the packed
    # fields read off the walk's remainders, against every pair compared by
    # the sparse sum: the same primitive differences, each at the least
    # height where it occurs. Each case runs at its default bound b and at
    # b - 1 and b + 1; the D4 word (2,1,3,4)*3 also at 6-8, below its
    # B* = 9, where `stabilized` walks one height past the bound.
    cases = 0
    for quiver, word in _ktheory_cases():
        ctx = quiverrep.RepContext(quiver, word)
        b = ctx.default_ktheory_bound()
        for bound in (b - 1, b, b + 1):
            assert ctx._extension_generators(bound) == extension_generators_by_pairs(ctx, bound)
        cases += 1
    assert cases == 14
    ctx = quiverrep.RepContext(D4_STAR, (2, 1, 3, 4) * 3)
    for bound in (6, 7, 8):
        assert ctx._extension_generators(bound) == extension_generators_by_pairs(ctx, bound)


def test_extension_generators_match_the_mesh_reference():
    # The module walk against R.N^m, the cone on the mesh vectors, at every
    # bound from 1 to one past the default: every adapted word of A2 and of
    # each A3 orientation, the first word of each A4 orientation, and the D4
    # word (2,1,3,4)*3 at bounds 1-8, below its B* = 9.
    cases = [(quiver, word, None) for rank in (2, 3)
             for quiver in all_orientations(cartan_matrix("A", rank))
             for word in enumerate_adapted_words(quiver)]
    cases += [(quiver, first_adapted_word(quiver), None)
              for quiver in all_orientations(cartan_matrix("A", 4))]
    cases.append((D4_STAR, (2, 1, 3, 4) * 3, 8))
    for quiver, word, top in cases:
        ctx = RepContext(quiver, word)
        for bound in range(1, (top or ctx.default_ktheory_bound() + 1) + 1):
            assert ctx._extension_generators(bound) == extension_generators_by_mesh(ctx, bound)
    assert len(cases) == 23


# -- K-theory verdicts from the rays of D^v against E's double description


def _dual_rays_with_heights(ctx, report):
    """D^v from the report's D generators, and each of its rays with ht(r+)
    of the primitive multiplicity vector on it, read off `lambda_basis`."""
    lam = report["lambda_basis"]
    d_dual = RationalCone.from_inequalities(report["lambda_rank"], report["D_generators"])
    rays = []
    for r in d_dual.rays:
        vec = integerize([dot(r, column) for column in zip(*lam)])
        rays.append((r, sum(x * sum(b) for x, b in zip(vec, ctx.betas) if x > 0)))
    return d_dual, rays


def _ktheory_dd_cases(family, rank):
    """Every adapted word of A2 and A3, the first of each A4 orientation,
    and the D4 word whose verdict is `equal` first at bound 9."""
    if family == "D":
        yield quiverrep.parse_quiver("1>2,3>2,4>2"), (2, 1, 3, 4) * 3
        return
    for quiver in all_orientations(cartan_matrix(family, rank)):
        words = enumerate_adapted_words(quiver)
        for word in words if rank < 4 else words[:1]:
            yield quiver, word


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_ktheory_verdicts_match_extension_cone_dd(family, rank):
    # At every bound b up to the default, against B*, the largest ray height
    # of D^v. E_b is read through its dual, the cone cut out by its
    # generators: E_b lies in D^v exactly when the cone generated by D lies
    # in that dual, and E_{b+1} in E_b exactly when the dual of E_b lies in
    # that of E_{b+1}. Up to B*, that dual is expanded by DD, and E_b by its
    # forms, the dual's rays and lines, is compared with D^v: it equals D^v
    # exactly at B*, and a `not_equal` witness is the one the search over
    # both expanded cones finds. Above B*, E_b holds the generators of
    # E_{B*} = D^v and lies in D^v, so it is D^v with no DD (on D4, E_10's
    # dual would be a DD of 2,235 forms).
    for quiver, word in _ktheory_dd_cases(family, rank):
        ctx = RepContext(quiver, word)
        default = ctx.default_ktheory_bound()
        reports = {}
        for b in range(1, default + 2):
            try:
                reports[b] = ctx.ktheory_cones(b)
            except ValueError:
                assert not reports  # no generators below the first bound with some
        assert reports[default]["duality_verdict"] == "equal"
        m = reports[default]["lambda_rank"]
        d_cone = cone_generated_by(m, reports[default]["D_generators"])
        for b in range(min(reports), default + 1):
            report = reports[b]
            d_dual, rays = _dual_rays_with_heights(ctx, report)
            top = max(h for _, h in rays)
            assert (report["duality_verdict"] == "equal") == (b >= top)
            e_dual = RationalCone.from_inequalities(m, report["E_generators"])
            e_next_dual = RationalCone.from_inequalities(m, reports[b + 1]["E_generators"])
            if b <= top:
                # E's own DD first: from B* on, D's rays are among E's
                # generators, and `contains` would hand the dual D's sides.
                e_cone = RationalCone.from_inequalities(m, with_lines(*e_dual.vrep()))
                assert e_dual.contains(d_cone)
                assert e_cone.contains(d_dual) == (b == top)
                assert report["stabilized"] == e_next_dual.contains(e_dual)
            else:
                e_top = {tuple(g) for g in reports[top]["E_generators"]}
                assert e_top <= set(map(tuple, report["E_generators"]))
                assert e_dual.contains(d_cone) and e_next_dual.contains(d_cone)
                assert report["stabilized"]
            if b < top:
                assert report["witness"] == containment_witness(e_cone, d_dual)


@pytest.mark.parametrize("bound, size", [(6, 153), (7, 309)])
def test_stabilized_fallback_expands_the_dual_of_e_b_once(monkeypatch, bound, size):
    # Below B* = 9 with no ray of D^v at height b + 1, `stabilized` tests the
    # generators of height b + 1 on the dual of E_b: one expansion, of E_b's
    # generators as forms, and none of E_{b+1}.
    ctx = RepContext(quiverrep.parse_quiver("1>2,3>2,4>2"), (2, 1, 3, 4) * 3)
    calls, both_sides = [], polycone._both_sides

    def counted(dim, forms):
        calls.append(forms)
        return both_sides(dim, forms)

    monkeypatch.setattr(polycone, "_both_sides", counted)
    report = ctx.ktheory_cones(bound)
    assert report["stabilized"] and report["duality_verdict"] == "not_equal"
    assert calls == [[tuple(g) for g in report["E_generators"]]]
    assert len(calls[0]) == size


def test_dependent_hom_functionals_raise():
    # A non-projective Hom functional patched to zero vanishes on its own
    # mesh vector, so D.R = I fails: a program fault, not a verdict.
    quiver = all_orientations(cartan_matrix("A", 4))[1]
    ctx = RepContext(quiver, first_adapted_word(quiver))
    victim, hom = max(ctx.translation), ctx.hom_indec
    ctx.hom_indec = lambda k, l: 0 if k == victim else hom(k, l)
    with pytest.raises(ConsistencyFailure,
                       match=r"\[U_10, r_10\] = 0, expected 1: .* not dual bases"):
        ctx.ktheory_cones()


@pytest.mark.parametrize("family, n", [("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_mesh_rays_match_dual_dd(family, n):
    # The mesh vectors in lambda-coordinates, read at each basis vector's
    # own free column, are exactly the rays of D^v's DD, from m independent
    # forms, on every case that the extension cone's DD checks.
    for quiver, word in _ktheory_dd_cases(family, n):
        ctx = RepContext(quiver, word)
        report = ctx.ktheory_cones()
        m, lam = report["lambda_rank"], report["lambda_basis"]
        assert rank(report["D_generators"]) == m
        free = [max(i for i, x in enumerate(b) if x) for b in lam]
        mesh = sorted(integerize([Fraction(r[c], b[c]) for b, c in zip(lam, free)])
                      for r in ctx.mesh_vectors().values())
        assert tuple(mesh) == RationalCone.from_inequalities(m, report["D_generators"]).rays


# First orientation, with the `sink_walk` word of perfbench/workloads.py
# from random.Random(0), and B* read off the mesh vectors alone.
SINK_WALK_B_STAR = {
    ("D", 5): ("4,5,3,5,2,1,4,3,2,1,5,4,3,4,2,5,3,1,2,1", 12),
    ("E", 6): ("6,5,4,6,2,3,1,5,4,6,3,5,6,2,1,4,3,1,2,5,6,4,2,3,5,1,4,2,6,5,6,3,4,2,"
               "5,6", 21),
    ("E", 7): ("7,6,5,4,7,2,3,1,6,5,4,3,2,1,7,6,7,5,6,4,5,3,1,2,7,4,2,6,3,1,7,5,6,7,"
               "4,2,5,3,6,1,7,4,3,2,1,5,6,7,4,2,5,3,1,6,4,2,3,1,5,4,2,3,1", 33),
    ("E", 8): ("8,7,6,5,8,4,2,3,1,7,6,5,8,7,8,6,4,5,3,1,2,7,4,3,1,6,8,5,2,4,7,3,6,5,"
               "1,8,2,4,3,1,7,2,6,8,5,4,3,7,8,1,2,6,7,8,5,6,7,8,4,5,2,6,7,3,1,4,2,8,"
               "5,3,1,6,7,8,4,2,5,6,3,7,8,4,2,5,6,7,8,1,3,4,2,1,5,3,4,2,6,5,1,7,6,8,"
               "3,4,2,7,1,5,3,4,6,1,2,5,3,1,4,2,3,1", 57),
}


@pytest.mark.parametrize("family, n", sorted(SINK_WALK_B_STAR))
def test_b_star_from_mesh_vectors(family, n):
    # No module walk: each ray r_m has ht(r_m+) = ht U_m + ht tau U_m, and
    # B* is the largest of them.
    word, b_star = SINK_WALK_B_STAR[family, n]
    ctx = RepContext(all_orientations(cartan_matrix(family, n))[0],
                     tuple(map(int, word.split(","))))
    heights = [sum(b) for b in ctx.betas]
    mesh = ctx.mesh_vectors()
    assert len(mesh) == ctx.N - ctx.n
    tops = [sum(x * h for x, h in zip(r, heights) if x > 0) for r in mesh.values()]
    assert tops == [heights[m - 1] + heights[ctx.translation[m] - 1] for m in mesh]
    assert max(tops) == b_star


def sink_walk_word(quiver, rng) -> tuple[int, ...]:
    """The `sink_walk` word of perfbench/workloads.py: sinks tried in an
    order shuffled by rng at each step."""
    def shuffled(sinks):
        sinks = list(sinks)
        rng.shuffle(sinks)
        return sinks
    return first_adapted_word(quiver, shuffled)


def _table_cases():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]:
        for quiver in all_orientations(cartan_matrix(family, rank)):
            yield quiver, sink_walk_word(quiver, random.Random(0))
    for rank in (6, 7, 8):
        word = SINK_WALK_B_STAR["E", rank][0]
        yield all_orientations(cartan_matrix("E", rank))[0], tuple(map(int, word.split(",")))
    yield equioriented_a(16), staircase_word(16)  # N = 136


def test_context_tables_match_the_pairwise_routes():
    # The packed Euler rows, the one-pass AR quiver (mesh arrows, τ, τ^-1,
    # projectives, injectives and the path order as one int per position,
    # read from either end),
    # and the Hom fields read off the table's columns, against euler_form on
    # every pair, forward scans per position and neighbour, the set-based
    # closure and hom_indec one entry at a time.
    for quiver, word in _table_cases():
        ctx = RepContext(quiver, word)
        every = range(1, ctx.N + 1)
        assert ctx._euler == euler_table_by_pairs(quiver, ctx.betas)
        assert ctx.arrows == mesh_arrows_by_scan(ctx)
        assert list(ctx.translation.items()) == [(l, k) for k, l in tight_pairs(word)]
        assert [ctx._next[k] or None for k in every] == [k_shift(word, k) for k in every]
        assert ctx.projectives == tuple(k for k in every if word[k - 1] not in word[:k - 1])
        assert ctx.injectives == tuple(k for k in every if word[k - 1] not in word[k:])
        reach = reach_by_closure(ctx)
        assert all(ctx.preceq(k, l) == (l in reach[k]) for k in every for l in every)
        assert all(bool(ctx._downset[l] >> k & 1) == (l in reach[k])
                   for k in every for l in every)
        for outside in (0, ctx.N + 1):
            with pytest.raises(KeyError):
                ctx.preceq(outside, 1)
            with pytest.raises(KeyError):
                ctx._downset[outside]
        assert ctx._fields == [b + tuple(ctx.hom_indec(z, t) for z in every)
                               for t, b in zip(every, ctx.betas)]
        assert ctx._units == tuple(tuple(int(t == k) for t in every) for k in every)


def test_sink_walk_word_is_the_benchmark_word():
    for (family, rank), (word, _) in SINK_WALK_B_STAR.items():
        quiver = all_orientations(cartan_matrix(family, rank))[0]
        assert sink_walk_word(quiver, random.Random(0)) == tuple(map(int, word.split(",")))


D4_STAR = quiverrep.parse_quiver("1>2,3>2,4>2")


@pytest.mark.parametrize("quiver, word, bound, walked", [
    # b >= B* = 6: `stabilized` is True with no look past b.
    (equioriented_a(4), staircase_word(4), None, 8),
    # B* = 9 and a ray has height b + 1 = 9: `stabilized` is False.
    (D4_STAR, (2, 1, 3, 4) * 3, 8, 8),
    # No ray has height 8: `stabilized` needs the generators of E_8.
    (D4_STAR, (2, 1, 3, 4) * 3, 7, 8),
])
def test_ktheory_walks_only_as_high_as_the_verdict_needs(monkeypatch, quiver, word,
                                                         bound, walked):
    bounds, walk = [], RepContext._extension_generators

    def spy(self, height):
        bounds.append(height)
        return walk(self, height)

    monkeypatch.setattr(RepContext, "_extension_generators", spy)
    ktheory_cones(quiver, word, bound)
    assert bounds == [walked]
    # Another adapted word of the quiver reads the same walk's generators.
    other = next(w for w in enumerate_adapted_words(quiver) if w != word)
    ktheory_cones(quiver, other, bound)
    assert bounds == [walked]


def _report_or_error(quiver, word, bound):
    try:
        return ktheory_cones(quiver, word, bound)
    except ValueError as error:  # no generator at the lowest bounds
        return str(error)


def test_ktheory_from_a_warm_memo_matches_a_cold_one():
    # Every adapted word of each A3 orientation at bounds 1-7 (the default 6,
    # plus one), and every 36th of the 216 words of D4 `1>2,3>2,4>2` at
    # bounds 1-11 (the default 10, plus one); each report from an empty memo
    # against the one read from a memo that other words and bounds filled.
    cases = [(quiver, word, range(1, 8))
             for quiver in all_orientations(cartan_matrix("A", 3))
             for word in enumerate_adapted_words(quiver)]
    cases += [(D4_STAR, word, range(1, 12)) for word in enumerate_adapted_words(D4_STAR)[::36]]
    cold = {}
    for quiver, word, bounds in cases:
        for bound in bounds:
            quiverrep._EXTENSION_GENERATORS.clear()
            cold[word, bound] = _report_or_error(quiver, word, bound)
    quiverrep._EXTENSION_GENERATORS.clear()
    for quiver, word, bounds in reversed(cases):
        for bound in bounds:
            assert _report_or_error(quiver, word, bound) == cold[word, bound]


@pytest.mark.parametrize("bound", [2.5, 8.0, 2.0])
def test_ktheory_bound_must_be_an_int(bound):
    # A float would reach the walk and fail there, or read the memo kept for
    # the int it hashes equal to.
    with pytest.raises(TypeError):
        ktheory_cones(equioriented_a(3), (3, 2, 3, 1, 2, 3), bound)


def test_ktheory_without_non_projectives_keeps_its_error():
    # A1 has no non-projective, so D^v has no ray; the walk to the default
    # bound 2 finds no generator.
    with pytest.raises(ValueError, match="^no extension generators below the bound 2$"):
        ktheory_cones(quiverrep.quiver_from_arrows(1, []), (1,))


# -- packed degeneration test against the sparse reference --------------------

D4_FIRST = all_orientations(cartan_matrix("D", 4))[0]
DEGENERATION_CONTEXTS = [
    RepContext(equioriented_a(3), staircase_word(3)),
    RepContext(D4_FIRST, first_adapted_word(D4_FIRST)),
]


@st.composite
def _module_triple(draw):
    # u and v have one to two summands each; x is either any module or one
    # of the dimension vector of u + v, so that the Hom comparison, not the
    # dimension check, decides. Scaling all three by 12 pushes theta . dim
    # far past the 2 theta . theta that sizes the walk's fields.
    ctx = draw(st.sampled_from(DEGENERATION_CONTEXTS))

    def summands():
        positions = draw(st.lists(st.integers(1, ctx.N), min_size=1, max_size=2))
        return tuple(positions.count(t) for t in range(1, ctx.N + 1))

    u, v = summands(), summands()
    if draw(st.booleans()):
        dim = dim_vector(ctx, tuple(a + b for a, b in zip(u, v)))
        x = draw(st.sampled_from(bounded_multisets(dim, ctx.betas)))
    else:
        x = tuple(draw(st.lists(st.integers(0, 3), min_size=ctx.N, max_size=ctx.N)))
    scale = draw(st.sampled_from([1, 2, 12]))
    x, u, v = (tuple(scale * a for a in m) for m in (x, u, v))
    zs = sorted(draw(st.sets(st.integers(1, ctx.N))))
    return ctx, x, u, v, zs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DimensionMismatch:
        return DimensionMismatch


@settings(max_examples=400, deadline=None)
@given(_module_triple())
def test_packed_degeneration_matches_sparse_reference(problem):
    ctx, x, u, v, zs = problem
    y = tuple(a + b for a, b in zip(u, v))
    every = range(1, ctx.N + 1)
    assert ctx.hom_leq_strict(x, y) == hom_dominated_sparse(ctx, x, y, every)
    assert ctx.hom_leq_strict(y, x) == hom_dominated_sparse(ctx, y, x, every)
    bits = sum(1 << z for z in zs)
    assert ctx._hom_leq([x, y], y, bits) == [
        hom_dominated_sparse(ctx, m, y, zs) for m in (x, y)]
    assert _outcome(ctx.degenerates_properly, x, u, v) == _outcome(
        degenerates_properly_sparse, ctx, x, u, v
    )


def test_disconnected_diagram_packs_every_component():
    # On A2 and A1 the highest root of one component is 0 on the other's
    # roots; the fields must be sized from both. Every pair of modules with
    # entries 0-2, over every adapted word.
    quiver = quiverrep.parse_quiver("1>3")
    cases = 0
    for word in enumerate_adapted_words(quiver):
        ctx = RepContext(quiver, word)
        every = range(1, ctx.N + 1)
        modules = list(product(range(3), repeat=ctx.N))
        for x in modules:
            for y in modules:
                assert ctx.hom_leq_strict(x, y) == hom_dominated_sparse(ctx, x, y, every)
        cases += 1
    assert cases == 4


def test_packed_degeneration_with_large_multiplicities():
    # 40 copies of an extension and of its split form: each field is far
    # past the walk's 4-bit fields for the A3 staircase.
    ctx = DEGENERATION_CONTEXTS[0]
    k, l = ctx.ext_pairs()[0]
    (x,) = ctx.middle_terms(k, l)
    big, u, v = (tuple(40 * a for a in m) for m in (x, ctx.unit(k), ctx.unit(l)))
    split = tuple(a + b for a, b in zip(u, v))
    assert ctx.degenerates_properly(big, u, v)
    assert ctx.hom_leq_strict(big, split)
    assert not ctx.hom_leq_strict(split, big)
    assert not ctx.degenerates_properly(split, u, v)
    with pytest.raises(DimensionMismatch):
        ctx.degenerates_properly(big, u, ctx.unit(l))


# -- middle terms with the Hom budget against the filtered walk ---------------


def _strided_words(family, rank):
    for quiver in all_orientations(cartan_matrix(family, rank)):
        words = enumerate_adapted_words(quiver)
        for word in words[:: max(1, len(words) // 12)]:
            yield quiver, word


@pytest.mark.parametrize("family, rank", [("A", 4), ("D", 4), ("E", 6)])
def test_middle_terms_match_filtered_walk(family, rank):
    if family == "E":
        quiver = all_orientations(cartan_matrix(family, rank))[0]
        cases = [(quiver, first_adapted_word(quiver))]
    else:
        cases = list(_strided_words(family, rank))
    for quiver, word in cases:
        ctx = RepContext(quiver, word)
        for k, l in ctx.ext_pairs():
            assert ctx.middle_terms(k, l) == middle_terms_by_filter(ctx, k, l)


def _two_words(family, rank):
    # Smallest-sink-first words never reorder a carried term list; words
    # from shuffled sinks do (D5: on 14 of its 16 orientations; E6: in 19 carries).
    rng = random.Random(0)
    quivers = all_orientations(cartan_matrix(family, rank))
    for quiver in quivers[:1] if family == "E" else quivers:
        yield quiver, first_adapted_word(quiver)
        yield quiver, first_adapted_word(quiver, lambda sinks: rng.sample(sinks, len(sinks)))


@pytest.mark.parametrize("family, rank", [("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_carried_middle_terms_match_the_walk(monkeypatch, family, rank):
    walked = []
    walk = RepContext.middle_terms

    def counted(self, k, l, *args):
        walked.append((k, l))
        return walk(self, k, l, *args)

    monkeypatch.setattr(RepContext, "middle_terms", counted)
    for quiver, word in _two_words(family, rank):
        ctx = RepContext(quiver, word)
        walked.clear()
        carried = list(ctx.oracle_middle_terms())
        # one walk per τ-orbit: the pairs with k or l injective
        injective = set(ctx.injectives)
        assert walked == [(k, l) for k, l in ctx.ext_pairs() if {k, l} & injective]
        assert len(carried) == len(dict(carried))
        assert dict(carried) == {p: walk(ctx, *p) for p in ctx.ext_pairs()}


def test_a_wrong_translation_fails_the_carry():
    # Swapping two adjacent entries of τ carries terms onto the wrong pairs
    # or the wrong summands; each swap must surface as ConsistencyFailure
    # (CLI exit 2), not as a DimensionMismatch from the re-check.
    quiver = all_orientations(cartan_matrix("D", 5))[0]
    word = first_adapted_word(quiver)
    keys = sorted(RepContext(quiver, word).translation)
    for a, b in zip(keys, keys[1:]):
        ctx = RepContext(quiver, word)
        tau = ctx.translation
        tau[a], tau[b] = tau[b], tau[a]
        with pytest.raises(ConsistencyFailure):
            conelab.degree_cone(quiver, word, ctx=ctx)


# The walks on the dimension fields only: pinned before the dead-remainder
# memo left the filling walk. Per type: superfluous report digest, pairs,
# relaxed, oracle and filter term totals, counterexamples.
PINNED_SUPERFLUOUS = {
    ("D", 6): ("64bbc7348ffb40b198d4066c753d78bb38d85c71de34b4771c79681e398a2fd8",
               200, 260, 260, 260, 0),
    ("E", 6): ("cf2110937913e4a63ef7c550cf6d1c2bc264a1aeab6ee9bd6ad044757d68df2e",
               330, 532, 532, 532, 0),
    ("E", 7): ("92b89cd7bd8a84220b9db0800e0c0e294235c95bb4d91b240bbbae666f8d6bf9",
               1176, 2976, 2912, 2912, 64),
}


@pytest.mark.parametrize("family, rank", sorted(PINNED_SUPERFLUOUS))
def test_dims_only_walks_pinned(family, rank):
    quiver = all_orientations(cartan_matrix(family, rank))[0]
    word = first_adapted_word(quiver)
    report = quiverrep.check_superfluous_conjecture(quiver, word)
    ctx = RepContext(quiver, word)
    filtered = sum(len(ctx.middle_terms(k, l, mode="filter")) for k, l in ctx.ext_pairs())
    assert (
        _digest(report),
        report["pairs_checked"],
        sum(len(p["relaxed"]) for p in report["pairs"]),
        sum(len(p["oracle"]) for p in report["pairs"]),
        filtered,
        len(report["counterexamples"]),
    ) == PINNED_SUPERFLUOUS[family, rank]


# D4 (1>2,2>3,2>4): with the Hom column of U_9 emptied, the walk lets
# U_2 + U_9 through for (1, 10), which the cross-check must reject.
D4_QUIVER, D4_WORD = "1>2,2>3,2>4", "3,4,2,1,3,4,2,1,3,4,2,1"


def _empty_hom_column(monkeypatch, t):
    # Only the walk's packing, at the context width, loses the column; the
    # cross-check sums at one bit wider, from a table packed afresh.
    init = RepContext.__init__

    def patched(self, *args):
        init(self, *args)
        self._packing(self._width)[1][t - 1] &= (1 << self._width * self.n) - 1

    monkeypatch.setattr(RepContext, "__init__", patched)


def test_wrong_hom_column_fails_the_cross_check(monkeypatch, capsys):
    _empty_hom_column(monkeypatch, 9)
    ctx = RepContext(quiverrep.parse_quiver(D4_QUIVER), map(int, D4_WORD.split(",")))
    with pytest.raises(ConsistencyFailure, match=r"of \(1,10\) fails"):
        ctx.middle_terms(1, 10)
    code = run(["quiver", "middle", "--quiver", D4_QUIVER, "--word", D4_WORD])
    assert code == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["error"] == "ConsistencyFailure"


def test_wrong_hom_column_fails_at_the_walks_own_width(monkeypatch):
    # theta . dim(U_3 + U_15) has the bit length of the walk's 2 theta . theta
    # here, so a width sized from this pair's cap would be the walk's own; the
    # cross-check's width is one bit wider for every pair.
    _empty_hom_column(monkeypatch, 12)
    quiver = all_orientations(cartan_matrix("D", 6))[0]
    ctx = RepContext(quiver, first_adapted_word(quiver))
    assert (ctx._caps[2] + ctx._caps[14]).bit_length() + 1 == ctx._width
    with pytest.raises(ConsistencyFailure, match=r"of \(3,15\) fails"):
        ctx.middle_terms(3, 15)


def test_recheck_rejects_terms_that_are_no_middle_terms():
    ctx = RepContext(quiverrep.parse_quiver(D4_QUIVER), map(int, D4_WORD.split(",")))
    k, l = 1, 10
    (x, *_) = terms = ctx.middle_terms(k, l)
    ctx._recheck(terms, k, l)
    t = x.index(0)
    negative = x[:t] + (-1,) + x[t + 1:]
    with pytest.raises(ConsistencyFailure, match=r"of \(1,10\) fails"):
        ctx._recheck([negative], k, l)
    larger = x[:t] + (1,) + x[t + 1:]
    with pytest.raises(ConsistencyFailure, match="wrong dimension vector"):
        ctx._recheck([larger], k, l)
    # One summand swapped for a root of the same theta-height: the packed
    # sums fit, and the dimension fields tell the two apart.
    caps, betas = ctx._caps, ctx.betas
    k, l, x, s, t = next(
        (k, l, x, s, t)
        for k, l in ctx.ext_pairs() for x in ctx.middle_terms(k, l)
        for s in range(ctx.N) if x[s]
        for t in range(ctx.N) if caps[t] == caps[s] and betas[t] != betas[s]
    )
    swapped = list(x)
    swapped[s] -= 1
    swapped[t] += 1
    with pytest.raises(ConsistencyFailure, match="wrong dimension vector"):
        ctx._recheck([tuple(swapped)], k, l)


# -- double description against every square subsystem and a second run -------


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
    rays, lineality, zero_sets = dd_vrep(dim, forms)
    assert (rays, lineality) == (brute_extreme_rays(dim, forms), [])
    assert zero_sets == [
        sum(1 << i for i, f in enumerate(forms) if dot(f, r) == 0) for r in rays
    ]


def test_dd_vrep_rejects_a_form_of_the_wrong_length():
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        dd_vrep(3, [(1, 0, 0), (1, 0)])


# -- the unit triangular solve against double description ----------------------


@st.composite
def _unit_triangular_forms(draw):
    """Dimension 2-8 and up to dim forms, each ending with a 1 at its own
    coordinate, in any order; fewer forms than coordinates leave lineality."""
    dim = draw(st.integers(2, 8))
    ends = draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True))
    forms = []
    for e in ends:
        head = draw(st.lists(st.integers(-3, 3), min_size=e, max_size=e))
        forms.append(tuple(head) + (1,) + (0,) * (dim - 1 - e))
    return dim, forms


def _both_sides_by_dd(dim, forms):
    with mock.patch.object(polycone, "_triangular_vrep", lambda dim, forms: None):
        return polycone._both_sides(dim, forms)


@settings(max_examples=300, deadline=None)
@given(_unit_triangular_forms())
def test_triangular_solve_matches_dd(problem):
    dim, forms = problem
    assert polycone._triangular_vrep(dim, forms) == dd_vrep(dim, forms)
    assert polycone._both_sides(dim, forms) == _both_sides_by_dd(dim, forms)


@pytest.mark.parametrize("forms", [
    [(1, 2, 0), (0, 0, 2)],  # ends with 2
    [(1, -1, 0)],  # ends with -1
    [(1, 0, 0), (3, 1, 0), (0, 4, 1), (2, 0, 1)],  # two forms end at x_3
])
def test_triangular_solve_declines_other_shapes(forms):
    assert polycone._triangular_vrep(3, forms) is None
    cone = RationalCone.from_inequalities(3, forms)
    assert cone.vrep() == dd_vrep(3, list(cone._ineqs))[:2]


def _random_reduced_word(c, rng):
    """A reduced word of w0: any letter whose root is positive lengthens
    the word, tried in a shuffled order until none is left."""
    word, m = [], tuple(tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank))
    while True:
        for letter in rng.sample(range(1, c.rank + 1), c.rank):
            beta, m2 = reflect_step(c, m, letter)
            if all(x >= 0 for x in beta) and any(beta):
                word.append(letter)
                m = m2
                break
        else:
            return tuple(word)


NEGATIVE_CONE_TYPES = [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2), ("E", 7), ("E", 8),
]


@pytest.mark.parametrize("family, rank", NEGATIVE_CONE_TYPES)
def test_negative_cone_is_solved_as_dd_expands_it(family, rank):
    c = cartan_matrix(family, rank)
    rng = random.Random(f"{family}{rank}")
    for _ in range(3):
        cone = conelab.negative_tight_cone(c, _random_reduced_word(c, rng))
        forms = list(cone._ineqs)
        solved = polycone._triangular_vrep(cone.dim, forms)
        assert solved is not None
        assert solved == dd_vrep(cone.dim, forms)
        assert len(solved[0]) == len(forms) == cone.dim - rank
        assert polycone._both_sides(cone.dim, forms) == _both_sides_by_dd(cone.dim, forms)


@st.composite
def _cone_vectors(draw):
    """Dimension 1-5 and up to 9 vectors: some negated copies (implicit
    equalities), often lineality, and the empty list."""
    dim = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=7))
    if vectors:
        negated = draw(st.lists(st.sampled_from(vectors), max_size=2))
        vectors += [tuple(-x for x in v) for v in negated]
    return dim, vectors


@settings(max_examples=300, deadline=None)
@given(_cone_vectors())
def test_zero_set_dual_matches_second_dd(problem):
    dim, vectors = problem
    cone = RationalCone.from_inequalities(dim, vectors)
    assert cone.dualrep() == dual_by_second_dd(dim, *cone.vrep())


def test_one_dd_per_cone(monkeypatch):
    calls = []

    def counted(dim, forms):
        calls.append(len(forms))
        return dd_vrep(dim, forms)

    monkeypatch.setattr(polycone, "dd_vrep", counted)
    a6 = cartan_matrix("A", 6)
    quiver = all_orientations(a6)[0]
    report = conelab.check_conjecture(quiver, first_adapted_word(quiver))
    # The verdict needs only the negative cone's rays, which its unit
    # triangular forms give with no DD; an `equal` verdict makes the two
    # cones one set, so the degree cone takes the negative cone's sides.
    assert report.verdict == "equal"
    assert calls == []
    assert report.negative_cone._vrep is not None
    assert report.degree_cone._vrep is not None
    report.to_dict()
    assert calls == []
    report = ktheory_cones(equioriented_a(4), staircase_word(4))
    # D^v's rays are the mesh vectors, certified by D.R = I, and at the
    # default bound the verdicts come from their heights: no DD at all.
    assert report["duality_verdict"] == "equal"
    assert calls == []


@pytest.mark.parametrize("family, rank", [("A", 6), ("D", 5)])
def test_negative_cone_contains_degree_cone_without_dd(monkeypatch, family, rank):
    # Each negative-cone form is the mesh term of its tight pair, so it is
    # one of the degree cone's own forms and holds there by definition.
    quiver = all_orientations(cartan_matrix(family, rank))[0]
    word = first_adapted_word(quiver)
    d_cone = conelab.degree_cone(quiver, word)
    l_cone = conelab.negative_tight_cone(langlands_dual(quiver.cartan), word)
    assert set(l_cone.inequalities) <= set(d_cone.inequalities)

    def no_dd(dim, forms):
        raise AssertionError("contains expanded a cone")

    monkeypatch.setattr(polycone, "dd_vrep", no_dd)
    assert l_cone.contains(d_cone)


def _shared_sides_cases():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]:
        for quiver in all_orientations(cartan_matrix(family, rank)):
            yield quiver, sink_walk_word(quiver, random.Random(0))
    e6 = all_orientations(cartan_matrix("E", 6))[0]
    yield e6, sink_walk_word(e6, random.Random(0))
    yield from certify._conjecture_cases()


def test_equal_verdict_shares_the_sides_dd_gives():
    # An `equal` verdict hands the degree cone the negative cone's V-sides;
    # they must be the sides the degree cone's own DD gives, as paper-check
    # criterion 3 and `cone check` read them from the report.
    for quiver, word in _shared_sides_cases():
        ctx = RepContext(quiver, word)
        report = conelab.check_conjecture(quiver, word, ctx=ctx)
        assert report.verdict == "equal"
        shared = report.degree_cone
        assert shared._vrep is report.negative_cone._vrep
        fresh = conelab.degree_cone(quiver, word, ctx=ctx)
        with mock.patch.object(polycone, "_triangular_vrep", lambda dim, forms: None):
            fresh.vrep()
        assert shared.vrep() == fresh.vrep()
        assert shared.dualrep() == fresh.dualrep()
        assert shared.to_dict() == fresh.to_dict()


@pytest.mark.parametrize("verdict", ["strict_subset", "violation"])
def test_other_verdicts_keep_their_own_sides(monkeypatch, verdict):
    # One AR form of the degree cone negated (a cut through the negative
    # cone) or dropped (the degree cone leaves the negative cone).
    quiver, word = equioriented_a(4), staircase_word(4)
    l_forms = conelab.negative_tight_cone(langlands_dual(quiver.cartan), word).inequalities
    ar_form = l_forms[0]
    real = conelab.degree_cone

    def changed(quiver, word, ctx=None):
        forms = set(real(quiver, word, ctx=ctx).inequalities)
        assert ar_form in forms
        if verdict == "strict_subset":
            forms.add(tuple(-x for x in ar_form))
        else:
            forms.remove(ar_form)
        return RationalCone.from_inequalities(len(word), forms)

    calls = []

    def counted(dim, forms):
        calls.append(len(forms))
        return dd_vrep(dim, forms)

    monkeypatch.setattr(conelab, "degree_cone", changed)
    monkeypatch.setattr(polycone, "dd_vrep", counted)
    report = conelab.check_conjecture(quiver, word)
    assert report.verdict == verdict
    d_cone, l_cone = report.degree_cone, report.negative_cone
    # `strict_subset` tests the degree cone's forms on the negative cone's
    # rays, which come from the triangular solve: no DD before `to_dict`.
    # `violation` tests the negative cone's forms on the degree cone's rays.
    assert calls == ([] if verdict == "strict_subset" else [len(d_cone.inequalities)])
    small, big = (l_cone, d_cone) if verdict == "strict_subset" else (d_cone, l_cone)
    witness = report.witness
    assert witness.keys() == {"kind", "ray", "violated_form"}
    ray, form = tuple(witness["ray"]), tuple(witness["violated_form"])
    assert ray in with_lines(*small.vrep())
    assert list(form) in report.to_dict()[
        "degree_cone" if verdict == "strict_subset" else "negative_cone"]["ineqs"]
    assert dot(form, ray) < 0
    if verdict == "strict_subset":
        assert witness["kind"] == "negative_ray_outside_degree_cone"
        assert form == tuple(-x for x in ar_form)
    else:
        assert witness["kind"] == "degree_ray_outside_negative_cone"
        assert form == ar_form
    assert d_cone._vrep is not l_cone._vrep and d_cone._dualrep is not l_cone._dualrep
    assert d_cone.vrep() != l_cone.vrep()


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


# -- fraction-free row reduction against the Fraction route -------------------


@st.composite
def _int_matrix(draw):
    # Up to 6 x 6, with whole zero rows and zero columns mixed in.
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1))
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, 5, 7])
    matrix = []
    for _ in range(rows):
        if draw(st.integers(0, 4)) == 0:
            matrix.append([0] * cols)
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
            matrix.append([0 if c in zero_cols else x for c, x in enumerate(row)])
    return matrix


@settings(max_examples=400, deadline=None)
@given(_int_matrix())
def test_row_reduction_matches_fraction_route(matrix):
    expected = (
        rank_by_fractions(matrix),
        row_space_by_fractions(matrix),
        nullspace_by_fractions(matrix),
    )
    as_fractions = [[Fraction(x) for x in row] for row in matrix]
    for rows in (matrix, as_fractions):
        assert (rank(rows), row_space_basis(rows), nullspace_basis(rows)) == expected
