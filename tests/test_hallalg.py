"""Hall algebra arithmetic for short exact sequence counting.

The expensive checks run at deliberately small scale: every structure
constant here is interpolated from prime counts with a held-out prime, so
each product already carries its own consistency check.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conekit import hallalg
from conekit.hallalg import (
    PRIMES,
    HallElement,
    InterpolationInconsistent,
    LaurentPoly,
    ScaleExceeded,
    _newton,
    count_submodules,
    dim_vector,
    ext_dim,
    format_module,
    hall_polynomial,
    hall_product,
    hom_dim,
    interval_of_root,
    module_from_positions,
    normalize_module,
    parse_module,
    q_commutator,
    total_dim,
    verify_term_theorem,
)
from conekit.quiverrep import (
    RepContext,
    bounded_multisets,
    enumerate_adapted_words,
    equioriented_a,
    euler_form,
)
from hall_oracle import count_by_subspaces, fit_by_lagrange

S1 = parse_module("1-1")
S2 = parse_module("2-2")
P1 = parse_module("1-2")


def _q(exp: int) -> LaurentPoly:
    return LaurentPoly.q_power(exp)


class TestLaurentPoly:
    def test_ring_operations(self):
        q = _q(1)
        assert q * _q(-1) == LaurentPoly.one()
        assert (q - q).is_zero()
        assert LaurentPoly.integer(3) + LaurentPoly.integer(-3) == LaurentPoly.zero()
        assert (q + LaurentPoly.one()) * (q - LaurentPoly.one()) == _q(2) - LaurentPoly.one()

    def test_subst_square(self):
        p = _q(1) + LaurentPoly.integer(2)
        assert p.subst_square() == _q(2) + LaurentPoly.integer(2)


def test_module_grammar_roundtrip():
    m = parse_module("1-1^2,2-3")
    assert m == normalize_module(((1, 1), (1, 1), (2, 3)))
    assert format_module(m) == "1-1,1-1,2-3"
    assert dim_vector(3, m) == (2, 1, 1)
    assert total_dim(m) == 4
    with pytest.raises(ValueError):
        parse_module("3-1")
    # the empty string is the zero module, the multiplicative identity
    assert parse_module("") == ()


@pytest.mark.parametrize("text", ["1-2^0", "1-2^-1", "1-2^", "1-2^x", "1-1,1-2^0"])
def test_module_multiplicity_must_be_positive(text):
    with pytest.raises(ValueError, match="is not a positive integer"):
        parse_module(text)


def test_hom_and_ext_dims_a2():
    assert hom_dim(P1, S1) == 1
    assert hom_dim(S1, P1) == 0
    assert hom_dim(P1, S2) == 0
    assert ext_dim(2, S1, S2) == 1
    assert ext_dim(2, S2, S1) == 0


def test_hall_polynomial_pinned_values():
    # unique extension with trivial automorphism contribution
    assert hall_polynomial(2, S1, S2, P1) == LaurentPoly.one()
    # p + 1 submodules of S1+S1 isomorphic to S1
    double = parse_module("1-1^2")
    assert hall_polynomial(2, S1, S1, double) == _q(1) + LaurentPoly.one()
    # dimension mismatch kills the count
    assert hall_polynomial(2, S1, S2, parse_module("1-1,2-2")).is_zero() is False
    assert hall_polynomial(2, S1, S1, parse_module("1-2")).is_zero()


def test_hall_polynomial_normalizes_its_modules():
    # x in any interval order is one class; an interval out of order or
    # starting at 0 is no class at all, in any of the three slots
    assert hall_polynomial(3, ((2, 3),), ((3, 3),), ((3, 3), (2, 3))) == _q(1)
    good = (((2, 3),), ((3, 3),), ((2, 3), (3, 3)))
    for slot in range(3):
        for bad in (((0, 3),), ((3, 2),)):
            modules = list(good)
            modules[slot] = bad
            with pytest.raises(ValueError, match=r"^bad interval"):
                hall_polynomial(3, *modules)


def test_hall_product_a2_split_and_extension():
    prod = hall_product(2, S1, S2)
    terms = {format_module(m): c for m, c in prod.terms.items()}
    assert terms == {"1-1,2-2": _q(-1), "1-2": LaurentPoly.one()}
    # opposite order admits no extension
    rev = hall_product(2, S2, S1)
    assert {format_module(m): c for m, c in rev.terms.items()} == {
        "1-1,2-2": LaurentPoly.one()
    }


def test_q_commutator_a2():
    comm = q_commutator(2, (1, 1), (2, 2))
    assert {format_module(m): c for m, c in comm.terms.items()} == {
        "1-2": LaurentPoly.one()
    }


def test_q_commutator_rejects_wrong_order():
    with pytest.raises(ValueError, match="wrong order"):
        q_commutator(2, (1, 2), (1, 1))


def test_scale_guard():
    with pytest.raises(ScaleExceeded, match="vertices"):
        hall_product(6, parse_module("1-6"), parse_module("1-1"))
    with pytest.raises(ScaleExceeded, match="total dimension"):
        hall_product(2, parse_module("1-2^2"), parse_module("1-1^5"))
    # Ext^1(S1^4, S2^4) has dimension 16: 2^16 classes already at p = 2
    with pytest.raises(ScaleExceeded, match="extension classes"):
        hall_product(2, parse_module("1-1^4"), parse_module("2-2^4"))
    # Gr(4, 8) needs a polynomial of degree 16, beyond the 14 primes
    with pytest.raises(ScaleExceeded, match="prime table"):
        hall_product(1, parse_module("1-1^4"), parse_module("1-1^4"))


def test_divided_powers_give_bare_basis_classes():
    def terms(n, m1, m2):
        prod = hall_product(n, parse_module(m1), parse_module(m2))
        return {format_module(m): c for m, c in prod.terms.items()}

    # F_{1-1}^2 = [2] F_{1-1^2}, so the divided square is the bare class
    assert terms(2, "1-1", "1-1") == {"1-1,1-1": _q(1) + _q(-1)}
    assert terms(2, "1-2", "1-1^2") == {"1-1,1-1,1-2": LaurentPoly.one()}
    assert terms(3, "2-3", "1-3") == {"1-3,2-3": LaurentPoly.one()}
    assert terms(3, "1-3,2-3", "1-1") == {"1-1,1-3,2-3": LaurentPoly.one()}


@pytest.mark.parametrize("k, message", [
    (0, "position 0 out of range"),
    (7, "position 7 out of range"),
    (4, "position 4 has no later occurrence of its letter"),
    (6, "position 6 has no later occurrence of its letter"),
])
def test_verify_term_theorem_rejects_a_position_without_a_tight_pair(k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_term_theorem(equioriented_a(3), (3, 2, 3, 1, 2, 3), k)


def test_interval_of_root():
    assert interval_of_root((1, 1, 0)) == (1, 2)
    assert interval_of_root((0, 0, 1)) == (3, 3)
    with pytest.raises(ValueError):
        interval_of_root((1, 0, 1))


def test_module_from_positions_staircase():
    ctx = RepContext(equioriented_a(3), (3, 2, 3, 1, 2, 3))
    m = module_from_positions(ctx, (0, 0, 1, 1, 0, 0))
    assert format_module(m) == "1-3,2-2"


def test_verify_term_theorem_staircase():
    out = verify_term_theorem(equioriented_a(3), (3, 2, 3, 1, 2, 3), 2)
    assert out["verified"] is True
    assert out["pair"] == [2, 5]
    assert out["predicted"] == "1-3,2-2"
    assert out["support"] == ["1-3,2-2"]
    # coefficient is q - q^{-1}: one-dimensional Ext with split class removed
    assert out["coefficient"] == {"-1": -1, "1": 1}


def _modules_up_to(n: int, bound: int):
    """Every interval multiset with 1 <= total dimension <= bound."""
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    found = set()

    def rec(idx: int, room: int, cur: tuple):
        if cur:
            found.add(normalize_module(cur))
        if idx == len(intervals) or room == 0:
            return
        a, b = intervals[idx]
        size = b - a + 1
        rec(idx + 1, room, cur)
        copies = []
        while (len(copies) + 1) * size <= room:
            copies.append((a, b))
            rec(idx + 1, room - len(copies) * size, cur + tuple(copies))

    rec(0, bound, ())
    return sorted(found)


@pytest.mark.parametrize("n,bound", [(2, 4), (3, 3)])
def test_associativity_small_scale(n, bound):
    mods = _modules_up_to(n, bound)
    triples = [
        (u, v, w)
        for u, v, w in itertools.product(mods, repeat=3)
        if total_dim(u) + total_dim(v) + total_dim(w) <= bound
    ]
    assert triples
    for u, v, w in triples:
        left = _element_product(hall_product(n, u, v), w, n)
        right = _product_element(u, hall_product(n, v, w), n)
        assert left == right


def _element_product(el: HallElement, w, n: int) -> HallElement:
    out = HallElement(n, {})
    for m, coeff in el.terms.items():
        out = out + hall_product(n, m, w).scaled(coeff)
    return out


def _product_element(u, el: HallElement, n: int) -> HallElement:
    out = HallElement(n, {})
    for m, coeff in el.terms.items():
        out = out + hall_product(n, u, m).scaled(coeff)
    return out


def _product_over_candidates(n: int, a, b) -> HallElement:
    """F_a . F_b from every interval multiset X of the target dimension,
    each checked against its counts at every prime of the fit."""
    da, db = dim_vector(n, a), dim_vector(n, b)
    primes = PRIMES[: sum(x * y for x, y in zip(da, db)) + 3]
    base = hom_dim(a, a) + hom_dim(b, b) + euler_form(equioriented_a(n), da, db)
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    columns = [dim_vector(n, (iv,)) for iv in intervals]
    terms = {}
    for mults in bounded_multisets(tuple(map(sum, zip(da, db))), columns):
        x = tuple(iv for iv, m in zip(intervals, mults) for _ in range(m))
        h = hall_polynomial(n, a, b, x)
        for p in primes:
            value = sum(c * p**e for e, c in h.c.items())
            assert value == count_submodules(n, x, b, a, p), (a, b, x, p)
        if not h.is_zero():
            terms[x] = _q(base - hom_dim(x, x)) * h.subst_square()
    return HallElement(n, terms)


@pytest.mark.parametrize("n,bound", [(2, 4), (3, 3), (4, 3)])
def test_product_support_matches_candidate_enumeration(n, bound):
    """The support read off the extension classes misses no candidate: every
    product of the benchmark's family equals the candidate-by-candidate sum."""
    mods = _modules_up_to(n, bound)
    pairs = [
        (a, b) for a in mods for b in mods if total_dim(a) + total_dim(b) <= bound
    ]
    for a, b in pairs:
        assert hall_product(n, a, b).terms == _product_over_candidates(n, a, b).terms
    assert len(pairs) == {(2, 4): 60, (3, 3): 57, (4, 3): 120}[n, bound]


@pytest.mark.parametrize("n,bound,word", [(2, 4, (2, 1, 2)), (3, 3, (3, 2, 3, 1, 2, 3))])
def test_support_matches_exact_sequences(n, bound, word):
    """F_V F_W is supported on the split class plus the middle terms of
    genuine extensions of V by W, and nowhere else.  The middle terms come
    from hom-rank arithmetic, the product from counting over primes, so the
    two sides are independent."""
    ctx = RepContext(equioriented_a(n), word)
    pos_of = {interval_of_root(beta): idx + 1 for idx, beta in enumerate(ctx.betas)}
    checked = 0
    for v, w in itertools.product(pos_of, repeat=2):
        if (v[1] - v[0] + 1) + (w[1] - w[0] + 1) > bound:
            continue
        expected = {normalize_module((v, w))}
        pv, pw = pos_of[v], pos_of[w]
        if pv > pw and ctx.ext_indec(pv, pw):
            expected |= {
                module_from_positions(ctx, mid)
                for mid in ctx.middle_terms(pw, pv)
            }
        prod = hall_product(n, (v,), (w,))
        assert set(prod.terms) == expected, (v, w)
        # structure constants count points, so coefficients stay positive
        for poly in prod.terms.values():
            assert all(value > 0 for value in poly.c.values())
        checked += 1
    assert checked >= 9


def _check_commutators_against_middle_terms(n: int, word) -> int:
    """Every Ext pair (k, l) of the word: the support of [F_{U_l}, F_{U_k}]_q
    is the set of oracle middle terms. Returns the number of pairs."""
    ctx = RepContext(equioriented_a(n), word)
    pairs = 0
    for k in range(1, ctx.N + 1):
        for l in range(k + 1, ctx.N + 1):
            if not ctx.ext_indec(l, k):
                continue
            comm = q_commutator(
                n,
                interval_of_root(ctx.betas[l - 1]),
                interval_of_root(ctx.betas[k - 1]),
            )
            middles = {
                module_from_positions(ctx, mid)
                for mid in ctx.middle_terms(k, l, mode="oracle")
            }
            assert set(comm.terms) == middles, (word, k, l)
            pairs += 1
    return pairs


def test_commutator_support_equals_middle_terms():
    assert _check_commutators_against_middle_terms(3, (3, 2, 3, 1, 2, 3)) == 5


def test_commutator_support_equals_middle_terms_a4_adapted_words():
    words = enumerate_adapted_words(equioriented_a(4))
    assert len(words) == 12
    assert sum(_check_commutators_against_middle_terms(4, w) for w in words) == 180


def test_commutator_support_equals_middle_terms_a5_staircase():
    word = (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5)
    assert _check_commutators_against_middle_terms(5, word) == 35


@pytest.mark.parametrize("n,bound", [(2, 4), (3, 4), (4, 3)])
def test_counts_agree_with_subspace_oracle(n, bound):
    """Riedtmann's formula against brute-force subspace enumeration, on
    every (X, W, V) with V, W nonzero and dim V + dim W = dim X."""
    mods = _modules_up_to(n, bound)
    by_dim: dict = {}
    for m in mods:
        by_dim.setdefault(dim_vector(n, m), []).append(m)
    counts = 0
    for v, w in itertools.product(mods, repeat=2):
        if total_dim(v) + total_dim(w) > bound:
            continue
        dx = tuple(a + b for a, b in zip(dim_vector(n, v), dim_vector(n, w)))
        for x in by_dim[dx]:
            for p in (2, 3, 5):
                assert count_submodules(n, x, w, v, p) == count_by_subspaces(
                    n, x, w, v, p
                ), (x, w, v, p)
                counts += 1
    assert counts == {(2, 4): 366, (3, 4): 1839, (4, 3): 714}[n, bound]


def _values(coeffs, xs):
    return [sum(c * x**e for e, c in enumerate(coeffs)) for x in xs]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))
def test_newton_fit_recovers_integer_polynomials(coeffs):
    """Degree <= 8, fitted at every prefix of PRIMES with enough nodes."""
    want = LaurentPoly(dict(enumerate(coeffs)))
    for k in range(len(coeffs), len(PRIMES) + 1):
        assert _newton(PRIMES[:k], _values(coeffs, PRIMES[:k])) == want


def test_fit_above_the_degree_bound_raises(monkeypatch):
    """A fit of degree D + 1, where D = sum_i dim V_i dim W_i bounds the
    true degree, is refused before the held-out prime is read."""
    v, w = P1, S1
    bound = sum(a * b for a, b in zip(dim_vector(2, v), dim_vector(2, w)))
    assert bound == 1

    def too_high(xs, ys):
        return _newton(xs, ys) + _q(bound + 1)

    monkeypatch.setattr(hallalg, "_newton", too_high)
    with pytest.raises(InterpolationInconsistent,
                       match=r"^H\^.*_\{1-2,1-1\}: fit has degree 2, above the bound 1$"):
        hallalg._hall_polynomials.__wrapped__(2, v, w)


def _fit_or_raise(fit, xs, ys):
    try:
        return fit(xs, ys)
    except InterpolationInconsistent as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_newton_fit_matches_lagrange_reference(data):
    """On any integer data at distinct integer nodes, both fits raise or
    both return the same polynomial; polynomial values with a sparse
    perturbation reach both branches."""
    xs = data.draw(st.lists(st.integers(-60, 60), min_size=1, max_size=10, unique=True))
    if data.draw(st.booleans()):
        ys = data.draw(st.lists(st.integers(-10**4, 10**4), min_size=len(xs), max_size=len(xs)))
    else:
        coeffs = data.draw(st.lists(st.integers(-100, 100), max_size=len(xs) + 1))
        noise = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]),
                                   min_size=len(xs), max_size=len(xs)))
        ys = [y + e for y, e in zip(_values(coeffs, xs), noise)]
    assert _fit_or_raise(_newton, xs, ys) == _fit_or_raise(fit_by_lagrange, xs, ys)
