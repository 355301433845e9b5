"""Exact rational cone arithmetic: double description, duality, membership."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conekit import polycone
from conekit.linalg import dot, rank
from conekit.polycone import (
    DimensionMismatch,
    RationalCone,
    ZeroCone,
    normalize_form,
    with_lines,
)
from conekit.rootsys import CapExceeded, VerificationFailure
from engine_oracle import (
    cone_generated_by,
    containment_witness,
    missing_generator_by_facets,
    violation_by_facets,
)


def extremality_certificate(cone: RationalCone) -> bool:
    """Check every listed ray is extreme: its active facets cut a 1-dim face.

    A Farkas-style consistency test; it relies only on containment
    arithmetic, not on the DD bookkeeping.
    """
    rays, lin = cone.vrep()
    facets, span_perp = cone.dualrep()
    lin_dim = len(lin)
    for r in rays:
        active = [f for f in facets if dot(f, r) == 0]
        face_cut = list(active) + list(span_perp)
        if not face_cut:
            if cone.dim - lin_dim != 1:
                return False
            continue
        if rank(face_cut) != cone.dim - lin_dim - 1:
            return False
    return True


def test_orthant():
    cone = RationalCone.from_inequalities(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert cone.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert cone.lineality == ()
    prof = cone.analyze()
    assert prof.dimension == 3
    assert prof.lineality_dim == 0
    assert prof.ray_count == 3
    assert prof.facet_count == 3
    assert prof.is_simplicial_mod_lineality


def test_halfspace_has_lineality():
    cone = RationalCone.from_inequalities(3, [(1, -1, 1)])
    prof = cone.analyze()
    assert prof.lineality_dim == 2
    assert prof.ray_count == 1
    assert violation_by_facets(cone, (1, 1, 1)) is None
    assert violation_by_facets(cone, (0, 1, 0)) is not None


def test_trivial_cone_has_no_interior_point():
    cone = RationalCone.from_inequalities(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert cone.rays == ()
    assert cone.lineality == ()
    with pytest.raises(ZeroCone):
        cone.interior_point()


def test_dd_ray_cap(monkeypatch):
    # The cone over a square: three pivots give three rays, the fourth form
    # cuts one of them into two, so four rays at most are held at once.
    square = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    monkeypatch.setattr(polycone, "MAX_DD_RAYS", 4)
    assert len(polycone.dd_vrep(3, square)[0]) == 4
    for cap in (3, 0):  # the cut, then the first pivot, would pass the cap
        monkeypatch.setattr(polycone, "MAX_DD_RAYS", cap)
        with pytest.raises(CapExceeded, match=f"^more than {cap} rays in double description$"):
            polycone.dd_vrep(3, square)


def test_dimension_mismatch():
    """A comparison checks the dimensions up front, also for a cone with no
    forms at all, whose packed test would have nothing to evaluate."""
    with pytest.raises(DimensionMismatch):
        RationalCone.from_inequalities(3, [(1, 0)])
    plane = RationalCone.from_inequalities(2, [])
    ray = RationalCone.from_inequalities(2, [(1, 0), (-1, 0), (0, 1)])
    solid = RationalCone.from_inequalities(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    flat = RationalCone.from_inequalities(1, [(1,)])
    for cone in (plane, ray):
        for other in (solid, flat):
            for a, b in ((cone, other), (other, cone)):
                with pytest.raises(DimensionMismatch):
                    a.missing_generator(b)
                with pytest.raises(DimensionMismatch):
                    a.contains(b)


def test_forms_must_be_exact():
    # A float used to pass as its binary fraction: (1, 0.1) became
    # (36028797018963968, 3602879701896397). A string passed through Fraction.
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError):
            RationalCone.from_inequalities(2, [(1, bad)])
    half = RationalCone.from_inequalities(2, [(1, Fraction(1, 2))])
    assert half.inequalities == ((2, 1),)


def test_packed_and_plain_sums_must_agree(monkeypatch):
    # The packed test flags the form (1, 0) on the ray (-1, 0); a plain dot
    # product that finds no negative generator there contradicts it.
    big = RationalCone.from_inequalities(2, [(1, 0)])
    small = RationalCone.from_inequalities(2, [(-1, 0), (0, 1), (0, -1)])
    assert big.missing_generator(small) == ((-1, 0), (1, 0))
    monkeypatch.setattr(polycone, "dot", lambda a, b: 0)
    with pytest.raises(VerificationFailure, match="disagree"):
        big.missing_generator(small)
    with pytest.raises(VerificationFailure):
        big.contains(small)


def test_compare_verdicts():
    quadrant = RationalCone.from_inequalities(2, [(1, 0), (0, 1)])
    half = RationalCone.from_inequalities(2, [(1, 0)])
    assert half.contains(quadrant)
    assert not quadrant.contains(half)
    assert quadrant.contains(quadrant)


def test_generator_inequality_roundtrip():
    # Generators to forms (the dual side of the generators as forms) and
    # back to rays by a second expansion.
    gens = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    cone = cone_generated_by(3, gens)
    assert cone.rays == tuple(gens) and cone.lineality == ()
    assert RationalCone.from_inequalities(3, gens).facets == tuple(gens)


def test_rational_inequalities_are_integerized():
    from fractions import Fraction

    cone = RationalCone.from_inequalities(
        2, [(Fraction(1, 2), Fraction(-1, 3)), (0, 1)]
    )
    whole = RationalCone.from_inequalities(2, [(3, -2), (0, 1)])
    assert cone.contains(whole) and whole.contains(cone)


def test_json_roundtrip():
    cone = RationalCone.from_inequalities(3, [(1, -1, 1), (0, 1, 0)])
    data = json.loads(json.dumps(cone.to_dict(), sort_keys=True))
    again = RationalCone.from_inequalities(data["dim"], data["ineqs"])
    rays, lineality = ([tuple(v) for v in data[key]] for key in ("rays", "lineality"))
    generated = cone_generated_by(data["dim"], rays, lineality)
    for other in (again, generated):
        assert other.contains(cone) and cone.contains(other)
    assert again.analyze() == cone.analyze()


def test_extremality_certificate_spots_simplicial():
    assert extremality_certificate(
        RationalCone.from_inequalities(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    )
    # square cone over 4 rays is not simplicial
    square = cone_generated_by(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    assert not square.analyze().is_simplicial_mod_lineality


def test_faces_below_a_facet_are_not_read_as_facets():
    """The cone over the 4-cube, x0 >= |xi|, with one redundant form tight
    on a square 2-face, read on both sides: its facets are the rays of the
    dual cone, the cone over the 4-cross-polytope generated by the same
    vectors. That face is proper but not a facet, so only the maximality
    of the facets among the tight ray sets keeps the redundant vector out,
    for either of the two faces s1 = s2."""
    cube = [
        tuple(1 if j == 0 else s * (j == i) for j in range(5))
        for i in range(1, 5)
        for s in (1, -1)
    ]
    for s in (1, -1):
        cone = RationalCone.from_inequalities(5, cube + [(2, -s, -s, 0, 0)])
        assert len(cone.rays) == 16
        assert sorted(cone.facets) == sorted(cube)


def test_normalize_form_primitive_sign():
    assert normalize_form((2, -4, 6)) == (1, -2, 3)
    assert normalize_form((0, 0, 5)) == (0, 0, 1)


small_forms = st.lists(
    st.tuples(*(st.integers(-3, 3) for _ in range(3))),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(small_forms)
def test_double_description_is_sound(forms):
    cone = RationalCone.from_inequalities(3, forms)
    for ray in cone.rays:
        assert all(sum(f[i] * ray[i] for i in range(3)) >= 0 for f in forms)
    for line in cone.lineality:
        assert all(sum(f[i] * line[i] for i in range(3)) == 0 for f in forms)


@settings(max_examples=60, deadline=None)
@given(small_forms)
def test_double_dual_is_identity(forms):
    # The facets and span equations of C cut out C again, and the cone
    # generated by the rays and lines of C is C.
    cone = RationalCone.from_inequalities(3, forms)
    again = RationalCone.from_inequalities(3, with_lines(*cone.dualrep()))
    for other in (again, cone_generated_by(3, *cone.vrep())):
        assert other.contains(cone) and cone.contains(other)


@settings(max_examples=60, deadline=None)
@given(small_forms)
def test_interior_point_is_interior(forms):
    cone = RationalCone.from_inequalities(3, forms)
    try:
        point = cone.interior_point()
    except ZeroCone:
        assert cone.rays == () and cone.lineality == ()
        return
    assert all(dot(f, point) >= 0 for f in cone.inequalities)
    assert violation_by_facets(cone, point) is None
    # strict on every facet of the cone itself
    for f in cone.facets:
        assert sum(f[i] * point[i] for i in range(3)) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(*(st.integers(-2, 2) for _ in range(3))),
        min_size=1,
        max_size=4,
    )
)
def test_vrep_hrep_agree_on_membership(rays):
    cone = cone_generated_by(3, rays)
    for r in rays:
        assert all(sum(f[i] * r[i] for i in range(3)) >= 0 for f in cone.inequalities)
        assert violation_by_facets(cone, r) is None


def _assert_witness(witness, small, big, kind):
    """A witness is a generator of `small` and a form of `big`, as printed
    under its `ineqs`, negative on it."""
    assert witness.keys() == {"kind", "ray", "violated_form"}
    assert witness["kind"] == kind
    ray, form = tuple(witness["ray"]), witness["violated_form"]
    assert ray in with_lines(*small.vrep())
    assert form in big.to_dict()["ineqs"]
    assert dot(form, ray) < 0


def test_witness_builders_pinned():
    """conelab's witness names a generator of the smaller cone and a given
    form of the bigger one negative on it; `engine_oracle.containment_witness`,
    the reference the K-theory witness is checked against, names a fixed
    ray per case.

    `orthant` strictly contains `narrow` and `diagonal`; `halfplane` has the
    orthant's rays but a lineality line, so it leaves the orthant only
    through the negated line.
    """
    from conekit.conelab import _missing_ray_witness

    orthant = cone_generated_by(2, [(1, 0), (0, 1)])
    narrow = cone_generated_by(2, [(1, 0), (1, 1)])
    diagonal = cone_generated_by(2, [(1, 1)])
    halfplane = cone_generated_by(2, [(1, 0)], [(0, 1)])

    for small, big in ((orthant, narrow), (orthant, diagonal), (halfplane, orthant)):
        _assert_witness(_missing_ray_witness(small, big, "k"), small, big, "k")
    assert _missing_ray_witness(halfplane, orthant, "k")["ray"] == [0, -1]
    # The first generator negative on the failing form, rays before lines:
    # x2 >= 0 has the ray (0, 1) and the line (1, 0), and x1 - x2 is
    # negative on (0, 1) and on (-1, 0).
    upper = RationalCone.from_inequalities(2, [(0, 1)])
    below_diagonal = RationalCone.from_inequalities(2, [(1, -1)])
    assert below_diagonal.missing_generator(upper) == ((0, 1), (1, -1))

    assert containment_witness(orthant, narrow) == {"ray_of": "E", "ray": [0, 1]}
    assert containment_witness(narrow, orthant) == {"ray_of": "D_dual", "ray": [0, 1]}
    assert containment_witness(orthant, diagonal) == {"ray_of": "E", "ray": [0, 1]}
    assert containment_witness(diagonal, orthant) == {"ray_of": "D_dual", "ray": [0, 1]}
    lineality_only = {"note": "cones differ only in lineality"}
    assert containment_witness(halfplane, orthant) == lineality_only
    assert containment_witness(orthant, halfplane) == lineality_only


# -- containment from the defining forms against the witness search ----------

_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def _cone_pairs(draw):
    """Two cone specifications (by_generators, vectors) in one dimension.

    A negated copy makes an equality of an H-cone or a line of a V-cone;
    empty lists give the whole space and the zero cone. The second cone is
    drawn at random, or generated by nonnegative combinations (and any
    combinations of lines) of the first cone's generators, or cut from the
    first cone's given forms by more forms; entries reach 10^6 either way.
    """
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[_ENTRY] * dim)

    def spec():
        vectors = draw(st.lists(vec, max_size=5))
        if vectors:
            negated = draw(st.lists(st.sampled_from(vectors), max_size=2))
            vectors += [tuple(-x for x in v) for v in negated]
        return draw(st.booleans()), vectors

    first = spec()
    how = draw(st.sampled_from(["random", "inside", "more_forms"]))
    if how == "random":
        return dim, first, spec()
    if how == "more_forms":
        by_generators, vectors = first
        forms = list(_build(dim, first).inequalities) if by_generators else vectors
        return dim, first, (False, forms + draw(st.lists(vec, max_size=3)))
    rays, lines = _build(dim, first).vrep()
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        g = [0] * dim
        for r in rays:
            c = draw(st.integers(0, 10**6))
            g = [x + c * y for x, y in zip(g, r)]
        for l in lines:
            c = draw(st.integers(-10**6, 10**6))
            g = [x + c * y for x, y in zip(g, l)]
        gens.append(tuple(g))
    by_generators = draw(st.booleans())
    if not by_generators:
        gens = list(_build(dim, (True, gens)).inequalities)
    return dim, first, (by_generators, gens)


def _build(dim, spec):
    """The cone of spec, given by its forms either way."""
    by_generators, vectors = spec
    if by_generators:
        return cone_generated_by(dim, vectors)
    return RationalCone.from_inequalities(dim, vectors)


@settings(max_examples=300, deadline=None)
@given(_cone_pairs(), st.booleans(), st.booleans())
def test_contains_matches_witness_search(problem, expand_self, expand_other):
    dim, a, b = problem
    big, small = _build(dim, a), _build(dim, b)
    if expand_self:
        big.vrep()
    if expand_other:
        small.vrep()
    expected = missing_generator_by_facets(_build(dim, a), _build(dim, b)) is None
    found = _build(dim, a).missing_generator(_build(dim, b))
    assert (found is None) == expected
    if found is not None:
        g, f = found
        assert f in big.inequalities and dot(f, g) < 0
        assert g in with_lines(*_build(dim, b).vrep())
    assert big.contains(small) == expected
    # Whatever sides `contains` handed over, they are the cone's own.
    fresh = _build(dim, a)
    assert big.vrep() == fresh.vrep() and big.dualrep() == fresh.dualrep()


def _no_expansion(monkeypatch):
    def refuse(dim, forms):
        raise AssertionError("a cone expanded")

    monkeypatch.setattr(polycone, "_both_sides", refuse)


def test_identical_forms_need_no_expansion(monkeypatch):
    forms = [(1, 0, 0), (0, 1, 0), (1, 1, -1), (0, 0, 1)]
    a = RationalCone.from_inequalities(3, forms)
    b = RationalCone.from_inequalities(3, [tuple(2 * x for x in f) for f in reversed(forms)])
    b.vrep()
    _no_expansion(monkeypatch)
    assert RationalCone.from_inequalities(3, forms).contains(a)
    # The same set: `a` keeps `b`'s sides as they are, no copy.
    assert a.contains(b)
    assert a._vrep is b._vrep and a._dualrep is b._dualrep


def test_strict_containment_shares_nothing():
    def cones():
        forms = [(1, 0), (0, 1)]
        return (RationalCone.from_inequalities(2, forms),
                RationalCone.from_inequalities(2, forms + [(1, -1)]))

    big, small = cones()
    small.vrep()
    assert big.contains(small)
    assert big._vrep is None
    # All of `big`'s forms are among `small`'s, but the test fails.
    big, small = cones()
    assert not small.contains(big)
    assert big._vrep is not None and small._vrep is None

