"""The package's records: equality and hash by fields, fixed reprs, no field
assignment, and constructors that store tuples of ints."""

import dataclasses
import pprint

import pytest

from conekit import (
    CartanMatrix,
    ConeProfile,
    ConeReport,
    DynkinQuiver,
    PlueckerRelation,
    cartan_matrix,
    check_conjecture,
    ktheory_cones,
    negative_tight_cone,
    parse_quiver,
    pluecker_relations,
)
from conekit.quiverrep import NotSimplyLaced


def _cartan():
    c = cartan_matrix("A", 2)
    return c, CartanMatrix(((2, -1), (-1, 2))), cartan_matrix("B", 2)


def _quiver():
    return (parse_quiver("1>2"), DynkinQuiver(CartanMatrix([[2, -1], [-1, 2]]), ((1, 2),)),
            parse_quiver("2>1"))


def _profile():
    p = negative_tight_cone(cartan_matrix("A", 2), (1, 2, 1)).analyze()
    return p, ConeProfile(3, 2, 1, 1, True), ConeProfile(3, 2, 1, 2, True)


def _relation():
    r = pluecker_relations(3)[0]
    return r, PlueckerRelation(tuple(r.terms)), PlueckerRelation(r.terms[:2])


def _report():
    r = check_conjecture(parse_quiver("1>2"), (2, 1, 2))
    return r, ConeReport(*r), r._replace(verdict="strict_subset")


RECORDS = {
    "CartanMatrix": (_cartan, "entries", "CartanMatrix(entries=((2, -1), (-1, 2)))"),
    "DynkinQuiver": (_quiver, "arrows", "DynkinQuiver(cartan=CartanMatrix(entries=((2, -1), (-1, 2))), "
                     "arrows=((1, 2),))"),
    "ConeProfile": (_profile, "facet_count", "ConeProfile(dimension=3, lineality_dim=2, ray_count=1, "
                    "facet_count=1, is_simplicial_mod_lineality=True)"),
    "PlueckerRelation": (_relation, "terms", "PlueckerRelation(terms=((1, (1,), (2, 3)), "
                         "(-1, (2,), (1, 3)), (1, (3,), (1, 2))))"),
    "ConeReport": (_report, "verdict", "ConeReport(word=(2, 1, 2), quiver='1>2', verdict='equal', "
                   "witness=None, degree_cone=RationalCone(dim=3, 1 ineqs), "
                   "negative_cone=RationalCone(dim=3, 1 ineqs), roots=((0, 1), (1, 1), (1, 0)))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_hash_repr_and_immutability(name):
    build, field, text = RECORDS[name]
    record, same, changed = build()
    assert type(record).__name__ == name
    assert record == same and hash(record) == hash(same)
    assert record != changed
    assert repr(record) == repr(same) == text
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(changed, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_keep_the_dataclasses_functions():
    report = check_conjecture(parse_quiver("1>2"), (2, 1, 2))
    tampered = dataclasses.replace(report, verdict="strict_subset")
    assert type(tampered) is ConeReport and tampered.verdict == "strict_subset"
    assert tampered.degree_cone is report.degree_cone
    assert [f.name for f in dataclasses.fields(report)] == list(ConeReport._fields)
    assert pprint.pformat(report, width=40).startswith("ConeReport(word=(2, 1, 2),")
    profile = negative_tight_cone(cartan_matrix("A", 2), (1, 2, 1)).analyze()
    assert dataclasses.asdict(profile) == profile._asdict()
    assert list(profile._asdict()) == [
        "dimension", "lineality_dim", "ray_count", "facet_count", "is_simplicial_mod_lineality"]


def test_replaced_quiver_is_validated():
    quiver = parse_quiver("1>2")
    with pytest.raises(ValueError, match="bad arrow 1>1"):
        dataclasses.replace(quiver, arrows=((1, 1),))
    with pytest.raises(ValueError, match="bad arrow 1>1"):
        quiver._replace(arrows=((1, 1),))
    with pytest.raises(TypeError):
        quiver._replace(arrows=((1.0, 2),))


def test_records_built_from_lists_are_hashable():
    c = CartanMatrix([[2, -1], [-1, 2]])
    assert c == CartanMatrix(((2, -1), (-1, 2)))
    assert hash(c) == hash(CartanMatrix(((2, -1), (-1, 2))))
    quiver = DynkinQuiver(cartan_matrix("A", 2), [[1, 2]])
    assert quiver.arrows == ((1, 2),)
    hash(quiver)
    word = (2, 1, 2)
    assert ktheory_cones(quiver, word) == ktheory_cones(parse_quiver("1>2"), word)


@pytest.mark.parametrize("arrows", [((1.0, 2),), ((1, 2.0),), (("1", 2),)])
def test_quiver_rejects_non_int_arrows(arrows):
    with pytest.raises(TypeError):
        DynkinQuiver(cartan_matrix("A", 2), arrows)


@pytest.mark.parametrize("entries, sym", [([[2.0, -1], [-1, 2]], [1, 1])])
def test_cartan_matrix_rejects_non_int_entries(entries, sym):
    with pytest.raises(TypeError):
        CartanMatrix(entries)
    with pytest.raises(TypeError):  # a symmetrizer is no longer an argument
        CartanMatrix([[int(x) for x in row] for row in entries], sym)


def test_bool_arrow_ends_are_stored_as_ints():
    quiver = DynkinQuiver(cartan_matrix("A", 2), ((True, 2),))
    assert str(quiver) == "1>2"
    assert type(quiver.arrows[0][0]) is int


@pytest.mark.parametrize("arrows, message", [
    (((1, 2),), "arrow count between 2 and 3 does not match the diagram"),
    (((1, 2), (2, 3), (3, 2)), "arrow count between 2 and 3 does not match the diagram"),
    (((1, 3), (2, 3)), "arrow count between 1 and 2 does not match the diagram"),
    (((1, 2), (2, 1), (2, 3)), "arrow count between 1 and 2 does not match the diagram"),
    (((2, 1), (3, 1)), "arrow count between 1 and 3 does not match the diagram"),
    (((1, 1), (2, 3)), "bad arrow 1>1"),
    (((1, 2), (2, 4)), "bad arrow 2>4"),
])
def test_quiver_names_its_first_fault(arrows, message):
    # The diagram is read once per Cartan matrix; each quiver's arrows are
    # still checked against it, the first fault named.
    with pytest.raises(ValueError) as caught:
        DynkinQuiver(cartan_matrix("A", 3), arrows)
    assert str(caught.value) == message


def test_a_non_simply_laced_matrix_is_refused_every_time():
    for _ in range(2):
        with pytest.raises(NotSimplyLaced, match=r"entry a\[1\]\[2\] = -2"):
            DynkinQuiver(cartan_matrix("B", 2), ((1, 2),))
