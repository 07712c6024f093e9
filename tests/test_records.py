"""The frozen records: constructor, repr, equality, hash, immutability,
pattern matching, pickle and copy.

A record checks no field types, so the examples hold small plain values
where a field would hold a complex or a verifier's functions: the complexes
are neither hashable nor picklable, and that is theirs to decide.
"""

import copy
import pickle

import pytest

from cubicomb import (
    Check,
    CubicalCell,
    DuplicateVertexInCell,
    Face,
    FVector,
    GeneratedComplex,
    GVector,
    HVector,
    MacaulayDecomposition,
    Precondition,
    VerificationReport,
)
from cubicomb.vectors import _Vector
from cubicomb.verify import REGISTRY, Verifier

PRE = Precondition("pure", True, "")
CHECK = Check("f_0", 8, 8, "==", "")

# (class, field values, expected repr)
RECORDS = [
    (CubicalCell, (1, (3, 5)), "CubicalCell(dim=1, corners=(3, 5))"),
    (Face, (frozenset({3, 5}), 1, (3, 5)), "Face(key=frozenset({3, 5}), dim=1, corners=(3, 5))"),
    (
        GeneratedComplex,
        ("K", "ball", "pile(2)", True),
        "GeneratedComplex(complex='K', topology='ball', provenance='pile(2)', polytopal=True)",
    ),
    (_Vector, ("cubical", 1, (2, 1)), "_Vector(kind='cubical', dim=1, entries=(2, 1))"),
    (FVector, ("cubical", 1, (2, 1)), "FVector(kind='cubical', dim=1, entries=(2, 1))"),
    (HVector, ("simplicial", 1, (1, 0, 1)), "HVector(kind='simplicial', dim=1, entries=(1, 0, 1))"),
    (GVector, ("simplicial", 1, (1, -1)), "GVector(kind='simplicial', dim=1, entries=(1, -1))"),
    (Precondition, ("pure", False, "not pure"), "Precondition(description='pure', ok=False, detail='not pure')"),
    (Check, ("f_0", 8, 7, ">=", "x"), "Check(label='f_0', lhs=8, rhs=7, relation='>=', context='x')"),
    (
        VerificationReport,
        ("ds", "pass", (PRE,), (CHECK,), "w"),
        "VerificationReport(name='ds', status='pass', "
        "preconditions=(Precondition(description='pure', ok=True, detail=''),), "
        "checks=(Check(label='f_0', lhs=8, rhs=8, relation='==', context=''),), witness='w')",
    ),
    (
        MacaulayDecomposition,
        (5, 2, ((3, 2), (2, 1))),
        "MacaulayDecomposition(value=5, position=2, terms=((3, 2), (2, 1)))",
    ),
    (
        Verifier,
        ("ds", "cubical", "adin-ds", ((PRE,),), len),
        "Verifier(name='ds', kind='cubical', suite='adin-ds', "
        "stages=((Precondition(description='pure', ok=True, detail=''),),), "
        "checks=<built-in function len>)",
    ),
]

FIELDS = {
    CubicalCell: ("dim", "corners"),
    Face: ("key", "dim", "corners"),
    GeneratedComplex: ("complex", "topology", "provenance", "polytopal"),
    _Vector: ("kind", "dim", "entries"),
    FVector: ("kind", "dim", "entries"),
    HVector: ("kind", "dim", "entries"),
    GVector: ("kind", "dim", "entries"),
    Precondition: ("description", "ok", "detail"),
    Check: ("label", "lhs", "rhs", "relation", "context"),
    VerificationReport: ("name", "status", "preconditions", "checks", "witness"),
    MacaulayDecomposition: ("value", "position", "terms"),
    Verifier: ("name", "kind", "suite", "stages", "checks"),
}

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_record_fields_repr_equality_and_hash(cls, values, text):
    names = FIELDS[cls]
    assert cls.__match_args__ == names
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values
    assert repr(x) == text
    keywords = cls(**dict(zip(names, values)))
    assert keywords == x and not keywords != x and keywords is not x
    assert hash(keywords) == hash(x) == hash(values)
    changed = cls(*values[:-1], (3, 6) if cls is CubicalCell else "other")
    assert changed != x
    assert x != values and x.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, values, text):
    x = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0
    with pytest.raises(AttributeError):
        del x.extra
    assert tuple(getattr(x, name) for name in FIELDS[cls]) == values
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_records_survive_pickle_and_copy(cls, values, text):
    x = cls(*values)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
        with pytest.raises(AttributeError):
            setattr(y, FIELDS[cls][0], 0)


def test_records_of_different_classes_never_compare_equal():
    values = ("cubical", 1, (2, 1))
    vectors = [cls(*values) for cls in (_Vector, FVector, HVector, GVector)]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            assert (a == b) is (i == j) and (a != b) is (i != j)
    assert FVector(*values) != HVector(*values)
    assert len(set(vectors)) == 4 and len({hash(v) for v in vectors}) == 1


def test_face_is_slotted():
    face = Face(frozenset({3, 5}), 1, (3, 5))
    assert not hasattr(face, "__dict__")
    assert set(Face.__slots__) == {"key", "dim", "corners"}


def test_record_defaults_and_keywords():
    assert Precondition("pure", True) == Precondition("pure", True, "")
    assert Precondition(ok=False, description="d").detail == ""
    check = Check("f_0", 1, 2)
    assert (check.relation, check.context, check.ok) == ("==", "", False)
    assert Check(rhs=2, lhs=3, label="f_0", relation=">=").ok
    report = VerificationReport("ds", "inapplicable")
    assert (report.preconditions, report.checks, report.witness) == ((), (), None)
    assert not report.passed and VerificationReport("ds", "pass").passed
    assert GeneratedComplex("K", "none", "").polytopal is False
    with pytest.raises(TypeError):
        Check("f_0", 1)
    with pytest.raises(TypeError):
        Precondition("pure", True, "", "extra")
    with pytest.raises(TypeError):
        FVector("cubical", 1, (1,), kind="cubical")


def test_post_init_refusals():
    assert CubicalCell(1, [3, 5]).corners == (3, 5)
    assert CubicalCell(0, (7,)).key == frozenset({7})
    with pytest.raises(ValueError, match="cell dimension must be nonnegative"):
        CubicalCell(-1, ())
    with pytest.raises(ValueError, match="a 1-cell needs 2 corners, got 3"):
        CubicalCell(1, (0, 1, 2))
    with pytest.raises(DuplicateVertexInCell):
        CubicalCell(1, (4, 4))
    with pytest.raises(ValueError, match="vertex ids must be nonnegative integers"):
        CubicalCell(1, (0, True))
    with pytest.raises(ValueError, match="unknown relation '<>'"):
        Check("f_0", 1, 1, "<>")


def test_records_match_by_position_and_keyword():
    match CubicalCell(1, (3, 5)):
        case CubicalCell(dim, corners=(a, b)):
            assert (dim, a, b) == (1, 3, 5)
        case _:
            pytest.fail("no match")
    match FVector("cubical", 1, (2, 1)):
        case HVector():
            pytest.fail("an f-vector matched the h-vector class")
        case FVector(kind, _, entries):
            assert (kind, entries) == ("cubical", (2, 1))


def test_registry_entries_copy_as_records():
    entry = REGISTRY[0]
    assert copy.copy(entry) == entry and copy.deepcopy(entry) == entry
    assert hash(copy.copy(entry)) == hash(entry)
    assert entry.__match_args__ == FIELDS[Verifier]
