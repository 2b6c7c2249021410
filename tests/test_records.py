"""The package's records: the classes built on `exactmath._Record`, which
keep what their dataclass forms gave (construction, ==, hash or its
absence, repr, immutability), and every value's copy and pickle."""

import copy
import pickle

import pytest

from revsym.absgroup import ClaimsReport, GroupModel, Word, make_model
from revsym.elliptic import Curve, CurveMap, point
from revsym.exactmath import IntMatrix, IntPoly
from revsym.matgroup import GroupContext, SymmetryDescriptor, analyze
from revsym.polyauto import ExampleFamily, MultiPoly, PolyMap
from revsym.verify import CriterionResult


def replaced(record, **changes):
    """A copy of `record` with the named fields changed, built by its class
    from all its fields by keyword."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


X, Y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
IDENT2, NEG2 = PolyMap((X, Y)), PolyMap((-X, -Y))
FLIP = PolyMap((-X, Y))

# (class, positional fields of an example, a changed value for each field,
# the example's repr under the dataclass form of the class)
RECORDS = [
    (GroupModel,
     ("c2p", "Cinf x| C2p", 1, 10, (1, 0, 1, 0), frozenset({2, 10}), False,
      Word(n=1), 5),
     ("c4", "C4", 2, 6, (1, 0, 1, 1), frozenset({2}), True, Word(n=2), 3),
     "GroupModel(tag='c2p', display_name='Cinf x| C2p', torsion_order=1, "
     "r_order=10, action=(1, 0, 1, 0), reversor_orders=frozenset({2, 10}), "
     "has_t=False, f_word=Word(a=0, b=0, n=1, j=0), p=5)"),
    (ClaimsReport,
     (2, [2], [("reversors-nonempty", True, "2 reversors in window 1")]),
     (3, [4], []),
     "ClaimsReport(reversor_count=2, order_spectrum=[2], "
     "claims=[('reversors-nonempty', True, '2 reversors in window 1')])"),
    (CriterionResult,
     (3, "demo", 1.5, True, 0.0, ["PASS x"]),
     (4, "other", 2.0, False, 0.5, []),
     "CriterionResult(number=3, name='demo', time_limit=1.5, passed=True, "
     "elapsed=0.0, details=['PASS x'])"),
    (PolyMap,
     ((X, -Y),),
     ((X, Y),),
     "PolyMap(components=(MultiPoly(2, 'x'), MultiPoly(2, '-y')))"),
    (ExampleFamily,
     (1, IDENT2, NEG2, FLIP, None),
     (3, NEG2, IDENT2, IDENT2, FLIP),
     "ExampleFamily(case=1, f=PolyMap(components=(MultiPoly(2, 'x'), "
     "MultiPoly(2, 'y'))), s=PolyMap(components=(MultiPoly(2, '-x'), "
     "MultiPoly(2, '-y'))), r=PolyMap(components=(MultiPoly(2, '-x'), "
     "MultiPoly(2, 'y'))), t=None)"),
    (Curve,
     (0, 1),
     (-1, 2),
     "Curve(A=Fraction(0, 1), B=Fraction(1, 1))"),
    (CurveMap,
     (-1, point(2, 3)),
     (1, None),
     "CurveMap(sign=-1, base=(Fraction(2, 1), Fraction(3, 1)))"),
]
FROZEN = (GroupModel, PolyMap, ExampleFamily, Curve, CurveMap)
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls, fields, others, text", RECORDS, ids=IDS)
class TestRecordParity:
    def test_positional_and_keyword_construction(self, cls, fields, others,
                                                 text):
        value = cls(*fields)
        assert cls(**dict(zip(cls.__slots__, fields))) == value
        assert [getattr(value, name) for name in cls.__slots__] == list(
            fields)

    def test_eq_reads_every_field(self, cls, fields, others, text):
        value = cls(*fields)
        assert value == cls(*fields)
        assert not value != cls(*fields)
        assert value != (*fields,)
        for k, other in enumerate(others):
            changed = cls(*fields[:k], other, *fields[k + 1:])
            assert changed != value, cls.__slots__[k]
            assert not changed == value
            assert replaced(changed, **{cls.__slots__[k]: fields[k]}) == value

    def test_hash(self, cls, fields, others, text):
        if cls in FROZEN:
            assert hash(cls(*fields)) == hash(cls(*fields))
            assert len({cls(*fields), cls(*fields), cls(*others)}) == 2
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(cls(*fields))

    def test_assignment(self, cls, fields, others, text):
        value = cls(*fields)
        for name, other in zip(cls.__slots__, others):
            if cls in FROZEN:
                with pytest.raises(AttributeError):
                    setattr(value, name, other)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            else:
                setattr(value, name, other)
        assert value == cls(*(fields if cls in FROZEN else others))
        with pytest.raises(AttributeError):
            value.nosuch = 0

    def test_repr(self, cls, fields, others, text):
        assert repr(cls(*fields)) == text


def test_defaults():
    assert GroupModel("t", "T", 1, 2, (1, 0, 1, 0), frozenset({2})) == \
        GroupModel("t", "T", 1, 2, (1, 0, 1, 0), frozenset({2}), False,
                   Word(n=1), None)
    assert ExampleFamily(2, IDENT2, NEG2, FLIP).t is None
    a, b = CriterionResult(1, "a", 1.0), CriterionResult(1, "a", 1.0)
    assert (a.passed, a.elapsed, a.details) == (True, 0.0, [])
    a.details.append("PASS x")
    assert b.details == []


def test_validation():
    assert Curve(A=1, B="1/2").B == Curve(1, 0.5).B
    with pytest.raises(ValueError, match=r"^4A\^3 \+ 27B\^2 = 0 for "
                                         r"A=-3, B=2$"):
        Curve(-3, 2)
    for sign in (0, 2, "1"):
        with pytest.raises(ValueError,
                           match=f"^map sign must be 1 or -1, got {sign!r}$"):
            CurveMap(sign, None)
    assert PolyMap([X, Y]).components == (X, Y)
    for comps, message in (((), "map needs at least one component"),
                           ((X,), "component count must equal variable "
                                  "count"),
                           ((X, MultiPoly.variable(0, 3)),
                            "component variable counts differ")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolyMap(comps)


def report():
    return analyze(IntMatrix([[1, 2], [1, 3]]), GroupContext(2))


# one value of every immutable class, then the mutable records
VALUES = [IntMatrix([[1, 2], [3, 5]]), IntPoly([1, 0, -2]), GroupContext(3),
          GroupContext(2, projective=True),
          SymmetryDescriptor(2, IntMatrix([[0, 1], [1, 1]]), 1, 2),
          MultiPoly(2, {(1, 0): 3, (0, 2): -1}), make_model("cpxcinf", 5),
          make_model("twisted"), PolyMap((X, -Y)),
          ExampleFamily(3, IDENT2, NEG2, FLIP, IDENT2), Curve(-1, 0),
          CurveMap(-1, point(0, 1)), CurveMap(1, None), report(),
          ClaimsReport(1, [2], [("x", True, "y")]),
          CriterionResult(9, "z", 1.0, False, 0.25, ["FAIL w"])]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("way", [
    copy.copy, copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, pickle.HIGHEST_PROTOCOL)),
], ids=["copy", "deepcopy", "pickle", "pickle-highest"])
def test_values_copy_and_pickle(value, way):
    twin = way(value)
    assert type(twin) is type(value)
    assert twin == value
    assert repr(twin) == repr(value)
    if getattr(type(value), "__hash__", None) is not None:
        assert hash(twin) == hash(value)
