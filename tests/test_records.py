"""The value classes keep their contracts: field-wise equality and hash,
read-only fields where immutable, validating constructors and copies, a
readable repr, and a pickle round trip (``--jobs 2`` sends grid cells and
check records between processes)."""

import pickle

import pytest

from semiringlab import (
    ExpectationInstance,
    Ideal,
    NotAnIdeal,
    NotASubmodule,
    Subsemimodule,
    build_expectation,
    builtin,
    self_module,
    zmod_quotient_module,
)
from semiringlab.numeric import CycleDetected, GraphEdge, InvalidGraph, NumericWeight, WeightedDag
from semiringlab.tables import AxiomViolation, FiniteSemimodule, FiniteSemiring, Subset
from semiringlab.theorems import CheckRecord, GridCell, PairContext, VerificationReport

Z4 = builtin("zmod_4")
M4 = self_module(Z4)
EVEN = frozenset({0, 2})


def dag(p=0.5, sink="t"):
    return WeightedDag(1, ("s", "a", "t"), "s", sink, (GraphEdge("s", "a", p, (1.0,)), GraphEdge("a", "t", 1.0, (2.0,))))


def record(status="pass"):
    return CheckRecord("Thm-2.6-1", "E(zmod_4, zmod_4)", status, None, 0.5)


# Per class: two equal values built apart (a label may differ) and a value
# that differs in one compared field.
FROZEN = {
    AxiomViolation: (AxiomViolation("add_identity", (1,)), AxiomViolation("add_identity", (1,)),
                     AxiomViolation("add_identity", (2,))),
    FiniteSemiring: (Z4, builtin("zmod_4").replace(name="relabelled"), Z4.replace(one=3)),
    FiniteSemimodule: (M4, self_module(Z4).replace(name="relabelled"), M4.replace(zero=1)),
    Subset: (Subset(Z4, EVEN), Subset(Z4, frozenset({2, 0})), Subset(Z4, frozenset({0}))),
    Ideal: (Ideal(Z4, EVEN), Ideal(Z4, frozenset({2, 0})), Ideal(Z4, frozenset({0}))),
    Subsemimodule: (Subsemimodule(M4, EVEN), Subsemimodule(M4, frozenset({2, 0})), Subsemimodule(M4, frozenset({0}))),
    ExpectationInstance: (build_expectation(Z4, M4), build_expectation(Z4, M4),
                          build_expectation(Z4, zmod_quotient_module(4, 2))),
    NumericWeight: (NumericWeight(1, [2]), NumericWeight(1.0, (2.0,)), NumericWeight(1.0, (3.0,))),
    WeightedDag: (dag(), dag(), dag(p=0.25)),
}
MUTABLE = {
    CheckRecord: (record(), record(), record("fail")),
    GridCell: (GridCell("E(zmod_4, zmod_4)", Z4, M4), GridCell("E(zmod_4, zmod_4)", Z4, M4), GridCell("x", Z4, M4)),
    PairContext: (PairContext("c", Z4, M4), PairContext("c", Z4, M4), PairContext("c", Z4, M4, ["S4.00"])),
    VerificationReport: (VerificationReport([record()], [], ["c"], 0), VerificationReport([record()], [], ["c"], 0),
                         VerificationReport([record("fail")], [], ["c"], 0)),
}
ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_equality_follows_the_compared_fields(cls):
    a, b, c = ALL[cls]
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    if cls in FROZEN:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_structures_ignore_their_label():
    assert Z4.replace(name="S4.11") == Z4 and hash(Z4.replace(name="S4.11")) == hash(Z4)
    assert M4.replace(name="other") == M4 and hash(M4.replace(name="other")) == hash(M4)


def test_equal_fields_in_another_class_are_not_equal():
    assert Ideal(Z4, EVEN) != Subset(Z4, EVEN) and Subset(Z4, EVEN) != Ideal(Z4, EVEN)
    assert Subsemimodule(M4, EVEN) != Subset(M4, EVEN)
    assert NumericWeight(1.0, ()) != (1.0, ())
    assert len({Ideal(Z4, EVEN), Subset(Z4, EVEN), Ideal(Z4, frozenset(EVEN))}) == 2


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_fields_refuse_assignment(cls):
    value = FROZEN[cls][0]
    for field in (*value._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert FROZEN[cls][0] == FROZEN[cls][1]


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_take_assignment(cls):
    value = MUTABLE[cls][0].replace()
    setattr(value, value._fields[0], "changed")
    assert getattr(value, value._fields[0]) == "changed" and value != MUTABLE[cls][0]


def test_constructors_and_copies_validate():
    with pytest.raises(ValueError, match="outside carrier"):
        Subset(Z4, frozenset({4}))
    with pytest.raises(NotAnIdeal):
        Ideal(Z4, frozenset({0, 1}))
    with pytest.raises(NotASubmodule):
        Subsemimodule(zmod_quotient_module(4, 2), frozenset({1}))
    with pytest.raises(ValueError, match="mass must be nonnegative"):
        NumericWeight(-1.0, ())
    with pytest.raises(TypeError, match="weights nest raw floats"):
        NumericWeight(NumericWeight(1.0, ()), ())
    with pytest.raises(InvalidGraph, match="negative mass"):
        dag(p=-0.5)
    with pytest.raises(InvalidGraph, match="source and sink must be declared nodes"):
        dag(sink="x")
    with pytest.raises(CycleDetected):
        WeightedDag(0, ("s", "a", "b", "t"), "s", "t", (GraphEdge("a", "b", 1.0, ()), GraphEdge("b", "a", 1.0, ())))
    # the copy path runs the same constructor
    with pytest.raises(NotAnIdeal):
        Ideal(Z4, EVEN).replace(members=frozenset({0, 1}))
    with pytest.raises(ValueError, match="mass must be nonnegative"):
        NumericWeight(1.0, ()).replace(p=-1.0)
    with pytest.raises(InvalidGraph, match="source and sink"):
        dag().replace(sink="x")
    with pytest.raises(TypeError):
        Z4.replace(not_a_field=1)
    assert NumericWeight(1.0, (2.0,)).replace(p=3) == NumericWeight(3.0, (2.0,))


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls, protocol):
    value = ALL[cls][0]
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert type(copy) is cls and copy == value and copy is not value
    if cls is WeightedDag:
        assert copy.topological_order == ("s", "a", "t") and copy.outgoing("a") == value.outgoing("a")
    if cls is FiniteSemiring:
        assert pickle.loads(pickle.dumps(Z4.replace(name="S4.11"), protocol)).name == "S4.11"


def test_repr_names_the_class_and_every_field():
    assert repr(AxiomViolation("add_identity", (1,))) == "AxiomViolation(axiom='add_identity', witness=(1,))"
    assert repr(NumericWeight(1, [2])) == "NumericWeight(p=1.0, r=(2.0,))"
    assert repr(record()) == (
        "CheckRecord(theorem='Thm-2.6-1', instance='E(zmod_4, zmod_4)', status='pass', witness=None, runtime=0.5)"
    )
    boolean = builtin("boolean")
    assert repr(boolean) == (
        "FiniteSemiring(size=2, add_table=((0, 1), (1, 1)), mul_table=((0, 0), (0, 1)), zero=0, one=1, name='boolean')"
    )
    assert repr(Ideal(boolean, frozenset({0}))) == f"Ideal(parent={boolean!r}, members=frozenset({{0}}))"
    assert repr(PairContext("c", boolean, self_module(boolean))).startswith("PairContext(label='c', semiring=")
