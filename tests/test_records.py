"""The frozen records: repr, equality, hashing, ordering, immutability,
validation, copying and `replace`, as the frozen dataclasses they stand in
for behaved."""

import copy
import pickle

import pytest

from bconn import (
    ArityMismatch,
    BitVector,
    EasyAnswer,
    LengthMismatch,
    LinearForm,
    SolutionSet,
    TruthTable,
    TVariant,
    UsageError,
    cnf_to_formula,
    components,
    dispatch,
    parse_base_file,
    parse_dimacs,
    parse_formula,
    parse_qbf,
)
from bconn.qbf import with_prefix

STD = parse_base_file("not 1 10\nand 2 0001\nor 2 0111\n")


def _instances():
    return {
        "BitVector": BitVector(3, 5),
        "TruthTable": TruthTable(2, 6),
        "LinearForm": LinearForm(frozenset({1, 3}), 1),
        "GateList": parse_formula("or(x2,not(x2))", STD),
        "DichotomyVerdict": dispatch(STD),
        "CnfFormula": parse_dimacs("p cnf 2 1\n1 -2 0\n"),
        "EasyAnswer": EasyAnswer(True, True, [BitVector(1, 1)], "monotone"),
        "SolutionSet": SolutionSet(2, (0, 1, 3)),
        "ComponentLabeling": components(SolutionSet(2, (0, 3))),
        # the class of the gate lists with_prefix and parse_qbf return
        "QuantifiedFormula": parse_qbf("A x2 : not(x2)", STD),
        "TVariant": TVariant("S02K", 3),
    }


REPRS = [
    ("BitVector", "BitVector(n=3, word=5)"),
    ("TruthTable", "TruthTable(n=2, bits=6)"),
    ("LinearForm", "LinearForm(support=frozenset({1, 3}), c=1)"),
    ("GateList", "GateList(inputs=(2,), gates=((TruthTable(n=1, bits=1), (0,)), "
     "(TruthTable(n=2, bits=14), (0, 1))), output=2, dim=2, prefix=None)"),
    ("DichotomyVerdict", "DichotomyVerdict(side='HARD', easy_class=None, "
     "hard_variant='S12', hard_k=None)"),
    ("CnfFormula", "CnfFormula(n=2, clauses=((1, -2),))"),
    ("EasyAnswer", "EasyAnswer(connected=True, st_connected=True, "
     "witness_path=[BitVector(n=1, word=1)], rationale='monotone')"),
    ("SolutionSet", "SolutionSet(n=2, words=(0, 1, 3))"),
    # the labeling's solution set is left out
    ("ComponentLabeling", "ComponentLabeling(count=2, representatives=(0, 3), sizes=(1, 1))"),
    ("QuantifiedFormula", "QuantifiedFormula(inputs=(2,), gates=((TruthTable(n=1, bits=1), (0,)),), "
     "output=1, dim=0, prefix=(('A', 2),))"),
    ("TVariant", "TVariant(kind='S02K', k=3)"),
]


@pytest.mark.parametrize("name,text", REPRS, ids=[r[0] for r in REPRS])
def test_repr_lists_the_fields(name, text):
    assert repr(_instances()[name]) == text


@pytest.mark.parametrize("name", [r[0] for r in REPRS])
def test_records_are_frozen_and_copy_equal(name):
    r, twin = _instances()[name], _instances()[name]
    assert r == twin and not r != twin
    if name == "EasyAnswer":  # its witness path is a list
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(twin)
    field = repr(r).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(r, field, 0)
    with pytest.raises(AttributeError):
        delattr(r, field)
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(other) is type(r) and other == r and repr(other) == repr(r)


def test_equality_and_hash_follow_the_fields_of_one_class():
    assert TruthTable(2, 6) == TruthTable(2, 6)
    assert hash(TruthTable(2, 6)) == hash(TruthTable(2, 6))
    assert TruthTable(2, 6) != TruthTable(2, 7) and TruthTable(2, 6) != TruthTable(3, 6)
    assert TruthTable(3, 6) != BitVector(3, 6)  # the same fields, another class
    assert BitVector(3, 6) != TruthTable(3, 6) and BitVector(2, 3) != (2, 3)
    assert len({TruthTable(1, 2), TruthTable(1, 2), TruthTable(2, 2)}) == 2
    assert parse_formula("not(x1)", STD) == parse_formula(" not( x1 )", STD)
    assert components(SolutionSet(2, (0, 1))) != components(SolutionSet(2, (0, 2)))


def test_bit_vectors_order_by_dimension_then_word():
    vs = [BitVector(3, 5), BitVector(2, 3), BitVector(3, 0), BitVector(1, 1), BitVector(2, 0)]
    assert [(v.n, v.word) for v in sorted(vs)] == [(1, 1), (2, 0), (2, 3), (3, 0), (3, 5)]
    assert BitVector(2, 3) < BitVector(3, 0) <= BitVector(3, 0) < BitVector(3, 1)
    assert BitVector(3, 1) > BitVector(3, 0) >= BitVector(3, 0)
    with pytest.raises(TypeError):
        BitVector(2, 1) < TruthTable(2, 1)
    with pytest.raises(TypeError):
        sorted([TruthTable(1, 1), TruthTable(1, 2)])


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: BitVector(0, 0), ArityMismatch, "dimension 0 outside [1, 30]"),
        (lambda: BitVector(2, 4), ArityMismatch, "word 4 does not fit 2 bits"),
        (lambda: TruthTable(-1, 0), ArityMismatch, "arity must be >= 0"),
        (lambda: TruthTable(1, 4), LengthMismatch, "table does not fit 2^1 rows"),
        (lambda: SolutionSet(-1, ()), UsageError, "dimension must be >= 0"),
        (lambda: SolutionSet(2, (1, 1)), UsageError, "words must be strictly increasing"),
        (lambda: SolutionSet(2, (0, 4)), UsageError, "word 4 does not fit 2 bits"),
        (lambda: SolutionSet.from_table(2, 16), UsageError, "table does not fit 2^2 rows"),
        (lambda: TVariant("S13"), UsageError, "unknown transform variant 'S13'"),
        (lambda: TVariant("S02K"), UsageError, "S02K needs a degree parameter k >= 2"),
        (lambda: TVariant("D1", 2), UsageError, "D1 takes no degree parameter"),
        (lambda: with_prefix(parse_formula("x1", STD), (("A", 1), ("E", 1))), UsageError,
         "x1 quantified twice"),
        (lambda: with_prefix(parse_formula("x1", STD), (("Q", 1),)), UsageError,
         "bad quantifier 'Q'"),
    ],
)
def test_validation_keeps_its_errors(make, error, message):
    with pytest.raises(error) as got:
        make()
    assert str(got.value) == message


def test_defaults_and_keywords():
    assert TVariant("S12").k is None and TVariant(kind="S02K", k=2).k == 2
    assert parse_formula("x1", STD).prefix is None


def test_replace_builds_a_changed_record():
    # cnf_to_formula declares all n variables; a quantified input counts its free ones
    assert cnf_to_formula(parse_dimacs("p cnf 5 1\n1 -2 0\n")).dim == 5
    q = parse_qbf("A x3 : or(x1,and(x2,x3))", STD)
    assert (q.dim, q.prefix) == (2, (("A", 3),))
