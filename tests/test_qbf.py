"""Quantified formulas: syntax, free variables, expansion semantics."""

import random

import pytest

from bconn import (
    BitVector,
    BudgetExceeded,
    FormulaSyntaxError,
    UsageError,
    evaluate,
    parse_formula,
    parse_qbf,
    print_qbf,
)
from bconn.errors import LIMITS
from bconn.qbf import quantified_value, with_prefix

from conftest import (
    LIN_BASE,
    LIN_OPS,
    MONO_BASE,
    MONO_OPS,
    STD_BASE,
    base_texts,
    eval_qbf_slow,
    qbf_free_vars,
    rand_qbf,
)


def test_parse_print_round_trip():
    q = parse_qbf("A x3 E x4 : and(x1,or(x3,x4))", STD_BASE)
    assert q.prefix == (("A", 3), ("E", 4))
    assert print_qbf(q, STD_BASE) == "A x3 E x4 : and(x1,or(x3,x4))"
    assert print_qbf(parse_qbf("or(x2,x1)", STD_BASE), STD_BASE) == "or(x2,x1)"


def test_formula_without_prefix_parses_as_closed_matrix():
    q = parse_qbf("and(x1,x2)", STD_BASE)
    assert q.prefix == ()
    assert q.free_vars() == [1, 2]


def test_free_and_bound_variables():
    q = parse_qbf("E x2 : or(x1,and(x2,x5))", STD_BASE)
    assert q.inputs == (1, 2, 5) and q.prefix == (("E", 2),)
    assert q.free_vars() == [1, 5] and q.dim == 2


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_qbf("Q x1 : x1", STD_BASE)
    with pytest.raises(FormulaSyntaxError):
        parse_qbf("E : x1", STD_BASE)
    with pytest.raises(FormulaSyntaxError):
        parse_qbf("E x0 : x1", STD_BASE)
    with pytest.raises(UsageError, match="^x1 quantified twice$"):
        parse_qbf("E x1 A x1 : x1", STD_BASE)
    with pytest.raises(UsageError, match="^x1 quantified twice$"):
        with_prefix(parse_formula("x1", STD_BASE), (("E", 1), ("A", 1)))
    with pytest.raises(UsageError, match="^bad quantifier 'X'$"):
        with_prefix(parse_formula("x1", STD_BASE), (("X", 1),))


def test_quantifier_order_matters():
    outer_forall = parse_qbf("A x1 E x2 : or(and(x1,x2),and(not(x1),not(x2)))", STD_BASE)
    outer_exists = parse_qbf("E x2 A x1 : or(and(x1,x2),and(not(x1),not(x2)))", STD_BASE)
    assert evaluate(outer_forall, STD_BASE, None) == 1
    assert evaluate(outer_exists, STD_BASE, None) == 0


def test_eval_requires_matching_free_assignment():
    q = parse_qbf("E x2 : and(x1,x2)", STD_BASE)
    with pytest.raises(UsageError):
        evaluate(q, STD_BASE, None)
    with pytest.raises(UsageError):
        evaluate(q, STD_BASE, BitVector.parse("00"))
    assert evaluate(q, STD_BASE, BitVector.parse("1")) == 1
    assert evaluate(q, STD_BASE, BitVector.parse("0")) == 0


def test_quantifying_a_fictive_variable_is_allowed():
    q = parse_qbf("A x9 : x1", STD_BASE)
    assert q.free_vars() == [1]
    assert evaluate(q, STD_BASE, BitVector.parse("1")) == 1


def test_prefix_budget():
    matrix = parse_formula("x1", STD_BASE)
    prefix = tuple(("E", j) for j in range(2, 30))
    with pytest.raises(BudgetExceeded, match="^28 bound variables over the limit of 20$"):
        quantified_value(with_prefix(matrix, prefix), [BitVector.parse("1")])


def test_bound_variables_limit_is_inclusive(monkeypatch):
    monkeypatch.setitem(LIMITS, "bound variables", 3)
    q = parse_qbf("E x2 A x3 E x4 : or(x1,and(x2,or(x3,x4)))", STD_BASE)
    assert evaluate(q, STD_BASE, [BitVector.parse("0"), BitVector.parse("1")]) == 0b11
    monkeypatch.setitem(LIMITS, "bound variables", 2)
    with pytest.raises(BudgetExceeded, match="^3 bound variables over the limit of 2$"):
        evaluate(q, STD_BASE, BitVector.parse("0"))


def test_eval_matches_naive_expansion():
    rng = random.Random(31337)
    cases = [(MONO_BASE, MONO_OPS), (LIN_BASE, LIN_OPS)]
    for base, ops in cases:
        texts = base_texts(base)
        for _ in range(30):
            text = rand_qbf(rng, ops, rng.randint(2, 6), rng.randint(0, 4), rng.randint(1, 20))
            q = parse_qbf(text, base)
            free = qbf_free_vars(text)
            assert q.free_vars() == free
            for w in range(1 << len(free)):
                env = {j: (w >> (len(free) - 1 - p)) & 1 for p, j in enumerate(free)}
                expect = eval_qbf_slow(text, texts, env)
                a = BitVector(len(free), w) if free else None
                assert evaluate(q, base, a) == expect


def test_quantified_formula_lowers_to_its_matrix_under_the_prefix():
    q = with_prefix(parse_formula("or(x1,x2)", STD_BASE), (("A", 2),))
    assert evaluate(q, STD_BASE, BitVector.parse("1")) == 1
    assert evaluate(q, STD_BASE, BitVector.parse("0")) == 0
