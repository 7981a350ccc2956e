"""Formula text format, AST helpers, and circuit lowering."""

import random

import pytest

from bconn import (
    Apply,
    ArityMismatch,
    BitVector,
    FormulaSyntaxError,
    UnknownFunction,
    Var,
    evaluate_circuit,
    evaluate_formula,
    formula_size,
    formula_to_circuit,
    formula_vars,
    parse_formula,
    print_formula,
    substitute,
    truth_table_of,
)

from conftest import (
    MONO_OPS,
    STD_BASE,
    base_texts,
    env_of,
    eval_ast_slow,
    mk_base,
    rand_ast,
    tt_of,
)


def test_parse_print_round_trip():
    for text in (
        "x1",
        "and(x1,x2)",
        "or(and(x1,not(x2)),x3)",
        "not(not(x10))",
    ):
        ast = parse_formula(text, STD_BASE)
        assert print_formula(ast) == text


def test_parse_tolerates_whitespace():
    ast = parse_formula(" and ( x1 , or(x2, x3) ) ", STD_BASE)
    assert print_formula(ast) == "and(x1,or(x2,x3))"


def test_parse_zero_ary_application():
    base = mk_base(["and", "c1"])
    ast = parse_formula("and(x1,c1)", base)
    assert print_formula(ast) == "and(x1,c1)"
    assert evaluate_formula(ast, base, BitVector.parse("1")) == 1
    # the parenthesized spelling parses to the same tree
    assert parse_formula("and(x1,c1())", base) == ast


def test_parse_errors():
    with pytest.raises(UnknownFunction):
        parse_formula("nor(x1,x2)", STD_BASE)
    with pytest.raises(ArityMismatch):
        parse_formula("and(x1)", STD_BASE)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("and(x1,x2", STD_BASE)
    with pytest.raises(UnknownFunction):
        # x0 is not a variable token, so it reads as a function name
        parse_formula("x0", STD_BASE)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("", STD_BASE)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("and(x1,x2) x3", STD_BASE)


def test_formula_vars_and_size():
    ast = parse_formula("or(and(x2,x2),not(x7))", STD_BASE)
    assert formula_vars(ast) == {2, 7}
    assert formula_size(ast) == 6


def test_substitute_replaces_leaves():
    ast = parse_formula("and(x1,x2)", STD_BASE)
    out = substitute(ast, {2: parse_formula("or(x3,x4)", STD_BASE)})
    assert print_formula(out) == "and(x1,or(x3,x4))"
    # untouched indices stay as they are
    assert print_formula(substitute(ast, {9: Var(1)})) == "and(x1,x2)"


def test_evaluate_formula_matches_row_oracle():
    rng = random.Random(1001)
    texts = base_texts(STD_BASE)
    ops = (("and", 2), ("or", 2), ("not", 1))
    for _ in range(60):
        n = rng.randint(1, 6)
        ast = rand_ast(rng, ops, n, rng.randint(1, 25))
        for w in range(1 << n):
            got = evaluate_formula(ast, STD_BASE, BitVector(n, w))
            assert got == eval_ast_slow(ast, texts, env_of(w, n))


def test_formula_to_circuit_preserves_semantics():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 5)
        ast = rand_ast(rng, MONO_OPS, n, 15)
        dag = formula_to_circuit(ast)
        for w in range(1 << n):
            a = BitVector(n, w)
            assert evaluate_circuit(dag, STD_BASE, a) == evaluate_formula(ast, STD_BASE, a)


def test_formula_to_circuit_of_a_variable():
    dag = formula_to_circuit(Var(2))
    assert evaluate_circuit(dag, STD_BASE, BitVector.parse("01")) == 1
    assert evaluate_circuit(dag, STD_BASE, BitVector.parse("10")) == 0


def test_deep_chain_folds_without_recursion():
    ast = Var(1)
    for _ in range(5000):
        ast = Apply("not", (ast,))
    assert formula_size(ast) == 5001
    assert formula_vars(ast) == {1}
    out = substitute(ast, {1: Var(2)})
    assert formula_vars(out) == {2} and formula_size(out) == 5001
    assert truth_table_of(ast, STD_BASE, 1) == tt_of("01")


def test_shared_subterms_are_walked_once():
    f = Var(1)
    for _ in range(40):
        f = Apply("and", (f, f))
    assert formula_size(f) == 2**41 - 1
    out = substitute(f, {1: Var(3)})
    assert out.args[0] is out.args[1]
    assert formula_vars(out) == {3}
    assert len(formula_to_circuit(f).gates) == 40


def test_apply_normalizes_args_to_tuple():
    ast = Apply("and", [Var(1), Var(2)])
    assert isinstance(ast.args, tuple)
