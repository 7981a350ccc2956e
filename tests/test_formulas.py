"""Formula text format, AST helpers, and lowering to gate lists."""

import random

import pytest

from bconn import (
    Apply,
    ArityMismatch,
    BconnError,
    BitVector,
    FormulaSyntaxError,
    UnknownFunction,
    Var,
    evaluate,
    formula_size,
    formula_vars,
    parse_circuit,
    parse_formula,
    parse_qbf,
    print_circuit,
    print_formula,
    substitute,
    truth_table_of,
)
from bconn.formulas import lower_formula
from bconn.qbf import lower_qbf

from conftest import (
    LIN_OPS,
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
    assert evaluate(ast, base, BitVector.parse("1")) == 1
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
            got = evaluate(ast, STD_BASE, BitVector(n, w))
            assert got == eval_ast_slow(ast, texts, env_of(w, n))


def test_formula_to_circuit_preserves_semantics():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 5)
        ast = rand_ast(rng, MONO_OPS, n, 15)
        circ = parse_circuit(print_circuit(lower_formula(ast, STD_BASE), STD_BASE), STD_BASE)
        for w in range(1 << n):
            a = BitVector(n, w)
            assert evaluate(circ, STD_BASE, a) == evaluate(ast, STD_BASE, a)


def test_formula_to_circuit_of_a_variable():
    text = print_circuit(lower_formula(Var(2), STD_BASE), STD_BASE)
    assert text == "input x2\noutput x2\n"
    circ = parse_circuit(text, STD_BASE)
    assert evaluate(circ, STD_BASE, BitVector.parse("01")) == 1
    assert evaluate(circ, STD_BASE, BitVector.parse("10")) == 0


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
    assert len(lower_formula(f, STD_BASE).gates) == 40


def test_apply_normalizes_args_to_tuple():
    ast = Apply("and", [Var(1), Var(2)])
    assert isinstance(ast.args, tuple)


def _spaced(rng: random.Random, text: str) -> str:
    """The text with random whitespace around its parens and commas."""
    out = []
    for c in text:
        if c in "(),":
            out.append(rng.choice(("", " ", "\t", "\n ")) + c + rng.choice(("", " ", "  ")))
        else:
            out.append(c)
    return "".join(out)


def test_parsing_into_gates_matches_lowering_the_tree():
    rng = random.Random(6006)
    # dup has and's table, so both names share one table number
    cases = [
        (STD_BASE, (("and", 2), ("or", 2), ("not", 1))),
        (mk_base(["xor", "eqv", "not"]), LIN_OPS),
        (mk_base(["imp", "c0", "c1"]), (("imp", 2), ("c0", 0), ("c1", 0))),
        (mk_base({"and": "0001", "dup": "0001", "maj": "00010111"}),
         (("and", 2), ("dup", 2), ("maj", 3))),
    ]
    for base, ops in cases:
        for _ in range(40):
            n = rng.randint(1, 6)
            text = _spaced(rng, print_formula(rand_ast(rng, ops, n, rng.randint(1, 40))))
            got = parse_formula(text, base, gates=True)
            want = lower_formula(parse_formula(text, base), base)
            assert (got.inputs, got.dim, len(got.gates)) == (want.inputs, want.dim, len(want.gates))
            m = max(want.dim, 1)
            assert truth_table_of(got, base, m) == truth_table_of(want, base, m)
            q = parse_qbf(f"E x{n} A x{n + 1} : {text}", base, gates=True)
            w = lower_qbf(parse_qbf(f"E x{n} A x{n + 1} : {text}", base), base)
            assert (q.inputs, q.dim, q.prefix, len(q.gates)) == (w.inputs, w.dim, w.prefix, len(w.gates))


# (text, exception type, message, position) as the recursive-descent
# parser reported them; the shift-reduce loop must report the same
MALFORMED = [
    ("", "FormulaSyntaxError", "expected identifier (at position 0)", 0),
    ("   ", "FormulaSyntaxError", "expected identifier (at position 3)", 3),
    ("and(x1,x2", "FormulaSyntaxError", "expected ',' or ')' (at position 9)", 9),
    ("and(x1 x2)", "FormulaSyntaxError", "expected ',' or ')' (at position 7)", 7),
    ("and(x1,)", "FormulaSyntaxError", "expected identifier (at position 7)", 7),
    ("and()", "FormulaSyntaxError", "expected identifier (at position 4)", 4),
    ("and(x1)", "ArityMismatch", "and takes 2 args, got 1", None),
    ("and(x1,x2,x3)", "ArityMismatch", "and takes 2 args, got 3", None),
    ("not x1", "ArityMismatch", "not takes 1 args, got 0", None),
    ("and", "ArityMismatch", "and takes 2 args, got 0", None),
    ("nor(x1,x2)", "UnknownFunction", "unknown function 'nor' at position 0", None),
    ("and(x1, nor(x2))", "UnknownFunction", "unknown function 'nor' at position 7", None),
    ("and( nor(x2),x1)", "UnknownFunction", "unknown function 'nor' at position 5", None),
    (" nor", "UnknownFunction", "unknown function 'nor' at position 0", None),
    ("x0", "UnknownFunction", "unknown function 'x0' at position 0", None),
    ("x01", "UnknownFunction", "unknown function 'x01' at position 0", None),
    ("x1 x2", "FormulaSyntaxError", "trailing input (at position 3)", 3),
    ("and(x1,x2))", "FormulaSyntaxError", "trailing input (at position 10)", 10),
    ("x1(", "FormulaSyntaxError", "trailing input (at position 2)", 2),
    ("and(x1(x2),x3)", "FormulaSyntaxError", "expected ',' or ')' (at position 6)", 6),
    ("(x1)", "FormulaSyntaxError", "expected identifier (at position 0)", 0),
    ("and(,x1)", "FormulaSyntaxError", "expected identifier (at position 4)", 4),
    ("and(x1,,x2)", "FormulaSyntaxError", "expected identifier (at position 7)", 7),
    ("c1(x1)", "ArityMismatch", "c1 takes 0 args, got 1", None),
    ("c1 (x1)", "ArityMismatch", "c1 takes 0 args, got 1", None),
    ("and(x1,c1( )", "FormulaSyntaxError", "expected ',' or ')' (at position 12)", 12),
    ("and(x1,\u00e9)", "UnknownFunction", "unknown function '\u00e9' at position 7", None),
    ("and(x1,x\u0661)", "UnknownFunction", "unknown function 'x\u0661' at position 7", None),
    ("x1-x2", "FormulaSyntaxError", "trailing input (at position 2)", 2),
    ("and(x1,not(x2)", "FormulaSyntaxError", "expected ',' or ')' (at position 14)", 14),
    ("and(x1 , not ( x2 ) ) )", "FormulaSyntaxError", "trailing input (at position 22)", 22),
    ("and(x1,x2),", "FormulaSyntaxError", "trailing input (at position 10)", 10),
    ("not(", "FormulaSyntaxError", "expected identifier (at position 4)", 4),
    ("and(x1,x2,nor(x1))", "UnknownFunction", "unknown function 'nor' at position 10", None),
    ("and(x1,x2,x3", "FormulaSyntaxError", "expected ',' or ')' (at position 12)", 12),
    ("nor(", "UnknownFunction", "unknown function 'nor' at position 0", None),
    ("c1 x1", "FormulaSyntaxError", "trailing input (at position 3)", 3),
    ("and(x1,\tnor)", "UnknownFunction", "unknown function 'nor' at position 7", None),
    ("or(x1,and(x2,x3)x4)", "FormulaSyntaxError", "expected ',' or ')' (at position 16)", 16),
    ("x1\u3000x2", "FormulaSyntaxError", "trailing input (at position 3)", 3),
    ("and(x1,x2)\xa0;", "FormulaSyntaxError", "trailing input (at position 11)", 11),
    ("and(c1(),c1) c1", "FormulaSyntaxError", "trailing input (at position 13)", 13),
    ("E x2 : and(x1", "FormulaSyntaxError", "expected ',' or ')' (at position 7)", 7),
    ("E x2 : ", "FormulaSyntaxError", "expected identifier (at position 1)", 1),
    ("E x2 x3 : x1", "FormulaSyntaxError", "prefix must be quantifier/variable pairs", None),
    ("Q x2 : x1", "FormulaSyntaxError", "bad quantifier 'Q'", None),
    ("E y2 : x1", "FormulaSyntaxError", "bad quantified variable 'y2'", None),
    ("E x0 : x1", "FormulaSyntaxError", "bad quantified variable 'x0'", None),
    ("E x2 E x2 : x1", "UsageError", "x2 quantified twice", None),
    ("E x2 E x2 : and(x1", "FormulaSyntaxError", "expected ',' or ')' (at position 7)", 7),
    ("E x2 : and(x1,x2) : x3", "FormulaSyntaxError", "trailing input (at position 12)", 12),
    ("A x3 :  nor(x1)", "UnknownFunction", "unknown function 'nor' at position 0", None),
    ("E x2 : and(x1, foo)", "UnknownFunction", "unknown function 'foo' at position 8", None),
]


@pytest.mark.parametrize("text, kind, message, position", MALFORMED)
@pytest.mark.parametrize("gates", [False, True])
def test_malformed_input_errors_are_pinned(text, kind, message, position, gates):
    base = mk_base(["and", "or", "not", "c1"])
    parse = parse_qbf if ":" in text else parse_formula
    with pytest.raises(BconnError) as info:
        parse(text, base, gates=gates)
    e = info.value
    assert (type(e).__name__, str(e), getattr(e, "position", None)) == (kind, message, position)
