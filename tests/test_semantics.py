"""Truth-table extraction agrees with row-at-a-time evaluation."""

import random

import pytest

from bconn import (
    BitVector,
    BudgetExceeded,
    CnfFormula,
    MissingVariable,
    TruthTable,
    UsageError,
    evaluate,
    linear_form_of,
    min_dimension,
    parse_circuit,
    parse_formula,
    parse_qbf,
    print_circuit,
    truth_table_of,
    tt_print,
)
import bconn.qbf
from bconn.circuits import tabulate
from bconn.errors import LIMITS
from bconn.semantics import lower
from bconn.truthtable import var_mask

from conftest import (
    LIN_BASE,
    LIN_OPS,
    MONO_BASE,
    MONO_OPS,
    STD_BASE,
    ast_solutions_slow,
    base_texts,
    circuit_solutions_slow,
    env_of,
    eval_ast_slow,
    eval_circuit_slow,
    eval_cnf_slow,
    eval_qbf_slow,
    mk_base,
    qbf_free_vars,
    qbf_solutions_slow,
    rand_ast,
    rand_linear_circuit,
    rand_qbf,
    rand_three_cnf,
    tt_of,
)


def one_rows_set(f) -> set[int]:
    return set(f.one_rows())


def test_formula_tables_match_row_oracle():
    rng = random.Random(2024)
    texts = base_texts(STD_BASE)
    ops = (("and", 2), ("or", 2), ("not", 1))
    for _ in range(40):
        n = rng.randint(1, 6)
        text = rand_ast(rng, ops, n, rng.randint(1, 30))
        f = truth_table_of(parse_formula(text, STD_BASE), STD_BASE, n)
        assert one_rows_set(f) == ast_solutions_slow(text, texts, n)


def test_circuit_tables_match_row_oracle():
    rng = random.Random(2025)
    texts = base_texts(LIN_BASE)
    for _ in range(40):
        n = rng.randint(1, 6)
        text = rand_linear_circuit(rng, n, rng.randint(1, 9))
        f = truth_table_of(parse_circuit(text, LIN_BASE), LIN_BASE, n)
        assert one_rows_set(f) == circuit_solutions_slow(text, texts, n)


def test_cnf_tables_match_clause_scan():
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(1, 7)
        cnf = rand_three_cnf(rng, n, rng.randint(0, 9))
        f = truth_table_of(cnf, STD_BASE, n)
        assert one_rows_set(f) == {w for w in range(1 << n) if eval_cnf_slow(cnf, env_of(w, n))}


def test_qbf_tables_match_naive_expansion():
    rng = random.Random(2027)
    for base, ops in ((MONO_BASE, MONO_OPS), (LIN_BASE, LIN_OPS)):
        texts = base_texts(base)
        for _ in range(25):
            text = rand_qbf(rng, ops, rng.randint(2, 6), rng.randint(0, 4), rng.randint(1, 18))
            n = len(qbf_free_vars(text))
            f = truth_table_of(parse_qbf(text, base), base, n)
            assert one_rows_set(f) == qbf_solutions_slow(text, texts)


def test_evaluate_dispatches_across_kinds():
    ast = parse_formula("or(x1,x2)", STD_BASE)
    assert evaluate(ast, STD_BASE, BitVector.parse("10")) == 1
    q = parse_qbf("E x2 : and(x1,x2)", STD_BASE)
    assert evaluate(q, STD_BASE, BitVector.parse("1")) == 1
    f = tt_of("0110")
    assert evaluate(f, STD_BASE, BitVector.parse("01")) == 1


def test_fictive_widening():
    ast = parse_formula("x1", STD_BASE)
    f = truth_table_of(ast, STD_BASE, 3)
    assert tt_print(f) == "00001111"
    g = truth_table_of(tt_of("01"), STD_BASE, 2)
    assert tt_print(g) == "0011"


def _tabulated(f, n):
    """The table of f over x_1..x_n the way any gate list gets it."""
    gl = lower(f)
    return TruthTable(n, tabulate(gl, [var_mask(n, j) for j in gl.inputs], 1 << n))


def test_a_table_of_the_requested_arity_is_its_own_table():
    rng = random.Random(1616)
    for n in range(11):
        for k in range(n + 1):  # x_(k+1)..x_n fictive when k < n
            small = TruthTable(k, rng.getrandbits(1 << k))
            f = truth_table_of(small, STD_BASE, n)
            assert f == _tabulated(small, n)
            assert truth_table_of(f, STD_BASE, n) is f
            assert f == _tabulated(f, n)


def test_dimension_errors():
    ast = parse_formula("x3", STD_BASE)
    with pytest.raises(MissingVariable):
        truth_table_of(ast, STD_BASE, 2)
    with pytest.raises(MissingVariable):
        truth_table_of(tt_of("0110"), STD_BASE, 1)
    with pytest.raises(UsageError):
        truth_table_of(ast, STD_BASE, -1)


def test_qbf_dimension_must_equal_free_count():
    q = parse_qbf("E x2 : and(x1,x2)", STD_BASE)
    with pytest.raises(UsageError):
        truth_table_of(q, STD_BASE, 2)
    assert truth_table_of(q, STD_BASE, 1).n == 1


def test_enumeration_budget():
    ast = parse_formula("x1", STD_BASE)
    with pytest.raises(BudgetExceeded, match="^28 table variables over the limit of 24$"):
        truth_table_of(ast, STD_BASE, 28)


def test_table_variables_limit_is_inclusive(monkeypatch):
    # a plain table is over its n variables, a quantified one over its
    # free and bound ones
    monkeypatch.setitem(LIMITS, "table variables", 3)
    ast = parse_formula("or(x1,x3)", STD_BASE)
    assert truth_table_of(ast, STD_BASE, 3) == TruthTable(3, 0b11111010)
    with pytest.raises(BudgetExceeded, match="^4 table variables over the limit of 3$"):
        truth_table_of(ast, STD_BASE, 4)
    q = parse_qbf("E x3 : and(x1,or(x2,x3))", STD_BASE)
    assert truth_table_of(q, STD_BASE, 2) == TruthTable(2, 0b1100)
    monkeypatch.setitem(LIMITS, "table variables", 2)
    with pytest.raises(BudgetExceeded, match="^3 table variables over the limit of 2$"):
        truth_table_of(q, STD_BASE, 2)


def test_min_dimension():
    assert min_dimension(parse_formula("and(x2,x5)", STD_BASE)) == 5
    assert min_dimension(rand_three_cnf(random.Random(1), 4, 3)) == 4
    assert min_dimension(parse_qbf("E x2 : and(x1,or(x2,x7))", STD_BASE)) == 2
    assert min_dimension(tt_of("0110")) == 2


def test_tables_over_unnormalized_bases():
    # a base whose functions include constants and odd arities
    base = mk_base({"t": "00010111", "c1": "1"})
    ast = parse_formula("t(x1,x2,c1)", base)
    f = truth_table_of(ast, base, 2)
    assert tt_print(f) == "0111"


STD_OPS = (("and", 2), ("or", 2), ("not", 1))


def _random_objects(rng):
    """(base, n, object) triples of every kind, with n <= 6."""
    for _ in range(25):
        n = rng.randint(1, 6)
        yield STD_BASE, n, parse_formula(rand_ast(rng, STD_OPS, n, rng.randint(1, 30)), STD_BASE)
        gl = parse_formula(rand_ast(rng, STD_OPS, n, rng.randint(1, 30)), STD_BASE)
        yield STD_BASE, n, parse_circuit(print_circuit(gl, STD_BASE), STD_BASE)
        yield LIN_BASE, n, parse_formula(rand_ast(rng, LIN_OPS, n, rng.randint(1, 30)), LIN_BASE)
        yield LIN_BASE, n, parse_circuit(rand_linear_circuit(rng, n, rng.randint(0, 9)), LIN_BASE)
        yield STD_BASE, n, rand_three_cnf(rng, n, rng.randint(0, 9))
        k = rng.randint(0, n)
        yield STD_BASE, n, TruthTable(k, rng.getrandbits(1 << k))
        for base, ops in ((MONO_BASE, MONO_OPS), (LIN_BASE, LIN_OPS)):
            text = rand_qbf(rng, ops, n, rng.randint(0, 3), rng.randint(1, 18))
            yield base, len(qbf_free_vars(text)), parse_qbf(text, base)


def test_one_engine_agrees_with_itself_across_kinds():
    rng = random.Random(2028)
    for base, n, obj in _random_objects(rng):
        table = truth_table_of(obj, base, n)
        for w in range(1 << n):
            a = BitVector(n, w) if n else None
            assert evaluate(obj, base, a) == table.value(w)
            if isinstance(obj, CnfFormula):
                assert eval_cnf_slow(obj, env_of(w, n)) == table.value(w)
        if base is LIN_BASE and getattr(obj, "prefix", None) is None:
            assert linear_form_of(obj, base).truth_table(n) == table


def test_lowering_shares_equal_gates():
    gl = parse_formula("and(or(x1,x2),or(x1,x2))", STD_BASE)
    assert gl.inputs == (1, 2) and gl.dim == 2
    assert gl.gates == ((STD_BASE["or"], (0, 1)), (STD_BASE["and"], (2, 2)))
    assert gl.output == 3
    assert lower(gl) is gl


def test_lowering_a_circuit_whose_output_is_an_input():
    gl = parse_circuit("input x1\ninput x3\ngate g and x1 x3\noutput x3\n", STD_BASE)
    assert gl.inputs == (1, 3) and gl.output == 1 and gl.dim == 3
    assert tt_print(truth_table_of(gl, STD_BASE, 3)) == "01010101"
    assert evaluate(gl, STD_BASE, BitVector.parse("001")) == 1


WIDE_BASE = mk_base(["and", "or", "not", "xor", "imp", "nand", "maj", "c0", "c1"])
WIDE_OPS = (("and", 2), ("or", 2), ("not", 1), ("xor", 2), ("imp", 2), ("nand", 2),
            ("maj", 3), ("c0", 0), ("c1", 0))


def _batch_cases(rng):
    """(object, base, point dimension or None, value oracle on a word)."""
    wide = base_texts(WIDE_BASE)
    for _ in range(25):
        n = rng.randint(1, 7)
        text = rand_ast(rng, WIDE_OPS, n, rng.randint(1, 40))
        oracle = lambda w, text=text, n=n: eval_ast_slow(text, wide, env_of(w, n))  # noqa: E731
        yield parse_formula(text, WIDE_BASE), WIDE_BASE, n, oracle
        circuit = print_circuit(parse_formula(text, WIDE_BASE), WIDE_BASE)
        yield parse_circuit(circuit, WIDE_BASE), WIDE_BASE, n, oracle
    lin = base_texts(LIN_BASE)
    for _ in range(10):
        n = rng.randint(1, 7)
        text = rand_linear_circuit(rng, n, rng.randint(1, 12))
        oracle = lambda w, text=text, n=n: eval_circuit_slow(text, lin, env_of(w, n))  # noqa: E731
        yield parse_circuit(text, LIN_BASE), LIN_BASE, n, oracle
    for base, ops in ((MONO_BASE, MONO_OPS), (LIN_BASE, LIN_OPS)):
        texts = base_texts(base)
        for _ in range(15):
            text = rand_qbf(rng, ops, rng.randint(2, 7), rng.randint(0, 5), rng.randint(1, 25))
            free = qbf_free_vars(text)
            f = len(free)
            oracle = lambda w, text=text, free=free, f=f: eval_qbf_slow(  # noqa: E731
                text, texts, {j: (w >> (f - 1 - p)) & 1 for p, j in enumerate(free)}
            )
            yield parse_qbf(text, base), base, f or None, oracle


@pytest.mark.parametrize("lane_rows", [None, 8])
def test_batch_evaluation_matches_pointwise_evaluation(monkeypatch, lane_rows):
    """A list of points gives the mask of the values at each point (bit i
    for point i), equal to evaluating them one by one and to the row
    oracles, on random formulas, circuits and QBFs.  A small lane budget
    makes the QBF batches split into chunks."""
    if lane_rows is not None:
        monkeypatch.setattr(bconn.qbf, "_LANE_ROWS", lane_rows)
    rng = random.Random(2031)
    for obj, base, n, oracle in _batch_cases(rng):
        words = [rng.getrandbits(n or 1) if n else 0 for _ in range(rng.randint(0, 70))]
        points = [BitVector(n, w) if n else None for w in words]
        mask = evaluate(obj, base, points)
        assert mask == sum(evaluate(obj, base, p) << i for i, p in enumerate(points))
        assert mask == sum(oracle(w) << i for i, w in enumerate(words))


def test_batch_evaluation_checks_every_point():
    gl = parse_formula("and(x1,x3)", STD_BASE)
    assert evaluate(gl, STD_BASE, []) == 0
    assert evaluate(gl, STD_BASE, [BitVector.parse("101"), BitVector.parse("111")]) == 0b11
    with pytest.raises(MissingVariable):
        evaluate(gl, STD_BASE, [BitVector.parse("101"), BitVector.parse("11")])
    q = parse_qbf("E x2 : and(x1,x2)", STD_BASE)
    with pytest.raises(UsageError):
        evaluate(q, STD_BASE, [BitVector.parse("1"), None])
