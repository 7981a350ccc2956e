"""DIMACS parsing and CNF semantics."""

import random

import pytest

from bconn import (
    BitVector,
    CnfFormula,
    EmptyClause,
    HeaderMismatch,
    LiteralOutOfRange,
    cnf_to_formula,
    evaluate,
    parse_dimacs,
    print_dimacs,
    print_formula,
)

from conftest import STD_BASE, env_of, eval_cnf_slow, rand_three_cnf

SAMPLE = """\
c two clauses over three variables
p cnf 3 2
1 -2 0
2 3 0
"""


def test_parse_dimacs_sample():
    cnf = parse_dimacs(SAMPLE)
    assert cnf.n == 3
    assert cnf.clauses == ((1, -2), (2, 3))
    assert cnf.is_three_cnf
    assert cnf.is_one_reproducing()


def test_parse_print_round_trip():
    rng = random.Random(321)
    for _ in range(25):
        cnf = rand_three_cnf(rng, rng.randint(1, 8), rng.randint(1, 10))
        assert parse_dimacs(print_dimacs(cnf)) == cnf


def test_clause_spanning_lines_and_inline_zero():
    cnf = parse_dimacs("p cnf 2 2\n1\n-2 0 2 0\n")
    assert cnf.clauses == ((1, -2), (2,))


def test_parse_errors():
    with pytest.raises(HeaderMismatch):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(HeaderMismatch):
        parse_dimacs("1 0\n")
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 2 1\n3 0\n")
    with pytest.raises(EmptyClause):
        parse_dimacs("p cnf 2 1\n0\n")


@pytest.mark.parametrize("text", ["", "\n\n", "c only a comment\n", "c a\n\nc b\n", "%\n0\n"])
def test_a_file_without_problem_line_is_a_header_error(text):
    with pytest.raises(HeaderMismatch, match="no problem line"):
        parse_dimacs(text)


def test_evaluate_by_clause_scan():
    cnf = parse_dimacs(SAMPLE)
    assert evaluate(cnf, STD_BASE, BitVector.parse("101")) == 1
    assert evaluate(cnf, STD_BASE, BitVector.parse("010")) == 0
    assert evaluate(cnf, STD_BASE, BitVector.parse("111")) == 1


def test_satlib_trailer_ends_the_clause_list():
    cnf = parse_dimacs("c uf3-01\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert cnf.clauses == ((1, -2, 3), (-1, 2))
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 3 1\n1 -2 3 0\n% 0\n")


def test_one_reproducing_detection():
    assert not CnfFormula(2, ((-1, -2),)).is_one_reproducing()
    assert CnfFormula(2, ((-1, 2),)).is_one_reproducing()
    assert CnfFormula(2, ()).is_one_reproducing()


def test_cnf_to_formula_is_equivalent():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 6)
        cnf = rand_three_cnf(rng, n, rng.randint(0, 8))
        gl = cnf_to_formula(cnf)
        assert gl.dim == n
        for w in range(1 << n):
            a = BitVector(n, w)
            assert evaluate(gl, STD_BASE, a) == eval_cnf_slow(cnf, env_of(w, n))


def test_cnf_renders_as_a_balanced_fold():
    cnf = parse_dimacs("p cnf 4 3\n1 -2 3 0\n-1 0\n2 -4 0\n")
    gl = cnf_to_formula(cnf)
    assert print_formula(gl, STD_BASE) == (
        "and(or(x1,or(not(x2),x3)),and(not(x1),or(x2,not(x4))))"
    )
    # each gate's last argument is built first; tabulation runs in this
    # order, so it fixes which row masks are alive at once
    names = {f: name for name, f in STD_BASE}
    assert gl.inputs == (1, 2, 3, 4)
    assert [(names[f], args) for f, args in gl.gates] == [
        ("not", (3,)), ("or", (1, 4)), ("not", (0,)), ("and", (6, 5)),
        ("not", (1,)), ("or", (8, 2)), ("or", (0, 9)), ("and", (10, 7)),
    ]


def test_empty_cnf_is_the_constant_one():
    cnf = CnfFormula(2, ())
    assert evaluate(cnf, STD_BASE, BitVector.parse("00")) == 1
    gl = cnf_to_formula(cnf)
    assert evaluate(gl, STD_BASE, BitVector.parse("00")) == 1
    assert print_formula(gl, STD_BASE) == "or(x1,not(x1))" and gl.dim == 2
