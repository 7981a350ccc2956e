"""DIMACS parsing and CNF semantics."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

from bconn import (
    BconnError,
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
from bconn.cli import run_cli

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


# ---------------------------------------------------------------------------
# Fuzzing the DIMACS reader against a reference reading of the format.


class Refused(Exception):
    """What the reference reading reports: (error type name, message)."""


def reference_dimacs(text: str):
    """(n, clauses) as the format reads, or Refused with the parser's error.

    The file is a stream of literal tokens after one `p cnf N M` line;
    `c` lines and blank lines are skipped, a line that is exactly `%` ends
    it, each 0 closes a clause, and a clause left open at the end counts."""
    header, clauses, open_clause = None, [], []
    for lineno, line in enumerate((raw.strip() for raw in text.splitlines()), start=1):
        if line == "%":
            break
        if line[:1] in ("", "c"):
            continue
        if line[0] == "p":
            fields = line.split()
            if header is not None or len(fields) != 4 or fields[1] != "cnf":
                raise Refused("HeaderMismatch", f"line {lineno}: bad problem line {line!r}")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise Refused("HeaderMismatch", f"line {lineno}: bad counts in {line!r}") from None
            if header[0] < 1:
                raise Refused("HeaderMismatch", f"line {lineno}: need at least one variable")
            continue
        if header is None:
            raise Refused("HeaderMismatch", f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise Refused("LiteralOutOfRange", f"line {lineno}: bad literal {tok!r}") from None
            if not lit and not open_clause:
                raise Refused("EmptyClause", f"line {lineno}: empty clause")
            if abs(lit) > header[0]:
                raise Refused("LiteralOutOfRange", f"line {lineno}: literal {lit} exceeds {header[0]} vars")
            if lit:
                open_clause.append(lit)
            else:
                clauses.append(tuple(open_clause))
                open_clause = []
    if header is None:
        raise Refused("HeaderMismatch", "no problem line")
    clauses += [tuple(open_clause)] if open_clause else []
    if header[1] != len(clauses):
        raise Refused("HeaderMismatch", f"header declares {header[1]} clauses, found {len(clauses)}")
    return header[0], tuple(clauses)


_DIMACS_JUNK = [" ", "\n", "0", "-", "1", "7", "x", "c", "p", "%", "p cnf 2 1\n", "\n%\n", "\t", "+"]


@st.composite
def dimacs_texts(draw):
    """A well-formed file over at most 5 variables, comments and the SATLIB
    trailer included at random, then up to three random edits."""
    n = draw(st.integers(1, 5))
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lits, min_size=1, max_size=3), max_size=4))
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "c a comment")
    if draw(st.booleans()):
        lines += ["%", "0"]
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.integers(0, 2))
        if edit == 0:
            text = text[:i] + draw(st.sampled_from(_DIMACS_JUNK)) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            j = draw(st.integers(0, i))
            text = text[:i] + text[j:i] + text[i:]  # repeat a slice
    return text


@settings(max_examples=300, deadline=None)
@given(dimacs_texts())
def test_dimacs_parse_matches_the_reference_reading(text):
    try:
        n, clauses = reference_dimacs(text)
    except Refused as e:
        with pytest.raises(BconnError) as info:
            parse_dimacs(text)
        assert (type(info.value).__name__, str(info.value)) == e.args
        return
    assert parse_dimacs(text) == CnfFormula(n, clauses)


@settings(max_examples=100, deadline=None)
@given(dimacs_texts())
def test_conn_answers_or_reports_on_any_dimacs_file(tmp_path_factory, text):
    # an edit can repeat a digit of the header, as in p cnf 3 -> p cnf 33;
    # enumerating that many variables is within budget but slow, and this
    # test is about exit codes, not size
    try:
        assume(reference_dimacs(text)[0] <= 12)
    except Refused:
        pass
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["conn", "--cnf", str(path), "--json"])
    if code == 0:
        assert "connected" in json.loads(out.getvalue())
    else:
        assert code in (2, 3) and "error" in json.loads(err.getvalue())
