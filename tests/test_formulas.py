"""Formula text: parsing straight into gate lists, printing them back."""

import io
import json
import random
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import bconn.cli
import bconn.formulas
from bconn import (
    EXISTS,
    FORALL,
    ArityMismatch,
    BconnError,
    BitVector,
    FormulaSyntaxError,
    TVariant,
    TooLarge,
    UnknownFunction,
    evaluate,
    formula_size,
    parse_circuit,
    parse_formula,
    parse_qbf,
    print_circuit,
    print_formula,
    print_qbf,
    tr_combine,
    truth_table_of,
)
from bconn.circuits import GateBuilder
from bconn.cli import run_cli
from bconn.errors import LIMITS
from bconn.qbf import with_prefix
from bconn.truthtable import mask_rows

from conftest import (
    spelled,
    LIN_OPS,
    MONO_OPS,
    STD_BASE,
    ast_solutions_slow,
    base_texts,
    env_of,
    eval_ast_slow,
    mk_base,
    rand_ast,
    rand_three_cnf,
    three_cnf,
    read_formula,
    text_vars,
    tt_of,
)


def test_parse_print_round_trip():
    for text in (
        "x1",
        "and(x1,x2)",
        "or(and(x1,not(x2)),x3)",
        "not(not(x10))",
        "and(or(x1,x2),or(x1,x2))",
    ):
        gl = parse_formula(text, STD_BASE)
        assert spelled(print_formula, gl, STD_BASE) == text


def test_parse_tolerates_whitespace():
    gl = parse_formula(" and ( x1 , or(x2, x3) ) ", STD_BASE)
    assert spelled(print_formula, gl, STD_BASE) == "and(x1,or(x2,x3))"


def test_parse_zero_ary_application():
    base = mk_base(["and", "c1"])
    gl = parse_formula("and(x1,c1)", base)
    assert spelled(print_formula, gl, base) == "and(x1,c1)"
    assert evaluate(gl, base, BitVector.parse("1")) == 1
    # the parenthesized spelling parses to the same gates
    assert parse_formula("and(x1,c1())", base) == gl


def test_print_names_each_table_by_its_least_name():
    # zz and or share a table, as do h and a; file order is not name order
    base = mk_base({"zz": "0111", "h": "0001", "or": "0111", "a": "0001", "not": "10"})
    gl = parse_formula("h(zz(x1,not(x2)),or(a(x1,x2),x3))", base)
    assert spelled(print_formula, gl, base) == "a(or(x1,not(x2)),or(a(x1,x2),x3))"
    # h(x1,x2) and a(x1,x2) are one gate
    assert len(parse_formula("zz(h(x1,x2),a(x1,x2))", base).gates) == 2


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
    gl = parse_formula("or(and(x2,x2),not(x7))", STD_BASE)
    assert gl.inputs == (2, 7) and gl.dim == 7
    assert formula_size(gl) == 6


def test_evaluate_formula_matches_row_oracle():
    rng = random.Random(1001)
    texts = base_texts(STD_BASE)
    ops = (("and", 2), ("or", 2), ("not", 1))
    for _ in range(60):
        n = rng.randint(1, 6)
        text = rand_ast(rng, ops, n, rng.randint(1, 25))
        gl = parse_formula(text, STD_BASE)
        for w in range(1 << n):
            got = evaluate(gl, STD_BASE, BitVector(n, w))
            assert got == eval_ast_slow(text, texts, env_of(w, n))


def test_formula_to_circuit_preserves_semantics():
    rng = random.Random(77)
    texts = base_texts(STD_BASE)
    for _ in range(30):
        n = rng.randint(1, 5)
        text = rand_ast(rng, MONO_OPS, n, 15)
        gl = parse_formula(text, STD_BASE)
        circ = parse_circuit(print_circuit(gl, STD_BASE), STD_BASE)
        for w in range(1 << n):
            a = BitVector(n, w)
            assert evaluate(circ, STD_BASE, a) == eval_ast_slow(text, texts, env_of(w, n))


def test_formula_to_circuit_of_a_variable():
    text = print_circuit(parse_formula("x2", STD_BASE), STD_BASE)
    assert text == "input x2\noutput x2\n"
    circ = parse_circuit(text, STD_BASE)
    assert evaluate(circ, STD_BASE, BitVector.parse("01")) == 1
    assert evaluate(circ, STD_BASE, BitVector.parse("10")) == 0


def test_deep_chain_folds_without_recursion():
    text = "not(" * 5000 + "x1" + ")" * 5000
    gl = parse_formula(text, STD_BASE)
    assert formula_size(gl) == 5001 and len(gl.gates) == 5000
    assert gl.inputs == (1,)
    assert spelled(print_formula, gl, STD_BASE) == text
    assert truth_table_of(gl, STD_BASE, 1) == tt_of("01")


def test_shared_subterms_are_walked_once():
    b = GateBuilder(STD_BASE, (1,))
    f = b.node[1]
    for _ in range(40):
        f = b.app("and", (f, f))
    gl = b.finish(f)
    assert formula_size(gl) == 2**41 - 1
    assert len(gl.gates) == 40
    # pasting over another variable keeps the sharing
    b3 = GateBuilder(STD_BASE, (3,))
    out = b3.finish(b3.paste(gl, [b3.node[3]]))
    assert out.inputs == (3,) and len(out.gates) == 40
    assert formula_size(out) == 2**41 - 1


def reference_print_formula(gl, base) -> str:
    """The explicit-stack printer print_formula replaced, kept as a
    reference: a join per frame, every occurrence walked from the output."""
    names = {}
    for name, f in sorted(base):
        names.setdefault(f, name)
    label = [f"x{j}" for j in gl.inputs] + [names[f] for f, _ in gl.gates]
    kids = [()] * len(gl.inputs) + [args for _, args in gl.gates]
    frames = []  # open gates, argument texts
    v = gl.output
    while True:
        while kids[v]:
            frames.append((v, []))
            v = kids[v][0]
        text = label[v]
        while frames:
            g, texts = frames[-1]
            texts.append(text)
            if len(texts) < len(kids[g]):
                v = kids[g][len(texts)]
                break
            frames.pop()
            text = ",".join(texts)
            texts.clear()
            text = f"{label[g]}({text})"
        else:
            return text


# dup shares and's table, so the printer must pick the least name
PRINT_TABLES = {"and": "0001", "dup": "0001", "not": "10", "c1": "1", "maj": "00010111"}
PRINT_BASE = mk_base(PRINT_TABLES)
_PRINT_ARITY = {fn: len(t).bit_length() - 1 for fn, t in PRINT_TABLES.items()}


@st.composite
def gate_lists(draw):
    """A hash-consed gate list whose arguments are any earlier nodes, so
    nodes are shared and repeated, and whose output is any node: an input,
    or a gate with later gates it does not reach."""
    inputs = tuple(sorted(draw(st.sets(st.integers(1, 6), max_size=4))))
    b = GateBuilder(PRINT_BASE, inputs)
    for _ in range(draw(st.integers(0 if inputs else 1, 14))):
        nodes = len(inputs) + len(b.cons)
        name = draw(st.sampled_from(sorted(_PRINT_ARITY) if nodes else ["c1"]))
        b.app(name, tuple(draw(st.integers(0, nodes - 1)) for _ in range(_PRINT_ARITY[name])))
    return b.finish(draw(st.integers(0, len(inputs) + len(b.cons) - 1)))


# the join limits the printer runs under: every gate walked, every gate
# of more than one or eight characters walked, and the default
JOIN_LIMITS = (0, 1, 8, bconn.formulas._JOINED)


@settings(max_examples=300, deadline=None)
@given(gate_lists(), st.data())
def test_print_matches_the_explicit_stack_reference(gl, data):
    want = reference_print_formula(gl, PRINT_BASE)
    assert 1 + want.count("(") + want.count(",") == formula_size(gl)
    bound = sorted(data.draw(st.sets(st.sampled_from(gl.inputs))) if gl.inputs else ())
    prefix = tuple((data.draw(st.sampled_from([EXISTS, FORALL])), j) for j in bound)
    q = with_prefix(gl, prefix)
    head = " ".join(f"{quant} x{j}" for quant, j in prefix)
    for limit in JOIN_LIMITS:
        with patch.object(bconn.formulas, "_JOINED", limit):
            pieces = []
            print_formula(gl, PRINT_BASE, pieces.append)
            assert "".join(pieces) == want
            pieces.clear()
            print_qbf(q, PRINT_BASE, pieces.append)
            assert "".join(pieces) == (f"{head} : {want}" if prefix else want)


@pytest.mark.parametrize("limit", JOIN_LIMITS)
def test_a_refused_formula_writes_nothing(monkeypatch, limit):
    gl = parse_formula("and(x1,or(x2,x3))", STD_BASE)
    monkeypatch.setitem(LIMITS, "formula nodes", 4)
    monkeypatch.setattr(bconn.formulas, "_JOINED", limit)
    pieces = []
    with pytest.raises(TooLarge, match="5 formula nodes over the limit of 4"):
        print_formula(gl, STD_BASE, pieces.append)
    with pytest.raises(TooLarge, match="5 formula nodes over the limit of 4"):
        print_qbf(with_prefix(gl, (("A", 2),)), STD_BASE, pieces.append)
    assert pieces == []


def test_a_dead_doubling_chain_is_never_spelled():
    # the chain's last gate would spell 2^61 - 1 nodes
    lines = ["input x1", "gate d0 and x1 x1"]
    lines += [f"gate d{i} and d{i - 1} d{i - 1}" for i in range(1, 60)]
    gl = parse_circuit("\n".join(lines + ["gate out not x1", "output out"]), STD_BASE)
    assert len(gl.gates) == 61 and gl.output == 61
    assert spelled(print_formula, gl, STD_BASE) == "not(x1)"


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant, m", [(TVariant("D1"), 69), (TVariant("S02K", 2), 296)], ids=["D1", "S02K(2)"])
def test_printing_a_reduction_peaks_no_higher_than_the_reference(variant, m):
    gl = tr_combine(rand_three_cnf(random.Random(12), 12, 8), variant, STD_BASE)
    want = reference_print_formula(gl, STD_BASE)
    assert spelled(print_formula, gl, STD_BASE) == want
    del want
    peaks = [_traced_peak(lambda: reference_print_formula(gl, STD_BASE)),
             _traced_peak(lambda: print_formula(gl, STD_BASE, len))]
    assert peaks[1] <= peaks[0]
    # at m clauses, the fewest whose output passes 20M nodes, the output is
    # tens of millions of characters, which the reference holds whole;
    # written into a sink, the peak stays small
    gl = tr_combine(three_cnf(random.Random(5), 12, m), variant, STD_BASE)
    assert formula_size(gl) > 20_000_000
    assert _traced_peak(lambda: print_formula(gl, STD_BASE, len)) < 4 << 20


def _spaced(rng: random.Random, text: str) -> str:
    """The text with random whitespace around its parens and commas."""
    out = []
    for c in text:
        if c in "(),":
            out.append(rng.choice(("", " ", "\t", "\n ")) + c + rng.choice(("", " ", "  ")))
        else:
            out.append(c)
    return "".join(out)


def _tree_gates(tree, tables: dict[str, str], keys: dict) -> tuple:
    """The test reader's tree hash-consed by hand: one key per distinct
    (table text, argument keys), so names with one table share a key."""
    if isinstance(tree, int):
        return ("x", tree)
    key = (tables[tree[0]], tuple(_tree_gates(a, tables, keys) for a in tree[1]))
    keys.setdefault(key, len(keys))
    return key


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
        tables = base_texts(base)
        for _ in range(40):
            n = rng.randint(1, 6)
            plain = rand_ast(rng, ops, n, rng.randint(1, 40))
            text = _spaced(rng, plain)
            keys: dict = {}
            _tree_gates(read_formula(plain), tables, keys)
            inputs = tuple(sorted(text_vars(plain)))
            got = parse_formula(text, base)
            assert (got.inputs, got.dim, len(got.gates)) == (inputs, max(inputs, default=0), len(keys))
            m = max(got.dim, 1)
            assert set(mask_rows(truth_table_of(got, base, m).bits)) == ast_solutions_slow(plain, tables, m)
            q = parse_qbf(f"E x{n} A x{n + 1} : {text}", base)
            assert (q.inputs, q.prefix, len(q.gates)) == (inputs, (("E", n), ("A", n + 1)), len(keys))
            assert q.dim == len(set(inputs) - {n, n + 1})


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
@pytest.mark.parametrize("via_cli", [False, True])
def test_malformed_input_errors_are_pinned(text, kind, message, position, via_cli):
    # via_cli: through the stand-ins the CLI calls, which load the parser
    # module on first use and must pass its errors through unchanged
    base = mk_base(["and", "or", "not", "c1"])
    parsers = bconn.cli if via_cli else bconn
    parse = parsers.parse_qbf if ":" in text else parsers.parse_formula
    with pytest.raises(BconnError) as info:
        parse(text, base)
    e = info.value
    assert (type(e).__name__, str(e), getattr(e, "position", None)) == (kind, message, position)


# ---------------------------------------------------------------------------
# Fuzz: random formula and quantified-formula text, some well formed and
# some broken by a few edits, against a recursive-descent reading of the
# grammar written here.  It reports what the parsers report: the same
# error type and message, or the same table.

FUZZ_TABLES = {"and": "0001", "or": "0111", "not": "10", "c1": "1"}
FUZZ_BASE = mk_base(FUZZ_TABLES)
_ARITY = {fn: len(t).bit_length() - 1 for fn, t in FUZZ_TABLES.items()}
_VAR = re.compile(r"x[1-9][0-9]*")
_JUNK = ["(", ")", ",", " ", "nor", "x0", "x01", "x1", "c1", "and", "é", "　", "-", "(x2)"]
_HEADS = ["", "E x2", "A x3", "E x1 A x4", "E x2 E x2", "Q x1", "E y2", "E x0", "E", "A x5 E"]


class Refused(Exception):
    """What the reference reading reports: (error type name, message)."""


def reference_formula(text: str):
    """The tree read_formula gives, or Refused with the parser's error."""
    toks = [(m.group(), m.start()) for m in re.finditer(r"\w+|\S", text)] + [("", len(text))]
    pos = 0

    def syntax(message: str, at: int):
        raise Refused("FormulaSyntaxError", f"{message} (at position {at})")

    def expr():
        nonlocal pos
        tok, at = toks[pos]
        if _VAR.fullmatch(tok):
            pos += 1
            return int(tok[1:])
        if not (tok[:1].isalnum() or tok[:1] == "_"):
            syntax("expected identifier", at)
        if tok not in _ARITY:
            # an expression starts right after a comma, before any
            # whitespace; elsewhere at its own first token
            start = toks[pos - 1][1] + 1 if pos and toks[pos - 1][0] == "," else at
            raise Refused("UnknownFunction", f"unknown function {tok!r} at position {start if pos else 0}")
        pos += 1
        want, args = _ARITY[tok], []
        if toks[pos][0] == "(":
            pos += 1
            if toks[pos][0] == ")" and not want:
                pos += 1
            else:
                while True:
                    args.append(expr())
                    sep, at = toks[pos]
                    pos += 1
                    if sep == ")":
                        break
                    if sep != ",":
                        syntax("expected ',' or ')'", at)
        if len(args) != want:
            raise Refused("ArityMismatch", f"{tok} takes {want} args, got {len(args)}")
        return (tok, tuple(args))

    tree = expr()
    if toks[pos][0]:
        syntax("trailing input", toks[pos][1])
    return tree


def reference_qbf(text: str):
    """(prefix, matrix tree), or Refused with the parser's error."""
    head, sep, body = text.partition(":")
    if not sep:
        head, body = "", text
    toks = head.split()
    if len(toks) % 2:
        raise Refused("FormulaSyntaxError", "prefix must be quantifier/variable pairs")
    prefix = []
    for q, v in zip(toks[::2], toks[1::2]):
        if q not in ("E", "A"):
            raise Refused("FormulaSyntaxError", f"bad quantifier {q!r}")
        if not _VAR.fullmatch(v):
            raise Refused("FormulaSyntaxError", f"bad quantified variable {v!r}")
        prefix.append((q, int(v[1:])))
    tree = reference_formula(body)
    bound = [j for _, j in prefix]
    for i, j in enumerate(bound):
        if j in bound[:i]:
            raise Refused("UsageError", f"x{j} quantified twice")
    return prefix, tree


def _value(tree, env: dict[int, int]) -> int:
    if isinstance(tree, int):
        return env[tree]
    row = 0
    for a in tree[1]:
        row = row * 2 + _value(a, env)
    return int(FUZZ_TABLES[tree[0]][row])


def _tree_vars(tree) -> set[int]:
    if isinstance(tree, int):
        return {tree}
    return set().union(*map(_tree_vars, tree[1]))


def _quantified(prefix, tree, env: dict[int, int]) -> int:
    if not prefix:
        return _value(tree, env)
    (q, j), rest = prefix[0], prefix[1:]
    vals = [_quantified(rest, tree, {**env, j: v}) for v in (0, 1)]
    return max(vals) if q == "E" else min(vals)


@st.composite
def formula_texts(draw, depth: int = 3):
    """A well-formed formula over x1..x4, spaced at random."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["x1", "x2", "x3", "x4", "c1", "c1()"]))
    fn = draw(st.sampled_from(["and", "or", "not"]))
    args = [draw(formula_texts(depth - 1)) for _ in range(_ARITY[fn])]
    gap = draw(st.sampled_from(["", " ", "\t"]))
    return f"{fn}{gap}({gap}{(',' + gap).join(args)})"


@st.composite
def broken(draw, texts):
    """A text from the strategy, then up to three random edits."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.integers(0, 2))
        if edit == 0:
            text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            j = draw(st.integers(0, i))
            text = text[:i] + text[j:i] + text[i:]  # repeat a slice
    return text


@st.composite
def qbf_texts(draw):
    head = draw(st.sampled_from(_HEADS))
    return f"{head} : {draw(formula_texts())}" if head or draw(st.booleans()) else draw(formula_texts())


@settings(max_examples=300, deadline=None)
@given(broken(formula_texts()))
def test_formula_parse_matches_the_reference_reading(text):
    try:
        tree = reference_formula(text)
    except Refused as e:
        with pytest.raises(BconnError) as info:
            parse_formula(text, FUZZ_BASE)
        assert (type(info.value).__name__, str(info.value)) == e.args
        return
    gl = parse_formula(text, FUZZ_BASE)
    assert gl.inputs == tuple(sorted(_tree_vars(tree)))
    assert parse_formula(spelled(print_formula, gl, FUZZ_BASE), FUZZ_BASE) == gl
    n = max(gl.inputs, default=1)
    if n <= 8:  # an edit can repeat a digit, as in x2 -> x22
        rows = {w for w in range(1 << n) if _value(tree, env_of(w, n))}
        assert set(mask_rows(truth_table_of(gl, FUZZ_BASE, n).bits)) == rows


@settings(max_examples=300, deadline=None)
@given(broken(qbf_texts()))
def test_qbf_parse_matches_the_reference_reading(text):
    try:
        prefix, tree = reference_qbf(text)
    except Refused as e:
        with pytest.raises(BconnError) as info:
            parse_qbf(text, FUZZ_BASE)
        assert (type(info.value).__name__, str(info.value)) == e.args
        return
    q = parse_qbf(text, FUZZ_BASE)
    assert parse_qbf(spelled(print_qbf, q, FUZZ_BASE), FUZZ_BASE) == q
    free = sorted(_tree_vars(tree) - {j for _, j in prefix})
    assert q.free_vars() == free
    f = len(free)
    rows = set()
    for w in range(1 << f):
        env = {j: (w >> (f - 1 - p)) & 1 for p, j in enumerate(free)}
        if _quantified(prefix, tree, env):
            rows.add(w)
    assert set(mask_rows(truth_table_of(q, FUZZ_BASE, f).bits)) == rows


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.one_of(broken(formula_texts()), broken(qbf_texts())))
def test_conn_answers_or_reports_on_any_formula(tmp_path_factory, as_qbf, text):
    # an edit that repeats a digit can name x22, and enumerating 2^22 rows
    # is within budget but slow; this test is about exit codes, not size
    assume(max(text_vars(text), default=0) <= 12)
    d = tmp_path_factory.mktemp("formula")
    (d / "b.tt").write_text("and 2 0001\nor 2 0111\nnot 1 10\nc1 0 1\n", encoding="utf-8")
    (d / "f.txt").write_text(text, encoding="utf-8")
    kind = "--qbf" if as_qbf else "--formula"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["conn", "--base", str(d / "b.tt"), kind, str(d / "f.txt"), "--json"])
    if code == 0:
        assert "connected" in json.loads(out.getvalue())
    else:
        assert code in (2, 3) and "error" in json.loads(err.getvalue())
