"""Circuit netlist format: parsing straight into gate lists, printing back."""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from bconn import (
    BconnError,
    BitVector,
    evaluate,
    parse_circuit,
    print_circuit,
)
from bconn.cli import run_cli

from conftest import (
    LIN_BASE,
    STD_BASE,
    base_texts,
    env_of,
    eval_circuit_slow,
    mk_base,
    rand_linear_circuit,
)

SAMPLE = """\
# half adder, sum output
input x1
input x2
gate s xor x1 x2
output s
"""

# (circuit text, error type, message) over the and/or/not base
MALFORMED = [
    ('', 'MissingOutput', 'no output line'),
    ('# only a comment\n\n', 'MissingOutput', 'no output line'),
    ('input x1\n', 'MissingOutput', 'no output line'),
    ('input x1\ngate a not x1\n', 'MissingOutput', 'no output line'),
    ('input\noutput x1', 'UsageError', 'line 1: expected `input xN`'),
    ('input x1 x2\noutput x1', 'UsageError', 'line 1: expected `input xN`'),
    ('input y1\noutput y1', 'UsageError', "line 1: bad input name 'y1'"),
    ('input x0\noutput x0', 'UsageError', "line 1: bad input name 'x0'"),
    ('input x01\noutput x01', 'UsageError', "line 1: bad input name 'x01'"),
    ('input x²\noutput x²', 'UsageError', "line 1: bad input name 'x²'"),
    ('input x١\noutput x١', 'UsageError', "line 1: bad input name 'x١'"),
    ('input X1\noutput X1', 'UsageError', "line 1: bad input name 'X1'"),
    ('input x1\ninput x1\noutput x1', 'DuplicateName', "line 2: duplicate input 'x1'"),
    ('input x1\ngate a not x1\ninput x2\noutput a', 'UsageError', 'line 3: inputs must come first'),
    ('input x1\noutput x1\ninput x2', 'UsageError', 'line 3: inputs must come first'),
    ('input x1\ngate a not x1\ninput x1\noutput a', 'DuplicateName', "line 3: duplicate input 'x1'"),
    ('input x1\ngate a not x1\ninput y2\noutput a', 'UsageError', "line 3: bad input name 'y2'"),
    ('input x1\ngate a\noutput a', 'UsageError', 'line 2: expected `gate NAME fn arg...`'),
    ('input x1\ngate a nor x1 x1\noutput a', 'UnknownFunction', "line 2: unknown function 'nor'"),
    ('input x1\ngate a and x1\noutput a', 'ArityMismatch', 'line 2: and takes 2 args, got 1'),
    ('input x1\ngate a not x1 x1\noutput a', 'ArityMismatch', 'line 2: not takes 1 args, got 2'),
    ('input x1\ngate a and x1 b\ngate b and x1 x1\noutput a', 'ForwardReference', "line 2: 'b' not yet defined"),
    ('input x1\ngate a not a\noutput a', 'ForwardReference', "line 2: 'a' not yet defined"),
    ('input x1\ngate a not x1\ngate a not x1\noutput a', 'DuplicateName', "line 3: duplicate gate 'a'"),
    ('input x1\ngate x1 not x1\noutput x1', 'DuplicateName', "line 2: duplicate gate 'x1'"),
    ('input x1\ngate x1 nor x1', 'DuplicateName', "line 2: duplicate gate 'x1'"),
    ('input x1\ngate a nor x1 b', 'UnknownFunction', "line 2: unknown function 'nor'"),
    ('input x1\ngate a not x1 b', 'ArityMismatch', 'line 2: not takes 1 args, got 2'),
    ('input x1\noutput b', 'ForwardReference', "line 2: output 'b' undefined"),
    ('input x1\noutput', 'UsageError', 'line 2: expected `output NAME`'),
    ('input x1\noutput x1 x1', 'UsageError', 'line 2: expected `output NAME`'),
    ('input x1\noutput x1\noutput x1', 'UsageError', 'line 3: second output'),
    ('input x1\noutput x1\noutput zz', 'ForwardReference', "line 3: output 'zz' undefined"),
    ('input x1\nwire a x1\noutput x1', 'UsageError', "line 2: unknown statement 'wire'"),
    ('input x1\nInput x2\noutput x1', 'UsageError', "line 2: unknown statement 'Input'"),
    ('input x1 # c\ngate a not x1 # c\noutput a\ngate b not a\nfoo', 'UsageError', "line 5: unknown statement 'foo'"),
    ('\n\ninput x1\n\ngate a nor x1 x1', 'UnknownFunction', "line 5: unknown function 'nor'"),
    ('input x1\noutput x1\ngate a not x1\noutput a', 'UsageError', 'line 4: second output'),
]


def test_parse_and_evaluate_sample():
    gl = parse_circuit(SAMPLE, LIN_BASE)
    assert gl.inputs == (1, 2) and gl.dim == 2
    assert gl.gates == ((LIN_BASE["xor"], (0, 1)),)
    assert gl.output == 2
    assert evaluate(gl, LIN_BASE, BitVector.parse("10")) == 1
    assert evaluate(gl, LIN_BASE, BitVector.parse("11")) == 0


def test_gate_reuse_is_shared_not_copied():
    text = """\
input x1
input x2
gate a and x1 x2
gate b or a a
gate c and x1 x2
output b
"""
    gl = parse_circuit(text, STD_BASE)
    assert len(gl.gates) == 2  # c is a again
    assert evaluate(gl, STD_BASE, BitVector.parse("11")) == 1
    assert evaluate(gl, STD_BASE, BitVector.parse("01")) == 0


def test_print_parse_round_trip():
    rng = random.Random(5150)
    for _ in range(20):
        gl = parse_circuit(rand_linear_circuit(rng, rng.randint(1, 5), rng.randint(0, 8)), LIN_BASE)
        text = print_circuit(gl, LIN_BASE)
        assert parse_circuit(text, LIN_BASE) == gl
        assert print_circuit(parse_circuit(text, LIN_BASE), LIN_BASE) == text


def test_print_names_each_table_by_its_first_function():
    base = mk_base({"conj": "0001", "and": "0001", "neg": "10"})
    gl = parse_circuit("input x3\ngate a and x3 x3\ngate b neg a\noutput b\n", base)
    assert print_circuit(gl, base) == "input x3\ngate g1 conj x3 x3\ngate g2 neg g1\noutput g2\n"


def test_evaluate_matches_row_oracle():
    rng = random.Random(99)
    texts = base_texts(LIN_BASE)
    for _ in range(40):
        n = rng.randint(1, 6)
        text = rand_linear_circuit(rng, n, rng.randint(1, 10))
        gl = parse_circuit(text, LIN_BASE)
        for w in range(1 << n):
            got = evaluate(gl, LIN_BASE, BitVector(n, w))
            assert got == eval_circuit_slow(text, texts, env_of(w, n))


def test_parse_errors():
    for text, kind, message in MALFORMED:
        with pytest.raises(BconnError) as e:
            parse_circuit(text, STD_BASE)
        assert (type(e.value).__name__, str(e.value)) == (kind, message), text


def test_cli_reports_each_malformed_circuit(tmp_path):
    base = tmp_path / "std.tt"
    base.write_text("and 2 0001\nor 2 0111\nnot 1 10\n", encoding="utf-8")
    for i, (text, kind, message) in enumerate(MALFORMED):
        path = tmp_path / f"c{i}.circ"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["conn", "--base", str(base), "--circuit", str(path), "--json"])
        assert code == 2 and out.getvalue() == "", text
        assert json.loads(err.getvalue()) == {"error": {"code": kind, "message": message}}


def test_output_may_be_an_input_wire():
    gl = parse_circuit("input x2\noutput x2", STD_BASE)
    assert gl.gates == () and gl.output == 0
    assert evaluate(gl, STD_BASE, BitVector.parse("01")) == 1


# ---------------------------------------------------------------------------
# Fuzz: random circuits, some valid and some broken by a few edits, against
# a plain reading of the format that keeps wires by name.

FUZZ_TABLES = {"and": "0001", "or": "0111", "not": "10", "c1": "1"}
FUZZ_BASE = mk_base(FUZZ_TABLES)
_ARITY = {fn: len(t).bit_length() - 1 for fn, t in FUZZ_TABLES.items()}
_INPUTS = [f"x{j}" for j in range(1, 7)]
_JUNK = [
    "", "# note", "input x0", "input x01", "input x²", "input y1", "input x1", "input x2 x3",
    "gate a and x1", "gate a nor x1 x1", "gate q not zz", "gate x1 not x1", "gate a",
    "output a", "output", "output x1 x1", "wire a x1",
]


def reference_parse(text: str):
    """(error type, message), or (input indices, gates by name, output name)."""
    inputs, wires, gates, out, started = [], set(), [], None, False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = raw.split("#", 1)[0].split()
        if not p:
            continue
        at = f"line {lineno}: "
        if p[0] == "input":
            if len(p) != 2:
                return "UsageError", at + "expected `input xN`"
            if not re.fullmatch("x[1-9][0-9]*", p[1]):
                return "UsageError", at + f"bad input name {p[1]!r}"
            if p[1] in wires:
                return "DuplicateName", at + f"duplicate input {p[1]!r}"
            if started:
                return "UsageError", at + "inputs must come first"
            inputs.append(int(p[1][1:]))
            wires.add(p[1])
            continue
        started = True
        if p[0] == "gate":
            if len(p) < 3:
                return "UsageError", at + "expected `gate NAME fn arg...`"
            name, fn, args = p[1], p[2], p[3:]
            if name in wires:
                return "DuplicateName", at + f"duplicate gate {name!r}"
            if fn not in _ARITY:
                return "UnknownFunction", at + f"unknown function {fn!r}"
            if len(args) != _ARITY[fn]:
                return "ArityMismatch", at + f"{fn} takes {_ARITY[fn]} args, got {len(args)}"
            for a in args:
                if a not in wires:
                    return "ForwardReference", at + f"{a!r} not yet defined"
            gates.append((name, fn, args))
            wires.add(name)
        elif p[0] == "output":
            if len(p) != 2:
                return "UsageError", at + "expected `output NAME`"
            if p[1] not in wires:
                return "ForwardReference", at + f"output {p[1]!r} undefined"
            if out is not None:
                return "UsageError", at + "second output"
            out = p[1]
        else:
            return "UsageError", at + f"unknown statement {p[0]!r}"
    if out is None:
        return "MissingOutput", "no output line"
    return inputs, gates, out


def reference_value(gates, out: str, env: dict[int, int]) -> int:
    val = {f"x{j}": v for j, v in env.items()}
    for name, fn, args in gates:
        row = 0
        for a in args:
            row = row * 2 + val[a]
        val[name] = int(FUZZ_TABLES[fn][row])
    return val[out]


@st.composite
def circuit_texts(draw):
    """A well-formed circuit over x1..x6, then up to three random edits."""
    wires = draw(st.lists(st.sampled_from(_INPUTS), max_size=4, unique=True))
    lines = [f"input {w}" for w in wires]
    for g in range(draw(st.integers(0, 5))):
        fn = draw(st.sampled_from(sorted(_ARITY) if wires else ["c1"]))
        args = [draw(st.sampled_from(wires)) for _ in range(_ARITY[fn])]
        lines.append(" ".join(["gate", f"g{g}", fn, *args]))
        wires.append(f"g{g}")
    if wires:
        lines.append(f"output {draw(st.sampled_from(wires))}")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.integers(0, 2))
        if edit == 0:
            lines.insert(i, draw(st.sampled_from(_JUNK)))
        elif lines and i < len(lines):
            moved = lines[i] if edit == 1 else lines.pop(i)
            lines.insert(draw(st.integers(0, len(lines))), moved)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(circuit_texts())
def test_parse_matches_the_reference_reading(text):
    want = reference_parse(text)
    if isinstance(want[0], str):
        with pytest.raises(BconnError) as e:
            parse_circuit(text, FUZZ_BASE)
        assert (type(e.value).__name__, str(e.value)) == want
        return
    inputs, gates, out = want
    gl = parse_circuit(text, FUZZ_BASE)
    assert gl.inputs == tuple(inputs) and gl.dim == max(inputs, default=0)
    n = max(gl.dim, 1)
    for w in range(1 << n):
        assert evaluate(gl, FUZZ_BASE, BitVector(n, w)) == reference_value(gates, out, env_of(w, n))
    assert parse_circuit(print_circuit(gl, FUZZ_BASE), FUZZ_BASE) == gl


@settings(max_examples=100, deadline=None)
@given(circuit_texts())
def test_conn_answers_or_reports_on_any_circuit(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("circ")
    (d / "b.tt").write_text("and 2 0001\nor 2 0111\nnot 1 10\nc1 0 1\n", encoding="utf-8")
    (d / "c.circ").write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["conn", "--base", str(d / "b.tt"), "--circuit", str(d / "c.circ"), "--json"])
    if code == 0:
        assert "connected" in json.loads(out.getvalue())
    else:
        assert code in (2, 3) and "error" in json.loads(err.getvalue())
