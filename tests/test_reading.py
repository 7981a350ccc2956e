"""Text inputs read in bounded slices.

Every parser reads its text a slice at a time (truthtable._slices): the
line formats through truthtable._line_slices, whose slices end just after
a '\\n', and formulas one token slice at a time.  Each parse here must give
what a whole-text parse gives: for the line formats the same parser with
the whole text in one slice, whose lines are then text.splitlines() as
before slicing; for formulas the list-index parser over one findall of
the whole text, kept below as the reference.  Both the shipped slice size
and tiny ones are checked, so that cuts land everywhere.
"""

import argparse
import random
import re
import tracemalloc

import pytest

from bconn import cli, truthtable
from bconn.circuits import GateBuilder, is_var, parse_circuit
from bconn.clones import BaseSet, parse_base_file
from bconn.cnf import parse_dimacs
from bconn.errors import (
    ArityMismatch,
    BconnError,
    FormulaSyntaxError,
    UnknownFunction,
)
from bconn.formulas import _NONWORD, parse_formula
from bconn.graph import parse_relation
from bconn.truthtable import _NEWLINE, _SLICE, _line_slices, _slices

from conftest import affine_circuit, and_or_formula, mk_base

# every line break str.splitlines accepts
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

MONO = mk_base(["and", "or"])
AFFINE = BaseSet({"xor": truthtable.tt_parse("0110", 2), "eqv": truthtable.tt_parse("1001", 2)})


def outcome(parse, text, *args):
    """What parse gives: its result, or its error's class and text."""
    try:
        return parse(text, *args)
    except BconnError as e:
        return type(e), str(e)


def whole(parse, text, *args):
    """The outcome of parse reading text as one slice."""
    saved = truthtable._SLICE
    truthtable._SLICE = len(text) + 1
    try:
        return outcome(parse, text, *args)
    finally:
        truthtable._SLICE = saved


def sliced(monkeypatch, size, parse, text, *args):
    monkeypatch.setattr(truthtable, "_SLICE", size)
    return outcome(parse, text, *args)


# ---------------------------------------------------------------------------
# The reference formula parser: every token of the whole text in one list.

_TOKEN = re.compile(r"\w+|\S")


def reference_formula(text, base):
    toks = _TOKEN.findall(text) + [""]
    b = GateBuilder(base, tuple(sorted(int(t[1:]) for t in set(toks) if is_var(t))))
    return b.finish(_reference_parse(text, toks, b))


def _reference_parse(text, toks, b):
    heads, frames, i = {}, [], 0
    while True:
        i += 1
        want, value = heads.get(toks[i - 1]) or _reference_head(text, toks, i - 1, b, heads)
        if want is not None:
            if toks[i] == "(":
                i += 1
                if toks[i] != ")" or want:
                    frames.append((value, want, []))
                    continue
                i += 1
            elif want:
                raise ArityMismatch(f"{value} takes {want} args, got 0")
            value = b.app(value, ())
        while frames:
            frames[-1][2].append(value)
            i += 1
            if toks[i - 1] == ",":
                break
            if toks[i - 1] != ")":
                raise FormulaSyntaxError("expected ',' or ')'", _reference_at(text, i - 1))
            name, want, args = frames.pop()
            if len(args) != want:
                raise ArityMismatch(f"{name} takes {want} args, got {len(args)}")
            value = b.app(name, tuple(args))
        else:
            if toks[i]:
                raise FormulaSyntaxError("trailing input", _reference_at(text, i))
            return value


def _reference_head(text, toks, k, b, heads):
    tok = toks[k]
    if is_var(tok):
        heads[tok] = (None, b.node[int(tok[1:])])
    elif not tok[:1].isalnum() and tok[:1] != "_":
        raise FormulaSyntaxError("expected identifier", _reference_at(text, k))
    elif tok not in b.base:
        at = _reference_at
        start = 0 if k == 0 else at(text, k - 1) + 1 if toks[k - 1] == "," else at(text, k)
        raise UnknownFunction(f"unknown function {tok!r} at position {start}")
    else:
        heads[tok] = (b.base[tok].n, tok)
    return heads[tok]


def _reference_at(text, k):
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


# ---------------------------------------------------------------------------
# Inputs of each format, longer than three slices at the shipped size.


def relation_text(rng, count=4_000, n=20):
    words = sorted(rng.sample(range(1 << n), count))
    return f"n {n}\n" + "".join(format(w, f"0{n}b") + "\n" for w in words)


def dimacs_text(rng, clauses=6_000, n=9):
    lines = [f"p cnf {n} {clauses}"]
    for _ in range(clauses):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def base_text(rng, count=3_000):
    return "".join(f"f{i} 4 {rng.getrandbits(16):016b}\n" for i in range(count))


LINE_FORMATS = {
    "relation": (parse_relation, relation_text, ()),
    "circuit": (parse_circuit, lambda rng: affine_circuit(rng, 5_000, 30), (AFFINE,)),
    "dimacs": (parse_dimacs, dimacs_text, ()),
    "base": (parse_base_file, base_text, ()),
}


def spoil(kind, line, longer=False):
    """A line that the format rejects, as long as line or one longer."""
    if kind == "relation":
        return "0" + line if longer else line[:-1] + "2"
    if kind == "base":
        return line.replace(" 4 ", " x ")
    return "z" + line[1:]  # an unknown statement, a bad literal


# ---------------------------------------------------------------------------
# The line reader


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 64])
def test_the_lines_of_all_slices_are_those_of_splitlines(monkeypatch, size):
    monkeypatch.setattr(truthtable, "_SLICE", size)
    rng = random.Random(size)
    texts = ["", "\n", "a", "a\n", "a\r\nb", "\r\n\r\n", "\r\r\n\n", "a\r", "\na\n\nb"]
    texts += ["".join(rng.choice(["ab", "c", ""] + BREAKS) for _ in range(200)) for _ in range(20)]
    for text in texts:
        got, first = [], 1
        for number, lines in _line_slices(text):
            assert number == first
            got += lines
            first += len(lines)
        assert got == text.splitlines(), text


def test_slices_cover_the_text_and_end_just_after_a_cut():
    text = relation_text(random.Random(1))
    spans = list(_slices(text, _NEWLINE))
    assert len(spans) > 3 and spans[0][0] == 0 and spans[-1][1] == len(text)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == start and text[end - 1] == "\n"
    assert all(_SLICE < end - start < _SLICE + 30 for start, end in spans[:-1])
    assert list(_slices("", _NEWLINE)) == []
    assert list(_slices("x" * (3 * _SLICE), _NEWLINE)) == [(0, 3 * _SLICE)]


# ---------------------------------------------------------------------------
# The line formats against the whole-text parse


@pytest.mark.parametrize("kind", LINE_FORMATS)
def test_a_long_input_parses_as_the_whole_text_does(monkeypatch, kind):
    parse, make, args = LINE_FORMATS[kind]
    text = make(random.Random(kind))
    assert len(text) > 3 * _SLICE
    want = whole(parse, text, *args)
    assert not isinstance(want, tuple)
    for size in (_SLICE, 1000, 7):
        assert sliced(monkeypatch, size, parse, text, *args) == want
    # no final newline, and \r\n or another break in place of each \n
    assert outcome(parse, text[:-1], *args) == want
    for brk in BREAKS[1:]:
        assert outcome(parse, text.replace("\n", brk), *args) == want


@pytest.mark.parametrize("kind", LINE_FORMATS)
def test_errors_at_the_edges_of_a_slice_name_the_same_line(kind):
    parse, make, args = LINE_FORMATS[kind]
    text = make(random.Random(kind))
    lines = text.splitlines()
    starts = [first - 1 for first, _ in _line_slices(text)]
    assert len(starts) > 3
    # the first and last line of a slice; the first is the line after a
    # cut.  A line one longer stays where it was: a cut moves only later.
    for k in (starts[1], starts[1] - 1, starts[2], starts[-1] - 1, starts[-1], len(lines) - 1):
        for longer in (False, True):
            bad = lines[:k] + [spoil(kind, lines[k], longer)] + lines[k + 1:]
            text = "\n".join(bad) + "\n"
            assert [first for first, _ in _line_slices(text)] == [s + 1 for s in starts]
            got = outcome(parse, text, *args)
            assert got == whole(parse, text, *args)
            assert isinstance(got, tuple) and got[1].startswith(f"line {k + 1}: "), got


@pytest.mark.parametrize("size", [1, 4, 16, 10_000])
def test_comments_blank_lines_and_every_line_break(monkeypatch, size):
    rng = random.Random(size)
    texts = {
        "relation": ["n 3", "# words", "", "  011 # one", "110", "\t", "111  "],
        "circuit": ["# c", "input x1", "input x2  # in", "", "gate g xor x1 x2", "output g"],
        "dimacs": ["c comment", "p cnf 3 2", "", "1 -2", "3 0 -1", "0", "%", "junk"],
        "base": ["# base", "xor 2 0110", "", "  eqv 2 1001  # e"],
    }
    for kind, lines in texts.items():
        parse, _, args = LINE_FORMATS[kind]
        for _ in range(20):
            text = "".join(line + rng.choice(BREAKS) for line in lines)
            if rng.random() < 0.5:
                text = text[:-1]
            want = whole(parse, text, *args)
            assert not isinstance(want, tuple), (kind, want)
            assert sliced(monkeypatch, size, parse, text, *args) == want


@pytest.mark.parametrize("size", [1, 3, _SLICE])
def test_slices_of_blank_lines_after_a_dimension_0_header(monkeypatch, size):
    # a slice of only blank lines holds no words, not words of 0 bits
    blank = "\n" * (3 * _SLICE)
    for text, count in [("n 0\n0\n" + blank, 1), ("n 0\n" + blank, 0), ("n 0\n" + blank + "0", 1)]:
        got = sliced(monkeypatch, size, parse_relation, text)
        assert got == whole(parse_relation, text)
        assert (got.n, len(got)) == (0, count)


@pytest.mark.parametrize("kind", LINE_FORMATS)
def test_empty_text_and_errors_read_in_tiny_slices(monkeypatch, kind):
    parse, make, args = LINE_FORMATS[kind]
    assert sliced(monkeypatch, 1, parse, "", *args) == whole(parse, "", *args)
    lines = make(random.Random(kind)).splitlines()[:40]
    rng = random.Random(kind)
    for _ in range(30):
        k = rng.randrange(len(lines))
        bad = lines[:k] + [spoil(kind, lines[k])] + lines[k + 1:]
        text = rng.choice(BREAKS).join(bad)
        size = rng.randrange(1, 30)
        assert sliced(monkeypatch, size, parse, text, *args) == whole(parse, text, *args)


# ---------------------------------------------------------------------------
# Formulas against the reference parser


def test_a_long_formula_parses_as_the_reference_does(monkeypatch):
    text = and_or_formula(random.Random(3), 20_000, 30)
    assert len(text) > 3 * _SLICE
    want = reference_formula(text, MONO)
    assert parse_formula(text, MONO) == want
    spaced = text.replace(",", " ,\n").replace("(", "( ")
    assert parse_formula(spaced, MONO) == want
    for size in (1000, 5, 1):
        assert sliced(monkeypatch, size, parse_formula, text, MONO) == want


def _after_cuts(text, pattern):
    """The first match of pattern after each of the first cuts of text."""
    ends = [end for _, end in _slices(text, _NONWORD)][:-1]
    return [re.compile(pattern).search(text, end) for end in ends[:3]]


@pytest.mark.parametrize(
    "pattern, replace",
    [
        (r"\band\b", "nnd"),  # an unknown function after a comma or '('
        (r",", ";"),  # expected ',' or ')'
        (r"x\d+", lambda s: "#" + s[1:]),  # expected identifier
        (r"\)", ","),  # an arity mismatch, or a syntax error
        (r"\(", " "),  # a function without its arguments
    ],
)
def test_formula_errors_after_a_cut_report_the_reference_offset(monkeypatch, pattern, replace):
    text = and_or_formula(random.Random(4), 20_000, 30)
    for m in _after_cuts(text, pattern):
        new = replace(m.group()) if callable(replace) else replace
        bad = text[:m.start()] + new + text[m.end():]
        want = outcome(reference_formula, bad, MONO)
        assert isinstance(want, tuple), want
        assert outcome(parse_formula, bad, MONO) == want
        assert sliced(monkeypatch, 7, parse_formula, bad, MONO) == want
        monkeypatch.setattr(truthtable, "_SLICE", _SLICE)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 50])
def test_short_formulas_in_tiny_slices(monkeypatch, size):
    # names that hold a variable's name are not variables
    tables = {"gx2": truthtable.tt_parse("10", 1), "x3g": truthtable.tt_parse("01", 1)}
    base = BaseSet(dict(mk_base(["and", "or", "not", "c0", "maj"])) | tables)
    long = "f" * (3 * size + 5)
    texts = [
        "", " ", "x1", " x1 ", "x0", "x01", "and(x1,x2)", "and(x1, x2) x3", "and( x1 ,\n x2 )",
        "and(x1,q(x2))", "and(x1, q)", "q", "and(x1)", "and(x1,x2,x3)", "c0", "c0()", "c0(x1)",
        "not", "not()", "maj(x1,x2,x3", "and(x1,x2))", ",", "(x1)", "and(,x1)", "x1x2",
        "or(x1,_y)", "or(x1,\xe9)", "and(x12345678,not(x3))", f"and(x1,{long})", f"or({long},x2)",
        f"and(x1,x2){long}", "and(x1,\xe9x2)", "not(x1)\u2028", "and(x1,gx2(x5))",
        "or(x3g(x1),x4)", "x3g(gx2(x6))",
    ]
    for text in texts:
        want = outcome(reference_formula, text, base)
        assert sliced(monkeypatch, size, parse_formula, text, base) == want, text


def test_an_identifier_longer_than_a_slice():
    name = "g" * (2 * _SLICE + 3)
    base = BaseSet({"and": truthtable.tt_parse("0001", 2), name: truthtable.tt_parse("10", 1)})
    text = f"and(x1,{name}(and({name}(x2),x3)))"
    assert len(list(_slices(text, _NONWORD))) > 1
    assert parse_formula(text, base) == reference_formula(text, base)
    bad = text.replace(f",{name}(", f",{name}h(", 1)
    want = outcome(reference_formula, bad, base)
    assert want[0] is UnknownFunction and want[1].endswith(" at position 7")
    assert outcome(parse_formula, bad, base) == want


# ---------------------------------------------------------------------------
# Memory: what a parse allocates above what it returns


def _overhead(parse, *args) -> int:
    """Bytes traced at the parse's peak above what is still held after it."""
    tracemalloc.start()
    try:
        result = parse(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    return peak - held


def test_a_parse_holds_a_bounded_slice_of_its_input(tmp_path):
    rng = random.Random(30)
    # the benchmark's mono30 size: 30,000 leaves, about 246 kB; the list of
    # every token alone took 4.2 MB
    formula = and_or_formula(rng, 30_000, 30)
    parse = _overhead(parse_formula, formula, MONO)
    assert parse < 2_000_000
    # the CLI's load holds the stripped text beside the parse, and not also
    # the text as read (parse + 2 copies, 1.26 MB, before it rebound it)
    path = tmp_path / "mono.bf"
    path.write_text(f"\n{formula}\n", encoding="utf-8")
    load = _overhead(cli._load_object, argparse.Namespace(formula=str(path)), MONO)
    assert load < parse + 1.5 * len(formula)
    # 40,000 words at n = 20, 840 kB; the list of every line took 3 MB
    relation = relation_text(rng, count=40_000)
    assert _overhead(parse_relation, relation) < 1_000_000
    # 20,000 gates; the builder's tables stay, the line list went
    circuit = affine_circuit(rng, 20_000, 30)
    assert _overhead(parse_circuit, circuit, AFFINE) < 3_000_000
