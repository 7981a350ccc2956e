"""Formulas over a base: shift-reduce parsing into gates, and printing.

Grammar (whitespace-insensitive):

    expr := 'x'[1-9][0-9]*                  variable
          | name '(' expr {',' expr} ')'    application
          | name                            arity-0 application

Tokens matching the variable pattern are always variables, so a base
function named like `x1` is not reachable from the concrete syntax.

A formula is a circuit whose gates have fan-out 1, and its text spells
that circuit out per occurrence.  So a formula has no type of its own:
the parser hash-conses each application straight into a GateList, and
the printer unfolds a GateList back into text.  The parser reads each
token once, as the text is tokenized a slice at a time after a first
pass finds the variables: an application's '(' opens a frame on an
explicit stack and its ')' reduces the frame, so nesting depth is
unbounded.  The printer writes the text in pieces and never builds a
gate's text longer than _JOINED characters.
"""

from __future__ import annotations

import re
from itertools import chain

from .circuits import GateBuilder, GateList, is_var
from .clones import BaseSet
from .errors import ArityMismatch, FormulaSyntaxError, TooLarge, UnknownFunction, charge
from .truthtable import TruthTable, _slices

_TOKEN = re.compile(r"\w+|\S")  # an identifier or one other character
_NONWORD = re.compile(r"\W")  # no token spans a cut just after one
_XWORD = re.compile(r"x(?<!\wx)\w*")  # an identifier starting with x, as variables do
_JOINED = 1 << 16  # characters of the longest gate text the printer builds whole


def _parse(text: str, b: GateBuilder) -> int:
    """The output node, each application hash-consed into b as its frame
    closes, reduced left to right on an explicit stack."""
    heads: dict[str, tuple] = {}  # token -> (None, input node) or (arity, name)
    frames: list[tuple[str, int, list]] = []  # open applications
    nxt = _tokens(text).__next__
    i, tok = 0, nxt()  # tok is token i
    while True:  # an expression starts at token i
        want, value = heads.get(tok) or _head(text, tok, i, b, heads)
        i, tok = i + 1, nxt()
        if want is not None:
            if tok == "(":
                i, tok = i + 1, nxt()
                if tok != ")" or want:
                    frames.append((value, want, []))
                    continue
                i, tok = i + 1, nxt()
            elif want:
                raise ArityMismatch(f"{value} takes {want} args, got 0")
            value = b.app(value, ())
        while frames:  # close the frames that value completes
            frames[-1][2].append(value)
            if tok == ",":
                i, tok = i + 1, nxt()
                break
            if tok != ")":
                raise FormulaSyntaxError("expected ',' or ')'", _at(text, i))
            i, tok = i + 1, nxt()
            name, want, args = frames.pop()
            if len(args) != want:
                raise ArityMismatch(f"{name} takes {want} args, got {len(args)}")
            value = b.app(name, tuple(args))
        else:
            if tok:
                raise FormulaSyntaxError("trailing input", _at(text, i))
            return value


def _head(text: str, tok: str, k: int, b: GateBuilder, heads: dict) -> tuple:
    """Classify tok, token k, which starts an expression, and remember it."""
    if is_var(tok):
        heads[tok] = (None, b.node[int(tok[1:])])
    elif not tok[:1].isalnum() and tok[:1] != "_":
        raise FormulaSyntaxError("expected identifier", _at(text, k))
    elif tok not in b.base:
        # an expression starts right after a comma, before any whitespace;
        # elsewhere at its own first token (the first one at offset 0)
        comma = k and text[_at(text, k - 1)] == ","
        start = 0 if k == 0 else _at(text, k - 1) + 1 if comma else _at(text, k)
        raise UnknownFunction(f"unknown function {tok!r} at position {start}")
    else:
        heads[tok] = (b.base[tok].n, tok)
    return heads[tok]


def _at(text: str, k: int) -> int:
    """Offset of token k (the end of the text for the end marker); errors only."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


def _tokens(text: str):
    """The tokens of text, found one slice at a time, then "" for its end."""
    found = (_TOKEN.findall(text, *span) for span in _slices(text, _NONWORD))
    return chain.from_iterable(chain(found, [[""]]))


def parse_formula(text: str, base: BaseSet) -> GateList:
    """The formula as a hash-consed gate list over the variables it names,
    which a first pass over the text finds."""
    spans = _slices(text, _NONWORD)
    names = set(chain.from_iterable(_XWORD.findall(text, *span) for span in spans))
    b = GateBuilder(base, tuple(sorted(int(t[1:]) for t in names if is_var(t))))
    return b.finish(_parse(text, b))


def print_formula(gl: GateList, base: BaseSet, write) -> None:
    """Write the formula the gates unfold to through write, in pieces,
    shared nodes spelled per occurrence.

    Each table is named by the least base name that has it, the name
    synthesis's (size, text) tie-break picks.  A gate whose text has at
    most _JOINED characters, or a leaf, is joined in gate order and dropped
    after its last joined reader, so a gate the output does not reach is
    never spelled.  A longer gate, and the output, is never built: it is
    written from the output down as its name and '(', its arguments with
    ',' between them, and ')'.  So the peak is the joined texts a written
    gate still reads, not the output: 1.4 MB traced writing a 69-clause D1
    reduction of 21.5M nodes.  More than LIMITS["formula nodes"] is refused
    before the first write."""
    _write_formula(gl, base, write, "")


def _write_formula(gl: GateList, base: BaseSet, write, head: str) -> None:
    """Write head, then print_formula's text; both wait for the refusal."""
    charge("formula nodes", formula_size(gl), error=TooLarge)
    names: dict[TruthTable, str] = {}
    for name, f in sorted(base):  # names are distinct, so tables never compare
        names.setdefault(f, name)
    k = len(gl.inputs)
    texts: list = [f"x{j}" for j in gl.inputs]
    chars = [len(t) for t in texts]  # node -> characters of its text
    for f, args in gl.gates:
        chars.append(len(names[f]) + (sum([chars[a] for a in args]) + len(args) + 1 if args else 0))
    texts += [None] * (gl.output + 1 - k)
    # the output is written from its arguments' texts, never joined beside them
    joined = [not args or chars[g] <= _JOINED and g != gl.output for g, (_, args) in enumerate(gl.gates, k)]
    del chars  # one int per node, not to be held through the join below
    # node -> the last joined gate reading it; -1: kept to the end; 0: unreached
    last = [0] * gl.output + [-1]
    for g in range(gl.output, k - 1, -1):
        if last[g]:
            for a in gl.gates[g - k][1]:
                last[a] = (last[a] or g) if joined[g - k] else -1
    for g in range(k, gl.output + 1):
        if last[g] and joined[g - k]:
            f, args = gl.gates[g - k]
            parts = [names[f], "("]
            for a in args:
                parts += texts[a], ","
            parts[-1] = ")"
            texts[g] = "".join(parts) if args else names[f]
            for a in args:
                if last[a] == g:
                    texts[a] = None
    todo: list = [gl.output, head] if head else [gl.output]  # last first
    while todo:
        v = todo.pop()
        if type(v) is str:
            write(v)
        elif texts[v] is not None:
            write(texts[v])
        else:
            f, args = gl.gates[v - k]
            write(names[f] + "(")
            todo.append(")")
            for a in args[:0:-1]:
                todo += a, ","
            todo.append(args[0])


def formula_size(gl: GateList) -> int:
    """Nodes of the formula the gates unfold to, shared nodes counted per occurrence."""
    sizes = [1] * len(gl.inputs)
    for _, args in gl.gates:
        sizes.append(1 + sum([sizes[a] for a in args]))
    return sizes[gl.output]
