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
unbounded.  The printer is one pass over the gates in order: it builds
each text the output reaches once and keeps it only until its last reader.
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


def print_formula(gl: GateList, base: BaseSet) -> str:
    """The formula the gates unfold to, shared nodes spelled per occurrence.

    Each table is named by the least base name that has it, the name
    synthesis's (size, text) tie-break picks.  One pass in gate order joins
    each text the output reaches once and drops it after its last reader,
    so a gate the output does not reach is never spelled.  The peak is the
    output and the texts it is joined from, as in a recursive join (traced:
    0.79 MB for a D1 and 1.05 MB for an S02K(2) reduction of 8 clauses).
    A formula of more than LIMITS["formula nodes"] is refused first, as
    the text (about three characters a node) is built whole; the largest
    output measured, S02K(3) of a 64-clause CNF, has 52.1M."""
    charge("formula nodes", formula_size(gl), error=TooLarge)
    names: dict[TruthTable, str] = {}
    for name, f in sorted(base):  # names are distinct, so tables never compare
        names.setdefault(f, name)
    k = len(gl.inputs)
    last = [0] * gl.output + [-1]  # node -> the last gate reading it; 0: unreached
    for g in range(gl.output, k - 1, -1):
        if last[g]:
            for a in gl.gates[g - k][1]:
                last[a] = last[a] or g
    texts: list = [f"x{j}" for j in gl.inputs] + [None] * (gl.output + 1 - k)
    for g in range(k, gl.output + 1):
        if last[g]:
            f, args = gl.gates[g - k]
            parts = [names[f], "("]
            for a in args:
                parts += texts[a], ","
            parts[-1] = ")"
            texts[g] = "".join(parts) if args else names[f]
            for a in args:
                if last[a] == g:
                    texts[a] = None
    return texts[gl.output]


def formula_size(gl: GateList) -> int:
    """Nodes of the formula the gates unfold to, shared nodes counted per occurrence."""
    sizes = [1] * len(gl.inputs)
    for _, args in gl.gates:
        sizes.append(1 + sum([sizes[a] for a in args]))
    return sizes[gl.output]
