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
the printer unfolds a GateList back into text.  The parser is one loop
over the tokens of one regex: an application's '(' opens a frame on an
explicit stack and its ')' reduces the frame, so nesting depth is
unbounded.  The printer is one pass over the gates in order: it builds
each text the output reaches once and keeps it only until its last reader.
"""

from __future__ import annotations

import re

from .circuits import VAR_NAME, GateBuilder, GateList
from .clones import BaseSet
from .errors import ArityMismatch, FormulaSyntaxError, TooLarge, UnknownFunction, charge
from .truthtable import TruthTable

_TOKEN = re.compile(r"\w+|\S")  # an identifier or one other character


def _parse(text: str, toks: list[str], b: GateBuilder) -> int:
    """The output node, each application hash-consed into b as its frame
    closes, reduced left to right on an explicit stack."""
    heads: dict[str, tuple] = {}  # token -> (None, input node) or (arity, name)
    frames: list[tuple[str, int, list]] = []  # open applications
    i = 0
    while True:  # an expression starts at token i
        i += 1
        want, value = heads.get(toks[i - 1]) or _head(text, toks, i - 1, b, heads)
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
        while frames:  # close the frames that value completes
            frames[-1][2].append(value)
            i += 1
            if toks[i - 1] == ",":
                break
            if toks[i - 1] != ")":
                raise FormulaSyntaxError("expected ',' or ')'", _at(text, i - 1))
            name, want, args = frames.pop()
            if len(args) != want:
                raise ArityMismatch(f"{name} takes {want} args, got {len(args)}")
            value = b.app(name, tuple(args))
        else:
            if toks[i]:
                raise FormulaSyntaxError("trailing input", _at(text, i))
            return value


def _head(text: str, toks: list[str], k: int, b: GateBuilder, heads: dict) -> tuple:
    """Classify token k, which starts an expression, and remember it."""
    tok = toks[k]
    if VAR_NAME.match(tok):
        heads[tok] = (None, b.node[int(tok[1:])])
    elif not tok[:1].isalnum() and tok[:1] != "_":
        raise FormulaSyntaxError("expected identifier", _at(text, k))
    elif tok not in b.base:
        # an expression starts right after a comma, before any whitespace;
        # elsewhere at its own first token (the first one at offset 0)
        start = 0 if k == 0 else _at(text, k - 1) + 1 if toks[k - 1] == "," else _at(text, k)
        raise UnknownFunction(f"unknown function {tok!r} at position {start}")
    else:
        heads[tok] = (b.base[tok].n, tok)
    return heads[tok]


def _at(text: str, k: int) -> int:
    """Offset of token k (the end of the text for the end marker); errors only."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


def parse_formula(text: str, base: BaseSet) -> GateList:
    """The formula as a hash-consed gate list over the variables it names."""
    toks = _TOKEN.findall(text) + [""]  # "" ends the input
    b = GateBuilder(base, tuple(sorted(int(t[1:]) for t in set(toks) if VAR_NAME.match(t))))
    return b.finish(_parse(text, toks, b))


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
