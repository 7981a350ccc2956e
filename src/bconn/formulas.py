"""Formulas over a base: shift-reduce parsing, printing, lowering.

Grammar (whitespace-insensitive):

    expr := 'x'[1-9][0-9]*                  variable
          | name '(' expr {',' expr} ')'    application
          | name                            arity-0 application

Tokens matching the variable pattern are always variables, so a base
function named like `x1` is not reachable from the concrete syntax.

The parser is one loop over the tokens of one regex: an application's
'(' opens a frame on an explicit stack and its ')' reduces the frame, so
nesting depth is unbounded.  The reductions are parameters, as in the
fold below: the default builds a FormulaAst, and parse_formula(...,
gates=True) hash-conses straight into a GateList with no tree in between.

Subterms may be shared by reference (the reductions substitute each half
of a CNF into a combiner); every walk but the printer is one
explicit-stack fold that visits each distinct subterm object once.
"""

from __future__ import annotations

import re

from .circuits import VAR_NAME, GateBuilder, GateList
from .clones import BaseSet
from .errors import ArityMismatch, FormulaSyntaxError, UnknownFunction
from .truthtable import Record, _set

_TOKEN = re.compile(r"\w+|\S")  # an identifier or one other character


class Var(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class Apply(Record):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        _set(self, "name", name)
        _set(self, "args", tuple(args))


FormulaAst = Var | Apply


def _parse(text: str, toks: list[str], base: BaseSet, var, app):
    """var(index) once per distinct variable token and app(name, argument
    values) at each application, reduced left to right on an explicit stack."""
    heads: dict[str, tuple] = {}  # token -> (None, var value) or (arity, name)
    frames: list[tuple[str, int, list]] = []  # open applications
    i = 0
    while True:  # an expression starts at token i
        i += 1
        want, value = heads.get(toks[i - 1]) or _head(text, toks, i - 1, base, var, heads)
        if want is not None:
            if toks[i] == "(":
                i += 1
                if toks[i] != ")" or want:
                    frames.append((value, want, []))
                    continue
                i += 1
            elif want:
                raise ArityMismatch(f"{value} takes {want} args, got 0")
            value = app(value, ())
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
            value = app(name, tuple(args))
        else:
            if toks[i]:
                raise FormulaSyntaxError("trailing input", _at(text, i))
            return value


def _head(text: str, toks: list[str], k: int, base: BaseSet, var, heads: dict) -> tuple:
    """Classify token k, which starts an expression, and remember it."""
    tok = toks[k]
    if VAR_NAME.match(tok):
        heads[tok] = (None, var(int(tok[1:])))
    elif not tok[:1].isalnum() and tok[:1] != "_":
        raise FormulaSyntaxError("expected identifier", _at(text, k))
    elif tok not in base:
        # an expression starts right after a comma, before any whitespace;
        # elsewhere at its own first token (the first one at offset 0)
        start = 0 if k == 0 else _at(text, k - 1) + 1 if toks[k - 1] == "," else _at(text, k)
        raise UnknownFunction(f"unknown function {tok!r} at position {start}")
    else:
        heads[tok] = (base[tok].n, tok)
    return heads[tok]


def _at(text: str, k: int) -> int:
    """Offset of token k (the end of the text for the end marker); errors only."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


def parse_formula(text: str, base: BaseSet, gates: bool = False) -> FormulaAst | GateList:
    """The formula as a tree, or with gates=True as a hash-consed gate list."""
    toks = _TOKEN.findall(text) + [""]  # "" ends the input
    if not gates:
        return _parse(text, toks, base, Var, Apply)
    b = GateBuilder(base, tuple(sorted(int(t[1:]) for t in set(toks) if VAR_NAME.match(t))))
    return b.finish(_parse(text, toks, base, b.node.__getitem__, b.app))


def _fold(ast: FormulaAst, var, app):
    """The root's value, var(v) at a variable and app(t, arg values) at an
    application, computed once per distinct subterm object in post-order
    (last argument first) on an explicit stack, so depth is unbounded."""
    done: dict[int, object] = {}  # id(subterm) -> value
    stack = [ast]
    while stack:
        t = stack.pop()
        if id(t) in done:
            continue
        if isinstance(t, Var):
            done[id(t)] = var(t)
            continue
        todo = [a for a in t.args if id(a) not in done]
        if todo:
            stack.append(t)
            stack.extend(todo)
            continue
        done[id(t)] = app(t, tuple([done[id(a)] for a in t.args]))
    return done[id(ast)]


def print_formula(ast: FormulaAst) -> str:
    """A join on an explicit stack.  A frame's argument texts live until it
    closes, as in a recursive join, and nothing is memoized: keeping every
    shared subterm's text costs several times the peak on reduction outputs."""
    frames: list[tuple[Apply, list[str]]] = []  # open applications, argument texts
    t = ast
    while True:
        while isinstance(t, Apply) and t.args:
            frames.append((t, []))
            t = t.args[0]
        text = f"x{t.index}" if isinstance(t, Var) else t.name
        while frames:
            app, texts = frames[-1]
            texts.append(text)
            if len(texts) < len(app.args):
                t = app.args[len(texts)]
                break
            frames.pop()
            text = ",".join(texts)
            texts.clear()  # drop the argument texts, as a returning call would
            text = f"{app.name}({text})"
        else:
            return text


def formula_vars(ast: FormulaAst) -> set[int]:
    out: set[int] = set()
    _fold(ast, lambda v: out.add(v.index), lambda t, args: None)
    return out


def formula_size(ast: FormulaAst) -> int:
    """Nodes of the formula as a tree, shared subterms counted per occurrence."""
    return _fold(ast, lambda v: 1, lambda t, args: 1 + sum(args))


def substitute(ast: FormulaAst, mapping: dict[int, FormulaAst]) -> FormulaAst:
    """Replace every variable by its image (identity where unmapped),
    keeping shared subterms shared."""
    return _fold(ast, lambda v: mapping.get(v.index, v), lambda t, args: Apply(t.name, args))


def lower_formula(ast: FormulaAst, base: BaseSet) -> GateList:
    """The formula as a gate list; a shared subterm object lowers once."""
    b = GateBuilder(base, tuple(sorted(formula_vars(ast))))
    return b.finish(_fold(ast, lambda v: b.node[v.index], lambda t, args: b.app(t.name, args)))
