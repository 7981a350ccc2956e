"""Formulas over a base: recursive-descent parsing, printing, lowering.

Grammar (whitespace-insensitive):

    expr := 'x'[1-9][0-9]*                  variable
          | name '(' expr {',' expr} ')'    application
          | name                            arity-0 application

Tokens matching the variable pattern are always variables, so a base
function named like `x1` is not reachable from the concrete syntax.
Nesting deep enough to exhaust the interpreter's recursion limit is
refused with FormulaSyntaxError.

Subterms may be shared by reference (the reductions substitute each half
of a CNF into a combiner); every walk but the parser and the printer is
one explicit-stack fold that visits each distinct subterm object once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .circuits import CircuitDag, Gate, GateList, point_value
from .clones import BaseSet
from .errors import (
    ArityMismatch,
    FormulaSyntaxError,
    UnknownFunction,
)
from .truthtable import BitVector

_VAR_TOKEN = re.compile(r"x[1-9][0-9]*\Z")


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Apply:
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


FormulaAst = Var | Apply


class _Parser:
    def __init__(self, text: str, base: BaseSet):
        self.text = text
        self.base = base
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise FormulaSyntaxError("expected identifier", start)
        return self.text[start : self.pos]

    def expr(self) -> FormulaAst:
        start = self.pos
        name = self.ident()
        if _VAR_TOKEN.match(name):
            return Var(int(name[1:]))
        if name not in self.base:
            raise UnknownFunction(f"unknown function {name!r} at position {start}")
        want = self.base[name].n
        self.skip_ws()
        if self.peek() != "(":
            if want != 0:
                raise ArityMismatch(f"{name} takes {want} args, got 0")
            return Apply(name, ())
        self.pos += 1
        self.skip_ws()
        if self.peek() == ")" and want == 0:
            self.pos += 1
            return Apply(name, ())
        args = [self.expr()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            args.append(self.expr())
            self.skip_ws()
        if self.peek() != ")":
            raise FormulaSyntaxError("expected ',' or ')'", self.pos)
        self.pos += 1
        if len(args) != want:
            raise ArityMismatch(f"{name} takes {want} args, got {len(args)}")
        return Apply(name, tuple(args))


def parse_formula(text: str, base: BaseSet) -> FormulaAst:
    p = _Parser(text, base)
    try:
        ast = p.expr()
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply", p.pos) from None
    p.skip_ws()
    if p.pos != len(text):
        raise FormulaSyntaxError("trailing input", p.pos)
    return ast


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
    """A recursive join: a fold would keep every shared subterm's text
    alive, several times the peak memory on reduction outputs."""
    if isinstance(ast, Var):
        return f"x{ast.index}"
    if not ast.args:
        return ast.name
    return f"{ast.name}({','.join(print_formula(a) for a in ast.args)})"


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
    cons: dict[tuple, int] = {}  # (table, args) -> gate index, as in lower_circuit
    seen: set[int] = set()

    def var(v: Var) -> int:
        seen.add(v.index)
        return ~v.index  # x_j, until the inputs are numbered

    root = _fold(ast, var, lambda t, args: cons.setdefault((base[t.name], args), len(cons)))
    inputs = tuple(sorted(seen))
    k = len(inputs)
    node = {~j: p for p, j in enumerate(inputs)}
    gates = tuple(
        (f, tuple(node[a] if a < 0 else a + k for a in args)) for f, args in cons
    )
    return GateList(inputs, gates, node[root] if root < 0 else root + k, max(inputs, default=0))


def evaluate_formula(ast: FormulaAst, base: BaseSet, a: BitVector) -> int:
    return point_value(lower_formula(ast, base), a)


def formula_to_circuit(ast: FormulaAst) -> CircuitDag:
    """One gate per distinct application object; inputs are the distinct variables."""
    gates: list[Gate] = []

    def app(t: Apply, args: tuple[str, ...]) -> str:
        gates.append(Gate(f"g{len(gates) + 1}", t.name, args))
        return gates[-1].name

    output = _fold(ast, lambda v: f"x{v.index}", app)
    return CircuitDag(tuple(sorted(formula_vars(ast))), tuple(gates), output)
