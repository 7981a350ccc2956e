"""Formulas over a base: recursive-descent parsing, printing, lowering.

Grammar (whitespace-insensitive):

    expr := 'x'[1-9][0-9]*                  variable
          | name '(' expr {',' expr} ')'    application
          | name                            arity-0 application

Tokens matching the variable pattern are always variables, so a base
function named like `x1` is not reachable from the concrete syntax.
Nesting deep enough to exhaust the interpreter's recursion limit is
refused with FormulaSyntaxError.
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


def print_formula(ast: FormulaAst) -> str:
    if isinstance(ast, Var):
        return f"x{ast.index}"
    if not ast.args:
        return ast.name
    return f"{ast.name}({','.join(print_formula(a) for a in ast.args)})"


def formula_vars(ast: FormulaAst) -> set[int]:
    if isinstance(ast, Var):
        return {ast.index}
    out: set[int] = set()
    for a in ast.args:
        out |= formula_vars(a)
    return out


def formula_size(ast: FormulaAst) -> int:
    if isinstance(ast, Var):
        return 1
    return 1 + sum(formula_size(a) for a in ast.args)


def substitute(ast: FormulaAst, mapping: dict[int, FormulaAst]) -> FormulaAst:
    """Replace every variable by its image (identity where unmapped)."""
    if isinstance(ast, Var):
        return mapping.get(ast.index, ast)
    return Apply(ast.name, tuple(substitute(a, mapping) for a in ast.args))


def lower_formula(ast: FormulaAst, base: BaseSet) -> GateList:
    """The formula as a gate list, by an explicit-stack post-order walk.

    A subterm object met twice is walked once, so a formula that shares
    subtrees lowers in time linear in its distinct objects."""
    cons: dict[tuple, int] = {}  # (table, args) -> gate index, as in lower_circuit
    done: dict[int, int] = {}  # id(subterm) -> gate index, or ~j for x_j
    stack = [ast]
    while stack:
        t = stack.pop()
        if id(t) in done:
            continue
        if isinstance(t, Var):
            done[id(t)] = ~t.index
            continue
        todo = [a for a in t.args if id(a) not in done]
        if todo:
            stack.append(t)
            stack.extend(todo)
            continue
        key = (base[t.name], tuple(done[id(a)] for a in t.args))
        done[id(t)] = cons.setdefault(key, len(cons))
    inputs = tuple(sorted(~v for v in set(done.values()) if v < 0))
    k = len(inputs)
    node = {~j: p for p, j in enumerate(inputs)}
    gates = tuple(
        (f, tuple(node[a] if a < 0 else a + k for a in args)) for f, args in cons
    )
    root = done[id(ast)]
    return GateList(inputs, gates, node[root] if root < 0 else root + k, max(inputs, default=0))


def evaluate_formula(ast: FormulaAst, base: BaseSet, a: BitVector) -> int:
    return point_value(lower_formula(ast, base), a)


def formula_to_circuit(ast: FormulaAst) -> CircuitDag:
    """One gate per function occurrence; inputs are the distinct variables."""
    inputs = sorted(formula_vars(ast))
    gates: list[Gate] = []

    def walk(node: FormulaAst) -> str:
        if isinstance(node, Var):
            return f"x{node.index}"
        args = tuple(walk(a) for a in node.args)
        name = f"g{len(gates) + 1}"
        gates.append(Gate(name, node.name, args))
        return name

    output = walk(ast)
    return CircuitDag(tuple(inputs), tuple(gates), output)
