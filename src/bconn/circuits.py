"""Circuits over a base, and the gate list every input kind lowers to.

File format, one statement per line ('#' comments, blank lines ignored):

    input xN
    gate NAME fn arg ...     # args are earlier inputs or gates
    output NAME

A circuit has no type of its own: parse_circuit reads the file straight
into a GateList, hash-consing each gate as it is read, and print_circuit
writes a GateList back out.  Every input kind lowers to a GateList; the
two loops at the end of this module are the package's only evaluator
(tabulate: a whole table, or a batch of points one bit lane each) and
GF(2) propagator.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .clones import BaseSet
from .errors import (
    ArityMismatch,
    DuplicateName,
    ForwardReference,
    MissingOutput,
    UnknownFunction,
    UsageError,
    WrongClass,
)
from .properties import affine_form_of
from .truthtable import LinearForm, Record, TruthTable, _lines, _set, mask_rows, tt_print

VAR_NAME = re.compile(r"x[1-9][0-9]*\Z")  # a variable x_j in every text format


def parse_circuit(text: str, base: BaseSet) -> GateList:
    """The circuit as a hash-consed gate list.  The builder starts at the
    first line that is not an input, so every later input is an error."""
    inputs: list[int] = []
    node: dict[str, int] = {}  # wire name -> node
    b: GateBuilder | None = None
    output: int | None = None
    for lineno, raw in _lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "input":
            if len(parts) != 2:
                raise UsageError(f"line {lineno}: expected `input xN`")
            if not VAR_NAME.match(parts[1]):
                raise UsageError(f"line {lineno}: bad input name {parts[1]!r}")
            if parts[1] in node:
                raise DuplicateName(f"line {lineno}: duplicate input {parts[1]!r}")
            if b is not None:
                raise UsageError(f"line {lineno}: inputs must come first")
            node[parts[1]] = len(inputs)
            inputs.append(int(parts[1][1:]))
            continue
        if b is None:
            b = GateBuilder(base, tuple(inputs))
        if kind == "gate":
            if len(parts) < 3:
                raise UsageError(f"line {lineno}: expected `gate NAME fn arg...`")
            name, fn, args = parts[1], parts[2], parts[3:]
            if name in node:
                raise DuplicateName(f"line {lineno}: duplicate gate {name!r}")
            if fn not in base:
                raise UnknownFunction(f"line {lineno}: unknown function {fn!r}")
            want = base[fn].n
            if len(args) != want:
                raise ArityMismatch(
                    f"line {lineno}: {fn} takes {want} args, got {len(args)}"
                )
            for a in args:
                if a not in node:
                    raise ForwardReference(f"line {lineno}: {a!r} not yet defined")
            node[name] = b.app(fn, tuple([node[a] for a in args]))
        elif kind == "output":
            if len(parts) != 2:
                raise UsageError(f"line {lineno}: expected `output NAME`")
            if parts[1] not in node:
                raise ForwardReference(f"line {lineno}: output {parts[1]!r} undefined")
            if output is not None:
                raise UsageError(f"line {lineno}: second output")
            output = node[parts[1]]
        else:
            raise UsageError(f"line {lineno}: unknown statement {kind!r}")
    if output is None:
        raise MissingOutput("no output line")
    return b.finish(output)


def print_circuit(gl: GateList, base: BaseSet) -> str:
    """The list in the file format, parse_circuit's inverse: inputs x_j,
    gates g1..gN, each table named by the first base function that has it."""
    names: dict[TruthTable, str] = {}
    for name, f in base:
        names.setdefault(f, name)
    wires = [f"x{j}" for j in gl.inputs] + [f"g{g}" for g in range(1, len(gl.gates) + 1)]
    lines = [f"input {w}" for w in wires[: len(gl.inputs)]]
    for w, (f, args) in zip(wires[len(gl.inputs):], gl.gates):
        lines.append(" ".join(["gate", w, names[f], *[wires[a] for a in args]]))
    lines.append(f"output {wires[gl.output]}")
    return "\n".join(lines) + "\n"


class GateList(Record):
    """An input lowered to gates in topological order.

    Node i < len(inputs) is the variable x_{inputs[i]}; node
    len(inputs) + g is gates[g], a table applied to earlier nodes.  Equal
    (table, args) pairs share one node (hash-consing, as in Filliatre &
    Conchon, "Type-safe modular hash-consing", 2006; see GateBuilder).  dim is
    the least dimension the input declares (a formula's highest variable,
    a circuit's highest input, a CNF's n, a table's arity).  prefix is None
    unless the input is a quantified formula: then the gates are its
    matrix and dim counts its free variables.
    """

    __slots__ = ("inputs", "gates", "output", "dim", "prefix")

    def __init__(
        self,
        inputs: tuple[int, ...],
        gates: tuple[tuple[TruthTable, tuple[int, ...]], ...],
        output: int,
        dim: int,
        prefix: tuple[tuple[str, int], ...] | None = None,
    ):
        _set(self, "inputs", inputs)
        _set(self, "gates", gates)
        _set(self, "output", output)
        _set(self, "dim", dim)
        _set(self, "prefix", prefix)

    def free_vars(self) -> list[int]:
        bound = {j for _, j in self.prefix or ()}
        return sorted(set(self.inputs) - bound)


class GateBuilder:
    """A gate list under construction: the one hash-consing site.

    Input p is node p (node[j] is x_j's node) and gates follow.  app(name,
    args) keys a gate on (table number, args); equal tables of the base
    share a number, so keys hash small ints, not tables."""

    def __init__(self, base: BaseSet, inputs: tuple[int, ...]):
        self.base, self.inputs = base, inputs
        self.node = {j: p for p, j in enumerate(inputs)}
        self.numbers: dict[str, int] = {}  # function name -> table number
        self.tables: dict[TruthTable, int] = {}  # distinct table -> number
        self.cons: dict[tuple, int] = {}  # (table number, args) -> node

    def app(self, name: str, args: tuple[int, ...]) -> int:
        t = self.numbers.get(name)
        if t is None:
            t = self.numbers[name] = self.tables.setdefault(self.base[name], len(self.tables))
        return self.cons.setdefault((t, args), len(self.inputs) + len(self.cons))

    def paste(self, gl: GateList, leaves) -> int:
        """The node of gl's output with gl's input p read as node leaves[p]."""
        nodes = list(leaves)
        for f, args in gl.gates:
            t = self.tables.setdefault(f, len(self.tables))
            key = (t, tuple([nodes[a] for a in args]))
            nodes.append(self.cons.setdefault(key, len(self.inputs) + len(self.cons)))
        return nodes[gl.output]

    def finish(self, output: int) -> GateList:
        """The list (dim: the highest input), emptying the builder key by key."""
        tables, k = list(self.tables), len(self.inputs)
        gates: list = [None] * len(self.cons)
        while self.cons:
            (t, args), g = self.cons.popitem()
            gates[g - k] = (tables[t], args)
        return GateList(self.inputs, tuple(gates), output, max(self.inputs, default=0))


@lru_cache(maxsize=256)
def _plan(f: TruthTable) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """How tabulate builds f's mask: from f's smaller preimage.

    The one-rows give an OR of ANDs; the zero-rows give the complement of
    one, which tabulate builds directly as an AND of ORs (cnf is True).
    A term lists one literal per argument position p: p reads the
    argument's mask and ~p its complement.  An empty term list is the
    constant the preimage leaves, 0 for one-rows and all rows for zero-rows.
    Plans are cached per table across calls.
    """
    zeros = f.bits ^ ((1 << f.size) - 1)
    cnf = zeros.bit_count() < f.bits.bit_count()
    return cnf, tuple(
        tuple(p if (r >> (f.n - 1 - p) & 1) != cnf else ~p for p in range(f.n))
        for r in mask_rows(zeros if cnf else f.bits)
    )


def tabulate(gl: GateList, leaves: list[int], rows: int) -> int:
    """Output mask over the given number of rows, given one row mask per
    input node.  Rows are table rows (2^n of them) or the lanes of a batch
    of points (bit i for point i); the loop is the same.

    Each gate reads its table's plan (see _plan) from a dict keyed by the
    table's identity, since hashing a table runs Python code.  Each term
    starts from its first literal, so an and/or gate is one big-int
    operation and an imp gate two.  A mask wider than a machine word is
    dropped after its last use, so a long list does not keep every mask
    alive; narrower ones cost what point values would."""
    full = (1 << rows) - 1
    k = len(gl.inputs)
    release = rows > 64
    if release:
        last = {a: g for g, (_, args) in enumerate(gl.gates, start=k) for a in args}
        last[gl.output] = -1
    plans: dict = {}
    values = list(leaves)
    for g, (f, args) in enumerate(gl.gates, start=k):
        plan = plans.get(id(f))
        if plan is None:
            plan = plans[id(f)] = _plan(f)
        cnf, terms = plan
        out = None
        for term in terms:
            v = None
            for p in term:
                x = values[args[p]] if p >= 0 else full ^ values[args[~p]]
                if v is None:
                    v = x
                elif cnf:
                    v |= x
                else:
                    v &= x
            if out is None:
                out = v
            elif cnf:
                out &= v
            else:
                out |= v
        values.append((full if cnf else 0) if out is None else out)
        if release:
            for a in args:
                if last[a] == g:
                    values[a] = None
    return values[gl.output]


def lane_mask(points: list, j: int) -> int:
    """x_j over a batch of assignments: bit i is its value in points[i]."""
    return sum((a.word >> (a.n - j) & 1) << i for i, a in enumerate(points))


def linear_form(gl: GateList) -> LinearForm:
    """GF(2) form of the gates, when every gate table is affine.

    Each node carries one int: bit j is set when x_j is in its support and
    bit 0 is its constant.  An affine gate XORs the ints of the arguments
    its form selects into its own constant."""
    forms: dict[TruthTable, tuple[int, tuple[int, ...]]] = {}
    values = [1 << j for j in gl.inputs]
    for f, args in gl.gates:
        form = forms.get(f)
        if form is None:
            lin = affine_form_of(f)
            if lin is None:
                raise WrongClass(f"gate table {tt_print(f)} is not affine")
            form = forms[f] = (lin.c, tuple(i - 1 for i in lin.support))
        v, picks = form
        for i in picks:
            v ^= values[args[i]]
        values.append(v)
    v = values[gl.output]
    return LinearForm(frozenset(j for j in range(1, v.bit_length()) if v >> j & 1), v & 1)
