"""DIMACS CNF parsing, and rendering as gates over the standard connectives.

Reading stops at a line that is exactly `%`, the trailer SATLIB's
uf*/uuf* files end with (`%` then `0`); whatever follows it is ignored.
"""

from __future__ import annotations

from .circuits import GateBuilder, GateList
from .clones import STANDARD_BASE
from .errors import EmptyClause, HeaderMismatch, LiteralOutOfRange
from .truthtable import Record, _lines, _set, replace


class CnfFormula(Record):
    __slots__ = ("n", "clauses")

    def __init__(self, n: int, clauses: tuple[tuple[int, ...], ...]):
        _set(self, "n", n)
        _set(self, "clauses", clauses)

    @property
    def is_three_cnf(self) -> bool:
        return all(len(c) <= 3 for c in self.clauses)

    def is_one_reproducing(self) -> bool:
        """All-ones satisfies, i.e. every clause has a positive literal."""
        return all(any(lit > 0 for lit in c) for c in self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    n = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in _lines(text):
        line = raw.strip()
        if line == "%":
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if n is not None or len(parts) != 4 or parts[1] != "cnf":
                raise HeaderMismatch(f"line {lineno}: bad problem line {line!r}")
            try:
                n = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise HeaderMismatch(f"line {lineno}: bad counts in {line!r}") from None
            if n < 1:
                raise HeaderMismatch(f"line {lineno}: need at least one variable")
            continue
        if n is None:
            raise HeaderMismatch(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise LiteralOutOfRange(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                if not pending:
                    raise EmptyClause(f"line {lineno}: empty clause")
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > n:
                    raise LiteralOutOfRange(f"line {lineno}: literal {lit} exceeds {n} vars")
                pending.append(lit)
    if n is None:
        raise HeaderMismatch("no problem line")
    if pending:
        clauses.append(tuple(pending))
    if declared != len(clauses):
        raise HeaderMismatch(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def print_dimacs(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def cnf_to_formula(cnf: CnfFormula) -> GateList:
    """The balanced and/or/not rendering as a gate list over the standard
    base, declaring all n variables.  Each clause folds its literals with
    or, and the clauses fold with and, split at the middle; the last
    argument of each gate is built first.  An empty clause list renders
    as the tautology x1 or not(x1)."""
    b = GateBuilder(STANDARD_BASE, tuple(sorted({abs(lit) for c in cnf.clauses for lit in c} or {1})))

    def literal(lit: int) -> int:
        return b.node[lit] if lit > 0 else b.app("not", (b.node[-lit],))

    def fold(name: str, parts: list, leaf) -> int:
        if len(parts) == 1:
            return leaf(parts[0])
        mid = len(parts) // 2
        right = fold(name, parts[mid:], leaf)
        return b.app(name, (fold(name, parts[:mid], leaf), right))

    if not cnf.clauses:
        return replace(b.finish(b.app("or", (0, b.app("not", (0,))))), dim=cnf.n)
    out = fold("and", cnf.clauses, lambda clause: fold("or", clause, literal))
    return replace(b.finish(out), dim=cnf.n)
