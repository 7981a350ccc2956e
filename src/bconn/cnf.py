"""DIMACS CNF parsing and rendering into the standard connectives.

Reading stops at a line that is exactly `%`, the trailer SATLIB's
uf*/uuf* files end with (`%` then `0`); whatever follows it is ignored.
"""

from __future__ import annotations

from .circuits import GateList
from .clones import STANDARD_BASE
from .errors import EmptyClause, HeaderMismatch, LiteralOutOfRange
from .formulas import Apply, FormulaAst, Var, lower_formula
from .truthtable import Record, _set, replace


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _literal_ast(lit: int) -> FormulaAst:
    v = Var(abs(lit))
    return v if lit > 0 else Apply("not", (v,))


def _fold(name: str, parts: list[FormulaAst]) -> FormulaAst:
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Apply(name, (_fold(name, parts[:mid]), _fold(name, parts[mid:])))


def cnf_to_formula(cnf: CnfFormula) -> FormulaAst:
    """Balanced and/or/not rendering over the standard base.

    An empty clause list renders as the tautology x1 or not(x1).
    """
    if not cnf.clauses:
        return Apply("or", (Var(1), Apply("not", (Var(1),))))
    clause_asts = [
        _fold("or", [_literal_ast(lit) for lit in clause]) for clause in cnf.clauses
    ]
    return _fold("and", clause_asts)


def lower_cnf(cnf: CnfFormula) -> GateList:
    """The not/and/or rendering as a gate list, declaring all n variables."""
    return replace(lower_formula(cnf_to_formula(cnf), STANDARD_BASE), dim=cnf.n)
