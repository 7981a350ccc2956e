"""Uniform evaluation and truth-table extraction for every object kind.

Every kind is, or lowers once in `lower` to, the hash-consed gate list
of circuits.py.  Formula, circuit and quantified-formula text parse
straight into gates, and so do the reductions; a CNF lowers through its
not/and/or rendering, a truth table to one gate over x_1..x_k, and the
quantified formula a reduction returns to its matrix with the prefix
kept beside it.  Lowering a gate list returns it unchanged.

`evaluate` and `truth_table_of` share one loop over the gates
(circuits.tabulate), in which every node carries a bit mask.  For a
table, bit i is row i, so a variable is a periodic 2^n-bit pattern; for
a batch of points, bit i is point i.  Each gate combines its arguments'
masks with a handful of bigint operations, instead of 2^n walks or one
walk per point.  The gates carry their tables, so the `base` argument
of `evaluate` and `truth_table_of` is not read.

Only the gate layer loads with this module: the CNF and quantified-formula
layers load when an object of their kind comes in.
"""

from __future__ import annotations

from .circuits import GateList, lane_mask, tabulate
from .errors import MissingVariable, UsageError, charge
from .truthtable import TruthTable, var_mask

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .clones import BaseSet


def lower(obj) -> GateList:
    """The object as a gate list."""
    if isinstance(obj, GateList):
        return obj
    if isinstance(obj, TruthTable):  # one gate over x_1..x_k
        return GateList(tuple(range(1, obj.n + 1)), ((obj, tuple(range(obj.n))),), obj.n, obj.n)
    # an object of a kind below exists only once its module is loaded
    from .cnf import CnfFormula, cnf_to_formula

    if isinstance(obj, CnfFormula):
        return cnf_to_formula(obj)
    from .qbf import QuantifiedFormula, with_prefix

    if isinstance(obj, QuantifiedFormula):
        return with_prefix(obj.matrix, obj.prefix)
    raise UsageError(f"cannot lower {type(obj).__name__}")


def evaluate(obj, base: BaseSet, a) -> int:
    """Value of the object under assignment a (free variables for QBF).

    Given a list of assignments, the mask whose bit i is the value under
    a[i]: each assignment is one lane of a single tabulate pass, so a
    whole witness path is checked in one call."""
    points = a if isinstance(a, list) else [a]
    gl = lower(obj)
    if gl.prefix is not None:
        from .qbf import quantified_value

        return quantified_value(gl, points)
    for p in points:
        if gl.dim > (0 if p is None else p.n):
            raise MissingVariable(f"assignment has no value for x{gl.dim}")
    return tabulate(gl, [lane_mask(points, j) for j in gl.inputs], len(points))


def min_dimension(obj) -> int:
    """Smallest ambient dimension: the largest referenced variable index.

    For quantified formulas, the count of free variables instead.
    """
    return lower(obj).dim


def truth_table_of(obj, base: BaseSet, n: int) -> TruthTable:
    """Exact table of the object over x_1..x_n (fictive variables allowed)."""
    if n < 0:
        raise UsageError("dimension must be >= 0")
    charge("table variables", n)
    if isinstance(obj, TruthTable) and obj.n == n:
        return obj
    gl = lower(obj)
    if gl.prefix is not None:
        from .qbf import quantified_table

        return quantified_table(gl, n)
    if gl.dim > n:
        raise MissingVariable(f"x{gl.dim} exceeds dimension {n}")
    return TruthTable(n, tabulate(gl, [var_mask(n, j) for j in gl.inputs], 1 << n))
