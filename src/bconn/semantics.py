"""Uniform evaluation and truth-table extraction for every object kind.

Every kind is, or lowers once in `lower` to, the hash-consed gate list
of circuits.py.  Formula, circuit and quantified-formula text parse
straight into gates, and so do the reductions; a CNF lowers through its
not/and/or rendering, a truth table to one gate over x_1..x_k, and the
quantified formula a reduction returns to its matrix with the prefix
kept beside it.  Lowering a gate list returns it unchanged.

`evaluate` is the one point evaluator, for every kind: one loop over the
gates.  Tables come from one loop of whole-table bit masks: a variable
is a periodic 2^n-bit pattern and a gate ORs the row sets on which its
function is 1, so extraction is a handful of bigint operations per node
instead of 2^n walks.  The gates carry their tables, so the `base`
argument of `evaluate` and `truth_table_of` is not read.

Only the gate layer loads with this module: the CNF and quantified-formula
layers load when an object of their kind comes in.
"""

from __future__ import annotations

from .circuits import GateList, point_value, tabulate
from .errors import BudgetExceeded, MissingVariable, UsageError
from .truthtable import DEFAULT_ENUM_BUDGET, BitVector, TruthTable, var_mask

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


def evaluate(obj, base: BaseSet, a: BitVector) -> int:
    """Value of the object under assignment a (free variables for QBF)."""
    gl = lower(obj)
    if gl.prefix is None:
        return point_value(gl, a)
    from .qbf import quantified_value

    return quantified_value(gl, a)


def min_dimension(obj) -> int:
    """Smallest ambient dimension: the largest referenced variable index.

    For quantified formulas, the count of free variables instead.
    """
    return lower(obj).dim


def truth_table_of(
    obj, base: BaseSet, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> TruthTable:
    """Exact table of the object over x_1..x_n (fictive variables allowed)."""
    if n < 0:
        raise UsageError("dimension must be >= 0")
    if n > budget:
        raise BudgetExceeded(f"dimension {n} exceeds budget {budget}")
    gl = lower(obj)
    if gl.prefix is not None:
        from .qbf import quantified_table

        return quantified_table(gl, n, budget)
    if gl.dim > n:
        raise MissingVariable(f"x{gl.dim} exceeds dimension {n}")
    return TruthTable(n, tabulate(gl, [var_mask(n, j) for j in gl.inputs], n))
