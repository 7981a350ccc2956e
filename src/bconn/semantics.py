"""Uniform evaluation and truth-table extraction for every object kind.

Every kind lowers once, in `lower`, to the hash-consed gate list of
circuits.py: formulas by an explicit-stack walk, CNFs through their
not/and/or rendering, a truth table as one gate over x_1..x_k, and a
quantified formula as its lowered matrix with the prefix kept beside it.
Circuit text, and in the CLI formula and quantified-formula text, parses
straight into gates.  Lowering a gate list returns it unchanged.

`evaluate` is the one point evaluator, for every kind: one loop over the
gates.  Tables come from one loop of whole-table bit masks: a variable
is a periodic 2^n-bit pattern and a gate ORs the row sets on which its
function is 1, so extraction is a handful of bigint operations per node
instead of 2^n walks.

Only the gate layer loads with this module: the formula, CNF and
quantified-formula layers load when an object of their kind comes in.
"""

from __future__ import annotations

from collections import defaultdict

from .circuits import GateList, point_value, tabulate
from .errors import BudgetExceeded, MissingVariable, UsageError
from .truthtable import DEFAULT_ENUM_BUDGET, BitVector, TruthTable, var_mask

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .clones import BaseSet


def lower(obj, base: BaseSet) -> GateList:
    """The object as a gate list over the base's tables."""
    if isinstance(obj, GateList):
        return obj
    if isinstance(obj, TruthTable):  # one gate over x_1..x_k
        return GateList(tuple(range(1, obj.n + 1)), ((obj, tuple(range(obj.n))),), obj.n, obj.n)
    # an object of a kind below exists only once its module is loaded
    from .formulas import Apply, Var, lower_formula

    if isinstance(obj, (Var, Apply)):
        return lower_formula(obj, base)
    from .cnf import CnfFormula, lower_cnf

    if isinstance(obj, CnfFormula):
        return lower_cnf(obj)
    from .qbf import QuantifiedFormula, lower_qbf

    if isinstance(obj, QuantifiedFormula):
        return lower_qbf(obj, base)
    raise UsageError(f"cannot lower {type(obj).__name__}")


def evaluate(obj, base: BaseSet, a: BitVector) -> int:
    """Value of the object under assignment a (free variables for QBF)."""
    gl = lower(obj, base)
    if gl.prefix is None:
        return point_value(gl, a)
    from .qbf import quantified_value

    return quantified_value(gl, a)


def min_dimension(obj) -> int:
    """Smallest ambient dimension: the largest referenced variable index.

    For quantified formulas, the count of free variables instead.  It does
    not depend on what the gates compute, so any table stands in for each.
    """
    return lower(obj, defaultdict(lambda: TruthTable(0, 0))).dim


def truth_table_of(
    obj, base: BaseSet, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> TruthTable:
    """Exact table of the object over x_1..x_n (fictive variables allowed)."""
    if n < 0:
        raise UsageError("dimension must be >= 0")
    if n > budget:
        raise BudgetExceeded(f"dimension {n} exceeds budget {budget}")
    gl = lower(obj, base)
    if gl.prefix is not None:
        from .qbf import quantified_table

        return quantified_table(gl, n, budget)
    if gl.dim > n:
        raise MissingVariable(f"x{gl.dim} exceeds dimension {n}")
    return TruthTable(n, tabulate(gl, [var_mask(n, j) for j in gl.inputs], n))
