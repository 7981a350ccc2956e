"""Quantified formulas: prefix syntax, free variables, evaluation.

Concrete syntax puts the prefix before a ':', e.g.

    A x3 E x4 : and(x1,or(x3,x4))

All variables share the xN namespace; a variable is bound iff it appears
in the prefix.  The solution graph ranges over the free variables taken
in index order.  A quantified formula is its matrix's gate list with the
prefix kept beside it (GateList.prefix), as parse_qbf reads it and as
with_prefix puts a matrix under a prefix; the S02Q transform returns one
too.
"""

from __future__ import annotations

from .circuits import GateList, is_var, lane_mask, tabulate
from .clones import BaseSet
from .errors import FormulaSyntaxError, UsageError, charge
from .formulas import _write_formula, parse_formula
from .truthtable import TruthTable, var_mask

_LANE_ROWS = 1 << 12  # rows one batched evaluation tabulates at most

EXISTS = "E"
FORALL = "A"


def _check_prefix(prefix: tuple[tuple[str, int], ...]):
    seen = set()
    for q, j in prefix:
        if q not in (EXISTS, FORALL):
            raise UsageError(f"bad quantifier {q!r}")
        if j in seen:
            raise UsageError(f"x{j} quantified twice")
        seen.add(j)


class QuantifiedFormula(GateList):
    """The class of with_prefix's gate lists; its `matrix` is the same
    gates without the prefix.  The package reads neither: the name stays
    for bench/selftest.py, which unwraps an S02Q transform through it."""

    @property
    def matrix(self) -> GateList:
        return GateList(self.inputs, self.gates, self.output, max(self.inputs, default=0))


def parse_qbf(text: str, base: BaseSet) -> GateList:
    """The matrix parsed straight into a gate list that carries the prefix."""
    head, sep, body = text.partition(":")
    if not sep:
        head, body = "", text
    prefix = []
    toks = head.split()
    if len(toks) % 2 != 0:
        raise FormulaSyntaxError("prefix must be quantifier/variable pairs")
    for q, v in zip(toks[::2], toks[1::2]):
        if q not in (EXISTS, FORALL):
            raise FormulaSyntaxError(f"bad quantifier {q!r}")
        if not is_var(v):
            raise FormulaSyntaxError(f"bad quantified variable {v!r}")
        prefix.append((q, int(v[1:])))
    return with_prefix(parse_formula(body, base), tuple(prefix))


def print_qbf(q: GateList, base: BaseSet, write) -> None:
    """Write the prefix, then the matrix as print_formula writes it; a
    refused matrix writes nothing."""
    head = " ".join(f"{quant} x{j}" for quant, j in q.prefix or ())
    _write_formula(q, base, write, head and head + " : ")


def with_prefix(m: GateList, prefix: tuple[tuple[str, int], ...]) -> GateList:
    """The matrix's gates under the prefix; dim counts the free variables."""
    _check_prefix(prefix)
    bound = {j for _, j in prefix}
    return QuantifiedFormula(m.inputs, m.gates, m.output, len(set(m.inputs) - bound), prefix)


def _quantified_mask(q: GateList, m: int, free: dict[int, int]) -> int:
    """Mask over m coordinates: bound variable prefix[i] is coordinate i + 1
    (the most significant), free variable j has the mask free[j].  The
    matrix is tabulated and the quantifiers folded out innermost first.
    Points and tables both put what the free variables range over in the
    low coordinates, so the answer is the lowest rows."""
    coord = {j: i for i, (_, j) in enumerate(q.prefix, start=1)}
    leaves = [var_mask(m, coord[j]) if j in coord else free[j] for j in q.inputs]
    mask = tabulate(q, leaves, 1 << m)
    full = (1 << (1 << m)) - 1
    for quant, j in reversed(q.prefix):
        vm = var_mask(m, coord[j])
        stride = 1 << (m - coord[j])
        c0 = mask & (full ^ vm)
        c1 = (mask & vm) >> stride
        half = (c0 | c1) if quant == EXISTS else (c0 & c1)
        mask = half | (half << stride)
    return mask


def quantified_value(q: GateList, points: list) -> int:
    """Values of a lowered quantified formula under free-variable
    assignments (None when it has no free variables): bit i of the mask
    is its value under points[i].

    A chunk of up to 2^w points is w low coordinates below the b bound
    ones, and a free variable's mask is its lane pattern (circuits.lane_mask)
    tiled under every bound assignment.  A chunk spans at most _LANE_ROWS
    rows, or 2^b when the prefix alone passes that: one point at a time."""
    b = len(q.prefix)
    charge("bound variables", b)
    free = q.free_vars()
    for a in points:
        if free and (a is None or a.n != len(free)):
            raise UsageError(
                f"need {len(free)} free-variable bits, got {0 if a is None else a.n}"
            )
    per = max(1, _LANE_ROWS >> b)
    out = 0
    for lo in range(0, len(points), per):
        chunk = points[lo:lo + per]
        w = (len(chunk) - 1).bit_length()
        tile = ((1 << (1 << (b + w))) - 1) // ((1 << (1 << w)) - 1)
        masks = {j: lane_mask(chunk, p) * tile for p, j in enumerate(free, start=1)}
        out |= (_quantified_mask(q, b + w, masks) & ((1 << len(chunk)) - 1)) << lo
    return out


def quantified_table(q: GateList, n: int) -> TruthTable:
    """Table of a lowered quantified formula over its n free variables."""
    free = q.free_vars()
    if n != len(free):
        raise UsageError(
            f"quantified formula has {len(free)} free variables, dimension {n} requested"
        )
    m = len(q.prefix) + n
    charge("table variables", m)
    b = len(q.prefix)
    masks = {j: var_mask(m, b + p) for p, j in enumerate(free, start=1)}
    return TruthTable(n, _quantified_mask(q, m, masks) & ((1 << (1 << n)) - 1))
