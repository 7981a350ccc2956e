"""Function properties that define the closed classes of Boolean functions.

Predicates here are exact over the full truth table.  Degree-bounded
separation is computed via a minimum-cover argument instead of subset
enumeration: for c and a in f^-1(c), let coZ(a) be the set of coordinates
where a_i != c.  A size-m subset of f^-1(c) shares a common c-coordinate
iff the union of its coZ sets is not all of {1..n}, so separation of
degree m holds exactly when no m coZ sets cover {1..n}.  The largest
degree at which separation holds is therefore (minimum cover size) - 1,
and separation at every degree is equivalent to no cover existing.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_

from .errors import BudgetExceeded, DegreeBoundTooSmall
from .truthtable import LinearForm, Record, TruthTable, _set, dual, mask_rows, var_mask

# sep_degree sentinel: separation holds at every finite degree
ALL = "ALL"

DEFAULT_DEGREE_BOUND = 8

_COVER_STATE_CAP = 1 << 22


def is_reproducing(f: TruthTable, c: int) -> bool:
    """f(c,..,c) = c."""
    row = 0 if c == 0 else f.size - 1
    return f.value(row) == c


def is_monotone(f: TruthTable) -> bool:
    full = (1 << f.size) - 1
    for j in range(1, f.n + 1):
        m = var_mask(f.n, j)
        stride = 1 << (f.n - j)
        low = f.bits & (full ^ m)
        if (low << stride) & (full ^ f.bits):
            return False
    return True


def is_self_dual(f: TruthTable) -> bool:
    return f == dual(f)


def affine_form_of(f: TruthTable) -> LinearForm | None:
    """The linear form equal to f, or None if f is not affine."""
    c = f.value(0)
    support = frozenset(j for j in range(1, f.n + 1) if f.value(1 << (f.n - j)) != c)
    form = LinearForm(support, c)
    return form if form.truth_table(f.n) == f else None


def is_affine(f: TruthTable) -> bool:
    return affine_form_of(f) is not None


def essential_variables(f: TruthTable) -> list[int]:
    """Indices the function actually depends on, ascending."""
    full = (1 << f.size) - 1
    out = []
    for j in range(1, f.n + 1):
        m = var_mask(f.n, j)
        stride = 1 << (f.n - j)
        if ((f.bits >> stride) ^ f.bits) & (full ^ m):
            out.append(j)
    return out


def is_conjunction_like(f: TruthTable) -> bool:
    """f is a constant or a conjunction of (unnegated) variables."""
    if f.bits == 0:
        return True
    lead = reduce(and_, f.one_rows())
    return all(f.value(i) == (1 if (i & lead) == lead else 0) for i in range(f.size))


def is_disjunction_like(f: TruthTable) -> bool:
    """f is a constant or a disjunction of (unnegated) variables."""
    return is_conjunction_like(dual(f))


def is_essentially_unary(f: TruthTable) -> bool:
    return len(essential_variables(f)) <= 1


def is_projection_or_constant(f: TruthTable) -> bool:
    full = (1 << f.size) - 1
    if f.bits == 0 or f.bits == full:
        return True
    return any(f.bits == var_mask(f.n, j) for j in range(1, f.n + 1))


def _inverse_rows(f: TruthTable, c: int) -> int:
    full = (1 << f.size) - 1
    return f.bits if c == 1 else (full ^ f.bits)


def separating_coordinate(f: TruthTable, c: int) -> int | None:
    """Smallest i with a_i = c for all a in f^-1(c), or None.

    An empty f^-1(c) gives the vacuous witness 1 so callers that build
    detour paths always receive a usable coordinate.
    """
    rows = _inverse_rows(f, c)
    if rows == 0:
        return 1
    for j in range(1, f.n + 1):
        m = var_mask(f.n, j)
        bad = (rows & m) if c == 0 else (rows & ~m)
        if bad == 0:
            return j
    return None


def is_separating(f: TruthTable, c: int) -> bool:
    return separating_coordinate(f, c) is not None


def _min_cover_size(masks: set[int], universe: int) -> int | None:
    """Minimum number of masks whose union is universe; None if impossible."""
    if universe == 0:
        return 0
    if reduce(or_, masks, 0) != universe:
        return None
    pool = sorted(masks, key=lambda m: -m.bit_count())
    maximal = []
    for m in pool:
        if m and not any(m | o == o for o in maximal):
            maximal.append(m)
    frontier = {0}
    seen = {0}
    size = 0
    while True:
        size += 1
        nxt = set()
        for cov in frontier:
            for m in maximal:
                c2 = cov | m
                if c2 == universe:
                    return size
                if c2 not in seen:
                    seen.add(c2)
                    nxt.add(c2)
        if len(seen) > _COVER_STATE_CAP:
            raise BudgetExceeded("coordinate-cover search too large")
        if not nxt:
            # unreachable: the full union covers, so BFS must terminate
            raise AssertionError("cover search stalled")
        frontier = nxt


def max_separation_degree(f: TruthTable, c: int) -> int | str:
    """Largest m with f c-separating of degree m: an int >= 0 or ALL.

    Degree-m separation is downward closed, so the single number (or ALL)
    describes every degree.  Values 0 and 1 mean degree 2 already fails.
    """
    rows = _inverse_rows(f, c)
    if rows == 0:
        return ALL
    universe = (1 << f.n) - 1
    masks = {r if c == 0 else universe ^ r for r in mask_rows(rows)}
    kappa = _min_cover_size(masks, universe)
    if kappa is None:
        return ALL
    # the subsets in the definition are nonempty, so the empty cover at
    # arity 0 still means degree-1 separation already fails
    return max(kappa, 1) - 1


class PropertyReport(Record):
    """Exact per-function property flags driving classification.  Every
    field is a bool but linear_form (LinearForm | None) and the separation
    degrees (int | ALL | None)."""

    __slots__ = (
        "reproducing0", "reproducing1", "monotone", "self_dual", "affine", "linear_form",
        "separating0", "separating1", "sep_degree0", "sep_degree1", "conjunction_like",
        "disjunction_like", "essentially_unary", "projection_or_constant",
    )

    def __init__(self, **fields):  # every field, by name
        for f in self._fields:
            _set(self, f, fields[f])

    def separating_of_degree(self, c: int, m: int) -> bool:
        d = self.sep_degree0 if c == 0 else self.sep_degree1
        if d == ALL:
            return True
        return d is not None and isinstance(d, int) and d >= m


def _degree_field(f: TruthTable, c: int, m_max: int) -> int | str | None:
    d = max_separation_degree(f, c)
    if d == ALL:
        return ALL
    if d < 2:
        return None
    return min(d, m_max)


@lru_cache(maxsize=1024)
def property_report(f: TruthTable, degree_bound: int = DEFAULT_DEGREE_BOUND) -> PropertyReport:
    """The report of one table, computed once per (table, degree bound):
    classify asks for each base table in clone_identify and both dispatches."""
    if degree_bound < 2:
        raise DegreeBoundTooSmall(f"degree bound {degree_bound} < 2")
    form = affine_form_of(f)
    return PropertyReport(
        reproducing0=is_reproducing(f, 0),
        reproducing1=is_reproducing(f, 1),
        monotone=is_monotone(f),
        self_dual=is_self_dual(f),
        affine=form is not None,
        linear_form=form,
        separating0=is_separating(f, 0),
        separating1=is_separating(f, 1),
        sep_degree0=_degree_field(f, 0, degree_bound),
        sep_degree1=_degree_field(f, 1, degree_bound),
        conjunction_like=is_conjunction_like(f),
        disjunction_like=is_disjunction_like(f),
        essentially_unary=is_essentially_unary(f),
        projection_or_constant=is_projection_or_constant(f),
    )
