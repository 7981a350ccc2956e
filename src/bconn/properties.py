"""Function properties that define the closed classes of Boolean functions.

Predicates here are exact over the full truth table.  Degree-bounded
separation is computed via a minimum-cover argument instead of subset
enumeration: for c and a in f^-1(c), let coZ(a) be the set of coordinates
where a_i != c.  A size-m subset of f^-1(c) shares a common c-coordinate
iff the union of its coZ sets is not all of {1..n}, so separation of
degree m holds exactly when no m coZ sets cover {1..n}.  The largest
degree at which separation holds is therefore (minimum cover size) - 1,
and separation at every degree is equivalent to no cover existing.

The cover search runs on the subset lattice of the n coordinates, one
2^n-bit int per family of sets, so it costs shifts and ANDs of whole
families rather than scans over pairs of sets (Knuth, TAOCP 4A, 7.1.3).
The coZ family is f's c-rows as they stand for c = 0, reversed for
c = 1.  Its maximal sets come from a down-closure in 2n shift/AND
steps, and the breadth-first search over unions keeps its frontier as
one lattice int."""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_

from .errors import DegreeBoundTooSmall, charge
from .truthtable import LinearForm, Record, TruthTable, _set, dual, mask_rows, var_mask

# sep_degree sentinel: separation holds at every finite degree
ALL = "ALL"

DEFAULT_DEGREE_BOUND = 8


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


def _join(a: int, b: int, masks: list[int]) -> int:
    """{x | y : x in a, y in b} on the subset lattice.  Each element x of
    the sparser side projects x's coordinates out of the other side (the
    points with coordinate i move down by 2^i onto those without it), and
    the projection, disjoint from x, shifts up by x."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for x in mask_rows(a):
        y = b
        for i, m in enumerate(masks):
            if x >> i & 1:
                y = (y & ~m) | ((y & m) >> (1 << i))
        out |= y << x
    return out


def _min_cover_size(present: int, n: int) -> int | None:
    """Fewest sets of the family whose union is all n coordinates; None if
    the whole family does not cover them.

    The family is a subset-lattice int: bit s stands for the coordinate
    set s (bit i of s for coordinate i).  Only maximal sets matter, and
    they are present & ~down(strictly_below(present)).  The breadth-first
    search keeps its frontier and the unions seen as lattice ints too, and
    each level joins the frontier with the maximal sets.
    """
    universe = (1 << n) - 1
    if universe == 0:
        return 0
    masks = [var_mask(n, n - i) for i in range(n)]  # lattice points holding coordinate i
    covered = below = 0
    for i, m in enumerate(masks):
        if present & m:
            covered |= 1 << i
        below |= (present & m) >> (1 << i)
    if covered != universe:
        return None
    for i, m in enumerate(masks):
        below |= (below & m) >> (1 << i)
    maximal = present & ~below
    frontier = seen = 1  # the empty union
    size = 0
    while True:
        size += 1
        reach = _join(frontier, maximal, masks)
        if reach >> universe:
            return size
        frontier = reach & ~seen
        seen |= frontier
        charge("cover states", seen.bit_count())
        if not frontier:
            # unreachable: the full union covers, so BFS must terminate
            raise AssertionError("cover search stalled")


def max_separation_degree(f: TruthTable, c: int) -> int | str:
    """Largest m with f c-separating of degree m: an int >= 0 or ALL.

    Degree-m separation is downward closed, so the single number (or ALL)
    describes every degree.  Values 0 and 1 mean degree 2 already fails.
    """
    rows = _inverse_rows(f, c)
    if rows == 0:
        return ALL
    # row r's co-c set is r itself for c = 0 and its complement for c = 1,
    # which reverses the rows
    present = rows if c == 0 else int(format(rows, f"0{f.size}b")[::-1], 2)
    kappa = _min_cover_size(present, f.n)
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
