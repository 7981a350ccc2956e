"""Polynomial connectivity algorithms for the tractable base classes.

Monotone bases have connected solution graphs with geodesic witness
paths; 0-separating bases connect any two solutions by a detour through
assignments with one coordinate pinned to 1; affine bases reduce to the
GF(2) form of the composite function, where connectivity is a question
about the non-fictive support.  Quantified formulas stay tractable for
the monotone and affine cases only.
"""

from __future__ import annotations

from .circuits import GateList, linear_form
from .clones import BaseSet
from .errors import (
    LIMITS,
    NonAffineBaseFunction,
    NotASolution,
    UsageError,
    WrongClass,
)
from .properties import (
    is_affine,
    is_monotone,
    is_separating,
    separating_coordinate,
)
from .qbf import EXISTS
from .semantics import evaluate, lower, truth_table_of
from .truthtable import BitVector, LinearForm, Record, _set


class EasyAnswer(Record):
    """Connectivity verdicts plus an optional eval-verified witness path."""

    __slots__ = ("connected", "st_connected", "witness_path", "rationale")

    def __init__(
        self,
        connected: bool,
        st_connected: bool | None,
        witness_path: list[BitVector] | None,
        rationale: str,
    ):
        _set(self, "connected", connected)
        _set(self, "st_connected", st_connected)
        _set(self, "witness_path", witness_path)
        _set(self, "rationale", rationale)


def _first_miss(obj, base: BaseSet, points: list[BitVector]) -> BitVector | None:
    """The first point that is not a solution, all checked in one call."""
    misses = ~evaluate(obj, base, points) & ((1 << len(points)) - 1)
    return points[(misses & -misses).bit_length() - 1] if misses else None


def _check_pair(obj, base: BaseSet, s: BitVector | None, t: BitVector | None):
    if (s is None) != (t is None):
        raise UsageError("s and t must be given together")
    if s is None:
        return
    if s.n != t.n:
        raise UsageError("s and t must have the same dimension")
    v = _first_miss(obj, base, [s, t])
    if v is not None:
        raise NotASolution(f"{v.text} is not a solution")


def _verify_path(obj, base: BaseSet, path: list[BitVector]):
    for a, b in zip(path, path[1:]):
        if a.hamming(b) != 1:
            raise AssertionError("witness step is not a single flip")
    v = _first_miss(obj, base, path)
    if v is not None:
        raise AssertionError(f"witness vertex {v.text} is not a solution")


def _walk(path: list[BitVector], t: BitVector, order) -> list[BitVector]:
    """Extend the path from its last vertex toward t, setting each
    coordinate that still differs from t in the given order."""
    cur = path[-1]
    for j in order:
        if cur.bit(j) != t.bit(j):
            cur = cur.with_bit(j, t.bit(j))
            path.append(cur)
    return path


def _zeros_first(s: BitVector):
    return sorted(range(1, s.n + 1), key=s.bit)


def _ascending(s: BitVector):
    return range(1, s.n + 1)


def _witnessed(
    obj, base: BaseSet, connected: bool, s, t, order, rationale: str
) -> EasyAnswer:
    """The verdict, plus (given s and t) the eval-verified walk from s to t
    in the coordinate order order(s)."""
    if s is None:
        return EasyAnswer(connected, None, None, rationale)
    path = _walk([s], t, order(s))
    _verify_path(obj, base, path)
    return EasyAnswer(connected, True, path, rationale)


def monotone_decide(
    obj, base: BaseSet, s: BitVector | None = None, t: BitVector | None = None
) -> EasyAnswer:
    """Connectivity for bases of monotone functions.

    The composite function is monotone, so the solution graph is
    connected and s reaches t in exactly Hamming(s, t) steps by flipping
    the 0-to-1 differences first (staying below s OR t) and the 1-to-0
    differences after (staying above t).
    """
    if not all(is_monotone(f) for f in base.tables):
        raise WrongClass("base contains a non-monotone function")
    obj = lower(obj)
    _check_pair(obj, base, s, t)
    rationale = (
        "monotone base: the solution graph is connected; witness flips "
        "0-to-1 differences before 1-to-0 differences"
    )
    return _witnessed(obj, base, True, s, t, _zeros_first, rationale)


def _syntactic_coordinate(gl: GateList) -> int | None:
    """A separating coordinate read off the output node, if any.

    When the output is a variable, or its function is 0-separating in its
    i-th argument and that argument is a variable x_j, setting x_j = 1
    forces the output to 1 regardless of the rest of the object.
    """
    if gl.prefix is not None:
        return None
    k = len(gl.inputs)
    if gl.output < k:
        return gl.inputs[gl.output]
    f, args = gl.gates[gl.output - k]
    i = separating_coordinate(f, 0)
    if i is not None and f.n >= 1 and args[i - 1] < k:
        return gl.inputs[args[i - 1]]
    return None


def zerosep_decide(
    obj,
    base: BaseSet,
    n: int,
    s: BitVector | None = None,
    t: BitVector | None = None,
) -> EasyAnswer:
    """Connectivity for bases of 0-separating functions.

    The composite function is 0-separating: some coordinate i has every
    non-solution assigning x_i = 0, so every assignment with x_i = 1
    satisfies it.  Any two solutions connect in at most Hamming + 2
    steps: set x_i if needed, flip the other differences, reset x_i if
    needed.  Locating i may need a semantic scan; when n exceeds
    LIMITS["search variables"] and no syntactic coordinate is visible, the
    verdicts are still returned and only the path is withheld.
    """
    if not all(is_separating(f, 0) for f in base.tables):
        raise WrongClass("base contains a function that is not 0-separating")
    obj = lower(obj)
    _check_pair(obj, base, s, t)
    rationale = (
        "0-separating base: the solution graph is connected; solutions "
        "meet through assignments with the pinning coordinate set to 1"
    )
    if s is None:
        return EasyAnswer(True, None, None, rationale)
    if s.n != n or t.n != n:
        raise UsageError(f"endpoints must have dimension {n}")
    if s.word == t.word:
        return EasyAnswer(True, True, [s], rationale)
    i = _syntactic_coordinate(obj)
    if i is not None and i > n:
        i = None
    limit = LIMITS["search variables"]
    if i is None and n <= limit:
        i = separating_coordinate(truth_table_of(obj, base, n), 0)
        if i is None:
            raise AssertionError("0-separating composite lacks a pinning coordinate")
    if i is None:
        return EasyAnswer(
            True,
            True,
            None,
            rationale + " (witness path withheld: coordinate search over "
            f"{n} variables exceeds budget {limit})",
        )
    # set x_i, flip the other differences, then move x_i to t's value
    detour = [j for j in range(1, n + 1) if j != i] + [i]
    path = _walk(_walk([s], s.with_bit(i, 1), [i]), t, detour)
    _verify_path(obj, base, path)
    return EasyAnswer(True, True, path, rationale)


def linear_form_of(obj, base: BaseSet) -> LinearForm:
    """GF(2) form of a composite over an affine base.

    Forward propagation over the lowered gate list (circuits.linear_form):
    each node carries one int, its support as bits j for x_j and its
    constant as bit 0, and an affine gate XORs the ints of the arguments
    its form selects into its own constant.  The result equals the parity
    of backward paths from the output to each input.
    """
    for name, f in base:
        if not is_affine(f):
            raise NonAffineBaseFunction(f"base function {name} is not affine")
    gl = lower(obj)
    if gl.prefix is not None:
        raise UsageError("no linear form for a quantified formula")
    return linear_form(gl)


def _linear_verdict(
    obj,
    base: BaseSet,
    support: frozenset[int],
    s: BitVector | None,
    t: BitVector | None,
    rationale: str,
) -> EasyAnswer:
    connected = len(support) <= 1
    if s is not None and any(s.bit(j) != t.bit(j) for j in support):
        return EasyAnswer(connected, False, None, rationale)
    return _witnessed(obj, base, connected, s, t, _ascending, rationale)


def linear_decide(
    obj, base: BaseSet, s: BitVector | None = None, t: BitVector | None = None
) -> EasyAnswer:
    """Connectivity for bases of affine functions.

    The composite equals x_{i1} xor .. xor x_{im} xor c.  Its solution
    graph is connected iff m <= 1 (the unsatisfiable constant-0 case is
    connected by convention), and two solutions are connected iff they
    agree on the support, with fictive flips as a witness path.
    """
    if not all(is_affine(f) for f in base.tables):
        raise WrongClass("base contains a non-affine function")
    obj = lower(obj)
    if obj.prefix is not None:
        raise UsageError("use qbf_easy_decide for quantified formulas")
    _check_pair(obj, base, s, t)
    form = linear_form_of(obj, base)
    rationale = (
        f"affine base: GF(2) form is {form}; connected iff at most one "
        "non-fictive variable; solutions connect iff they agree on the support"
    )
    return _linear_verdict(obj, base, form.support, s, t, rationale)


def qbf_easy_decide(
    q: GateList,
    base: BaseSet,
    s: BitVector | None = None,
    t: BitVector | None = None,
) -> EasyAnswer:
    """Connectivity over the free variables of a quantified formula.

    Monotone bases: quantification preserves monotonicity, so the
    monotone witness argument applies to the free-variable function.
    Affine bases: quantifiers over fictive variables are dropped; if a
    quantifier survives, the formula is a tautology (rightmost remaining
    quantifier existential) or unsatisfiable (universal); otherwise the
    matrix form restricted to the free variables decides as usual.
    """
    q = lower(q)
    if q.prefix is None:
        raise UsageError("qbf_easy_decide needs a quantified formula")
    if all(is_monotone(f) for f in base.tables):
        _check_pair(q, base, s, t)
        rationale = (
            "monotone base: quantification preserves monotonicity, so the "
            "free-variable solution graph is connected"
        )
        return _witnessed(q, base, True, s, t, _zeros_first, rationale)
    if not all(is_affine(f) for f in base.tables):
        raise WrongClass(
            "quantified connectivity is polynomial only for monotone or affine bases"
        )
    _check_pair(q, base, s, t)
    form = linear_form(q)
    kept = [(quant, j) for quant, j in q.prefix if j in form.support]
    free = q.free_vars()
    if kept:
        if kept[-1][0] == EXISTS:
            rationale = (
                "affine base: after dropping quantifiers on fictive variables "
                "the rightmost quantifier is existential, so the formula is a "
                "tautology over its free variables"
            )
            return _witnessed(q, base, True, s, t, _ascending, rationale)
        rationale = (
            "affine base: after dropping quantifiers on fictive variables "
            "the rightmost quantifier is universal, so the formula is "
            "unsatisfiable and its empty solution graph counts as connected"
        )
        return EasyAnswer(True, None, None, rationale)
    positions = frozenset(free.index(j) + 1 for j in form.support)
    rationale = (
        f"affine base: residual GF(2) form over the free variables is "
        f"{LinearForm(positions, form.c)}; connected iff at most one "
        "non-fictive variable"
    )
    return _linear_verdict(q, base, positions, s, t, rationale)
