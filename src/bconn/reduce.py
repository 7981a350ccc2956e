"""Hard-side constructions: connectivity-preserving transforms and synthesis.

The transforms embed a 1-reproducing formula into a harder target class
by adding fresh variables after the inputs (y first, then any z block):

* S12:  psi AND y
* D1:   (psi(x) AND y=111) OR (NOT psi(NOT x) AND y=000)
        OR (y in {100,010,001} AND NOT (x=0 AND y=001)) OR (x=1 AND y=110)
* S02K: (psi AND y AND z=0) OR (|z|>1) OR (x=1 AND y AND z=10..0),
        with z = z_1..z_{k+1} and |z|>1 the pairwise disjunction
* S02Q: matrix (psi AND y) OR z, universally quantified over z

Tr splits a CNF in half, transforms recursively, and joins the halves
with a synthesized two-input combiner, giving depth ceil(log2 m).
"""

from __future__ import annotations

import functools
import itertools

from .clones import STANDARD_BASE, BaseSet, closure_rounds
from .cnf import CnfFormula
from .errors import (
    BudgetExceeded,
    KTooLarge,
    NotASolution,
    NotOneReproducing,
    NotRealizable,
    UsageError,
)
from .formulas import (
    Apply,
    FormulaAst,
    Var,
    formula_size,
    formula_vars,
    substitute,
)
from .graph import SolutionSet
from .qbf import FORALL, QuantifiedFormula
from .semantics import evaluate, truth_table_of
from .truthtable import BitVector, Record, TruthTable, _set, tt_parse, var_mask

S12 = "S12"
D1 = "D1"
S02K = "S02K"
S02Q = "S02Q"

_EXPDIAM_K_MAX = 14


class TVariant(Record):
    """Target class of a transform; S02K carries its separation degree."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):
        if kind not in (S12, D1, S02K, S02Q):
            raise UsageError(f"unknown transform variant {kind!r}")
        if kind == S02K:
            if k is None or k < 2:
                raise UsageError("S02K needs a degree parameter k >= 2")
        elif k is not None:
            raise UsageError(f"{kind} takes no degree parameter")
        _set(self, "kind", kind)
        _set(self, "k", k)

    @property
    def new_var_count(self) -> int:
        if self.kind == S12:
            return 1
        if self.kind == D1:
            return 3
        if self.kind == S02K:
            return self.k + 2
        return 2

    def pad_vector(self) -> str:
        """Suffix appended to a solution of psi to land in the transform."""
        if self.kind == S12:
            return "1"
        if self.kind == D1:
            return "111"
        if self.kind == S02K:
            return "1" + "0" * (self.k + 1)
        return "1"  # S02Q: free variables are x and y; z is bound

    def __str__(self) -> str:
        return f"S02K({self.k})" if self.kind == S02K else self.kind


class SynthBudget(Record):
    """Caps for the bottom-up synthesizer.  An application is one argument
    tuple containing at least one table new in the previous round
    (clones.closure_rounds); every one counts, realized or duplicate, and
    a round that would pass max_applications is refused whole."""

    __slots__ = ("max_size", "max_applications")

    def __init__(self, max_size: int = 100_000, max_applications: int = 120_000):
        if max_size <= 0 or max_applications <= 0:
            raise UsageError("synthesis budget fields must be positive")
        _set(self, "max_size", max_size)
        _set(self, "max_applications", max_applications)


DEFAULT_SYNTH_BUDGET = SynthBudget()


def shift_to_one_reproducing(phi: CnfFormula, s: BitVector) -> CnfFormula:
    """Relabel the cube so s becomes all-ones: flip literal polarities
    on every variable where s_i = 0.  Solution graphs are isomorphic
    under the same coordinate-wise XOR."""
    if s.n != phi.n:
        raise UsageError(f"assignment has {s.n} bits, CNF has {phi.n} variables")
    if evaluate(phi, STANDARD_BASE, s) != 1:
        raise NotASolution(f"{s.text} does not satisfy the CNF")
    return CnfFormula(phi.n, tuple(
        tuple(lit if s.bit(abs(lit)) else -lit for lit in clause) for clause in phi.clauses
    ))


def _and(a: FormulaAst, b: FormulaAst) -> FormulaAst:
    return Apply("and", (a, b))


def _or(a: FormulaAst, b: FormulaAst) -> FormulaAst:
    return Apply("or", (a, b))


def _not(a: FormulaAst) -> FormulaAst:
    return Apply("not", (a,))


def _conj(parts: list[FormulaAst]) -> FormulaAst:
    return functools.reduce(_and, parts)


def _disj(parts: list[FormulaAst]) -> FormulaAst:
    return functools.reduce(_or, parts)


def _pattern(indices: list[int], bits: str) -> FormulaAst:
    """Conjunction pinning each variable to the corresponding bit.

    An empty pattern is the constant 1 (spelled over x1 so no base
    constants are needed)."""
    parts = [
        Var(j) if b == "1" else _not(Var(j)) for j, b in zip(indices, bits)
    ]
    if not parts:
        return _or(Var(1), _not(Var(1)))
    return _conj(parts)


def t_transform(
    psi: FormulaAst, variant: TVariant, n0: int | None = None
) -> FormulaAst | QuantifiedFormula:
    """The standard-connective rendering of T_psi.

    n0 fixes where the new variables start (input variables occupy
    x_1..x_{n0}); it defaults to the highest variable in psi.  For
    S12/D1/S02K psi must be 1-reproducing.  The all-zero / all-one
    guard patterns range over the variables that actually appear in
    psi, so transforming clause by clause and combining agrees with
    transforming the whole formula at once.
    """
    used = formula_vars(psi)
    if n0 is None:
        n0 = max(used, default=1)
    if n0 < 1 or (used and max(used) > n0):
        raise UsageError(f"n0 = {n0} does not cover the variables of psi")
    ps = sorted(used)
    if variant.kind != S02Q:
        ones = BitVector(n0, (1 << n0) - 1)
        if evaluate(psi, STANDARD_BASE, ones) != 1:
            raise NotOneReproducing("psi is not satisfied by the all-ones assignment")
    y = n0 + 1
    if variant.kind == S12:
        return _and(psi, Var(y))
    if variant.kind == D1:
        y1, y2, y3 = y, y + 1, y + 2
        ys = [y1, y2, y3]
        neg_psi_neg = _not(substitute(psi, {j: _not(Var(j)) for j in ps}))
        one_hot = _disj([_pattern(ys, p) for p in ("100", "010", "001")])
        blocked = _and(_pattern(ps, "0" * len(ps)), _pattern(ys, "001"))
        return _disj(
            [
                _and(psi, _pattern(ys, "111")),
                _and(neg_psi_neg, _pattern(ys, "000")),
                _and(one_hot, _not(blocked)),
                _and(_pattern(ps, "1" * len(ps)), _pattern(ys, "110")),
            ]
        )
    if variant.kind == S02K:
        zs = list(range(y + 1, y + 2 + variant.k))  # z_1..z_{k+1}
        pairs = [
            _and(Var(a), Var(b)) for a, b in itertools.combinations(zs, 2)
        ]
        return _disj(
            [
                _conj([psi, Var(y), _pattern(zs, "0" * len(zs))]),
                _disj(pairs),
                _conj(
                    [
                        _pattern(ps, "1" * len(ps)),
                        Var(y),
                        _pattern(zs, "1" + "0" * (len(zs) - 1)),
                    ]
                ),
            ]
        )
    z = y + 1
    matrix = _or(_and(psi, Var(y)), Var(z))
    return QuantifiedFormula(((FORALL, z),), matrix)


def _synth_search(target: TruthTable, base: BaseSet, budget: SynthBudget) -> FormulaAst:
    """Bottom-up closure rounds (clones.closure_rounds) seeded with the
    projections, with observational-equivalence memoing: each table keeps
    the (size, print text, formula) of the smallest, then first printed,
    candidate of the round that first produced it; a candidate's text is
    built only when it could win.  Reaching a fixpoint without any
    budget-forced skip certifies the target unrealizable at this arity.
    """
    n = target.n
    known = {var_mask(n, j): (1, f"x{j}", Var(j)) for j in range(1, n + 1)}
    applications = 0
    skipped = False
    for count, tuples in closure_rounds(base, n, known):
        if target.bits in known:
            return known[target.bits][2]
        applications += count
        if applications > budget.max_applications:
            raise BudgetExceeded(
                f"synthesis stopped after {budget.max_applications} applications"
            )
        fresh: dict[int, tuple] = {}
        for name, args, out in tuples:
            size = 1
            for _, a in args:
                size += known[a][0]
            if size > budget.max_size:
                skipped = True
                continue
            if out in known:
                continue
            best = fresh.get(out)
            if best is not None and size > best[0]:
                continue
            text = f"{name}({','.join(known[a][1] for _, a in args)})" if args else name
            if best is None or (size, text) < best[:2]:
                fresh[out] = (size, text, name, args)
        for out, (size, text, name, args) in fresh.items():
            known[out] = (size, text, Apply(name, tuple(known[a][2] for _, a in args)))
    if skipped:
        raise BudgetExceeded("synthesis size cap pruned the search")
    raise NotRealizable(
        f"target is outside the base's closure at arity {n} "
        f"({len(known)} realizable tables)"
    )


def _shannon(
    target: TruthTable,
    ops: dict[str, FormulaAst],
    memo: dict[tuple[int, int], FormulaAst],
) -> FormulaAst:
    """Expansion over x_1: target = (NOT x1 AND f0) OR (x1 AND f1),
    with the connectives spelled in base terms via substitution."""
    key = (target.n, target.bits)
    got = memo.get(key)
    if got is not None:
        return got
    n = target.n
    full = (1 << (1 << n)) - 1

    def inst(op: str, *args: FormulaAst) -> FormulaAst:
        return substitute(ops[op], dict(enumerate(args, start=1)))

    if target.bits == 0:
        out = inst("and", Var(1), inst("not", Var(1)))
    elif target.bits == full:
        out = inst("or", Var(1), inst("not", Var(1)))
    else:
        for j in range(1, n + 1):
            if target.bits == var_mask(n, j):
                memo[key] = Var(j)
                return Var(j)
        stride = 1 << (n - 1)
        low = target.bits & ((1 << stride) - 1)
        high = target.bits >> stride
        sub0 = _shannon(TruthTable(n - 1, low), ops, memo)
        sub1 = _shannon(TruthTable(n - 1, high), ops, memo)
        shift = {j: Var(j + 1) for j in range(1, n)}
        f0 = substitute(sub0, shift)
        f1 = substitute(sub1, shift)
        out = inst(
            "or", inst("and", inst("not", Var(1)), f0), inst("and", Var(1), f1)
        )
    memo[key] = out
    return out


@functools.lru_cache(maxsize=256)
def synth_bformula(
    target: TruthTable, base: BaseSet, budget: SynthBudget = DEFAULT_SYNTH_BUDGET
) -> FormulaAst:
    """A formula over the base whose truth table equals the target.

    Exhaustive bottom-up search first; if its budget trips and the base
    can express not/and/or, fall back to Shannon expansion built from
    those synthesized connectives.  NotRealizable is only raised on a
    genuine closure fixpoint, never on a budget stop.  Answers are cached
    per (target, base, budget), least recently used first out.
    """
    try:
        return _synth_search(target, base, budget)
    except BudgetExceeded:
        ops = {}
        small = SynthBudget(max_size=64, max_applications=50_000)
        try:
            ops["not"] = _synth_search(tt_parse("10", 1), base, small)
            ops["and"] = _synth_search(tt_parse("0001", 2), base, small)
            ops["or"] = _synth_search(tt_parse("0111", 2), base, small)
        except (BudgetExceeded, NotRealizable):
            raise BudgetExceeded(
                "synthesis budget exceeded and the base does not yield "
                "not/and/or for a structural fallback"
            ) from None
        return _shannon(target, ops, {})


def _clause_formula(clause: tuple[int, ...], positions: dict[int, int]) -> FormulaAst:
    return _disj([Var(positions[lit]) if lit > 0 else _not(Var(positions[-lit])) for lit in clause])


def tr_combine(
    phi: CnfFormula,
    variant: TVariant,
    base: BaseSet,
    budget: SynthBudget = DEFAULT_SYNTH_BUDGET,
    stats: dict | None = None,
) -> FormulaAst:
    """Balanced clause-by-clause transform over an arbitrary base.

    Leaves synthesize T of a single clause (compacted to its distinct
    variables); internal nodes synthesize T of x1 AND x2 once and
    substitute the halves into it, sharing one global block of new
    variables.  The result's table equals t_transform of the whole CNF
    (for S02Q, its matrix).
    """
    if not phi.is_three_cnf:
        raise UsageError("Tr expects a 3-CNF")
    if not phi.is_one_reproducing():
        raise NotOneReproducing("CNF has a clause without a positive literal")
    n = phi.n
    if n < 1:
        raise UsageError("Tr needs at least one variable")
    extra = variant.new_var_count
    new_vars = list(range(n + 1, n + extra + 1))

    def lift(compact: FormulaAst, arity: int, outer: list[int]) -> FormulaAst:
        mapping: dict[int, FormulaAst] = {
            p: Var(o) for p, o in zip(range(1, arity + 1), outer)
        }
        for q, g in enumerate(new_vars, start=arity + 1):
            mapping[q] = Var(g)
        return substitute(compact, mapping)

    def tee(compact_psi: FormulaAst, arity: int) -> FormulaAst:
        t = t_transform(compact_psi, variant, n0=arity)
        if variant.kind == S02Q:
            t = t.matrix
        table = truth_table_of(t, STANDARD_BASE, arity + extra)
        return synth_bformula(table, base, budget)

    combiner: FormulaAst | None = None

    def rec(clauses: tuple[tuple[int, ...], ...]) -> tuple[FormulaAst, int]:
        nonlocal combiner
        if len(clauses) == 1:
            cvars = sorted({abs(lit) for lit in clauses[0]})
            positions = {v: p for p, v in enumerate(cvars, start=1)}
            compact = tee(_clause_formula(clauses[0], positions), len(cvars))
            return lift(compact, len(cvars), cvars), 0
        mid = len(clauses) // 2
        left, dl = rec(clauses[:mid])
        right, dr = rec(clauses[mid:])
        if combiner is None:
            combiner = tee(_and(Var(1), Var(2)), 2)
        mapping: dict[int, FormulaAst] = {1: left, 2: right}
        for q, g in enumerate(new_vars, start=3):
            mapping[q] = Var(g)
        return substitute(combiner, mapping), 1 + max(dl, dr)

    if phi.clauses:
        out, depth = rec(phi.clauses)
    else:
        compact = tee(_or(Var(1), _not(Var(1))), 1)
        out, depth = lift(compact, 1, [1]), 0
    if stats is not None:
        stats["depth"] = depth
        stats["size"] = formula_size(out)
    return out


def gen_expdiam(k: int) -> SolutionSet:
    """An induced path in the 2k-cube from all-ones, 2^(k+1)-1 vertices.

    Doubling step: follow the old path with 11 appended, step down to
    01 then 00 at its end, and walk the old path backwards (skipping its
    last vertex) with 00 appended.  Each step keeps endpoints at the
    old path's head, so the all-ones endpoint is preserved.
    """
    if not 1 <= k <= _EXPDIAM_K_MAX:
        raise KTooLarge(f"k must be in [1, {_EXPDIAM_K_MAX}]")
    path = [0]
    for _ in range(k):
        last = path[-1]
        nxt = [(v << 2) | 0b11 for v in path]
        nxt.append((last << 2) | 0b01)
        nxt.append(last << 2)
        nxt.extend(v << 2 for v in reversed(path[:-1]))
        path = nxt
    return SolutionSet(2 * k, tuple(sorted(path)))


def apply_t_relation(r: SolutionSet, variant: TVariant) -> SolutionSet:
    """T at the relation level: the solution set of T_psi from that of psi."""
    if variant.kind == S02Q:
        raise UsageError("S02Q is quantified-only; apply it at the formula level")
    if not r.words:
        raise UsageError("the transform needs a nonempty solution set")
    n = r.n
    ones = (1 << n) - 1
    have = set(r.words)
    if ones not in have:
        raise NotOneReproducing("all-ones is not a solution")
    if variant.kind == S12:
        return SolutionSet(n + 1, tuple((w << 1) | 1 for w in r.words))
    if variant.kind == D1:
        out = set()
        for w in r.words:
            out.add((w << 3) | 0b111)
        for u in range(1 << n):
            if (ones ^ u) not in have:
                out.add(u << 3)
            for p in (0b100, 0b010, 0b001):
                if u == 0 and p == 0b001:
                    continue
                out.add((u << 3) | p)
        out.add((ones << 3) | 0b110)
        return SolutionSet(n + 3, tuple(sorted(out)))
    k = variant.k
    width = k + 2  # y plus z_1..z_{k+1}
    out = set()
    for w in r.words:
        out.add((w << width) | (1 << (k + 1)))
    for u in range(1 << n):
        for y in (0, 1):
            for zw in range(1 << (k + 1)):
                if zw.bit_count() >= 2:
                    out.add((u << width) | (y << (k + 1)) | zw)
    out.add((ones << width) | (1 << (k + 1)) | (1 << k))
    return SolutionSet(n + width, tuple(sorted(out)))
