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

Every construction builds gates: the transforms emit into a GateBuilder
over the standard base, synthesis records each table's best candidate
and builds the target's gates once, and Tr pastes synthesized gate lists
over the nodes of one builder.  Equal (table, args) pairs share a node,
so an output that unfolds to millions of formula nodes is a few hundred
gates; print_formula spells it out.
"""

from __future__ import annotations

import functools
import itertools

from .circuits import GateBuilder, GateList
from .clones import STANDARD_BASE, BaseSet, _rounds
from .cnf import CnfFormula, cnf_to_formula
from .errors import (
    LIMITS,
    BudgetExceeded,
    KTooLarge,
    NotASolution,
    NotOneReproducing,
    NotRealizable,
    UsageError,
    charge,
)
from .formulas import formula_size
from .qbf import FORALL, with_prefix
from .semantics import evaluate, truth_table_of
from .truthtable import BitVector, Record, TruthTable, _set, mux_plan, replace, var_mask

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .graph import SolutionSet

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
        """The pad vector's length plus S02Q's bound z, without building it."""
        return self.k + 2 if self.kind == S02K else {S12: 1, D1: 3, S02Q: 2}[self.kind]

    def prefix(self, n0: int) -> tuple[tuple[str, int], ...] | None:
        """The quantifiers of T over inputs x_1..x_{n0}: S02Q binds z =
        x_{n0+2}, after y; the other variants are unquantified (None)."""
        return ((FORALL, n0 + 2),) if self.kind == S02Q else None

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


def _and(b: GateBuilder, *parts: int) -> int:
    return functools.reduce(lambda x, y: b.app("and", (x, y)), parts)


def _or(b: GateBuilder, *parts: int) -> int:
    return functools.reduce(lambda x, y: b.app("or", (x, y)), parts)


def _not(b: GateBuilder, x: int) -> int:
    return b.app("not", (x,))


def _pattern(b: GateBuilder, indices: list[int], bits: str) -> int:
    """Conjunction pinning each variable to the corresponding bit.

    An empty pattern is the constant 1 (spelled over x1 so no base
    constants are needed)."""
    parts = [b.node[j] if c == "1" else _not(b, b.node[j]) for j, c in zip(indices, bits)]
    if not parts:
        return _or(b, b.node[1], _not(b, b.node[1]))
    return _and(b, *parts)


def t_transform(psi: GateList, variant: TVariant, n0: int | None = None) -> GateList:
    """The standard-connective rendering of T_psi, as gates; for S02Q the
    gates are its matrix under the variant's prefix (TVariant.prefix).

    n0 fixes where the new variables start (input variables occupy
    x_1..x_{n0}); it defaults to the highest input of psi.  For
    S12/D1/S02K psi must be 1-reproducing.  The all-zero / all-one
    guard patterns range over the inputs of psi, so transforming clause
    by clause and combining agrees with transforming the whole formula
    at once.
    """
    ps = sorted(psi.inputs)
    if n0 is None:
        n0 = max(ps, default=1)
    if n0 < 1 or (ps and ps[-1] > n0):
        raise UsageError(f"n0 = {n0} does not cover the variables of psi")
    if variant.kind != S02Q:
        ones = BitVector(n0, (1 << n0) - 1)
        if evaluate(psi, STANDARD_BASE, ones) != 1:
            raise NotOneReproducing("psi is not satisfied by the all-ones assignment")
    y = n0 + 1
    news = list(range(y, y + variant.new_var_count))
    b = GateBuilder(STANDARD_BASE, tuple((ps or [1]) + news))
    x = b.node
    p = b.paste(psi, [x[j] for j in psi.inputs])
    if variant.kind == S12:
        return b.finish(_and(b, p, x[y]))
    if variant.kind == D1:
        ys = news
        neg_psi_neg = _not(b, b.paste(psi, [_not(b, x[j]) for j in psi.inputs]))
        one_hot = _or(b, *[_pattern(b, ys, bits) for bits in ("100", "010", "001")])
        blocked = _and(b, _pattern(b, ps, "0" * len(ps)), _pattern(b, ys, "001"))
        return b.finish(_or(
            b,
            _and(b, p, _pattern(b, ys, "111")),
            _and(b, neg_psi_neg, _pattern(b, ys, "000")),
            _and(b, one_hot, _not(b, blocked)),
            _and(b, _pattern(b, ps, "1" * len(ps)), _pattern(b, ys, "110")),
        ))
    if variant.kind == S02K:
        zs = news[1:]  # z_1..z_{k+1}
        pairs = [_and(b, x[i], x[j]) for i, j in itertools.combinations(zs, 2)]
        return b.finish(_or(
            b,
            _and(b, p, x[y], _pattern(b, zs, "0" * len(zs))),
            _or(b, *pairs),
            _and(b, _pattern(b, ps, "1" * len(ps)), x[y], _pattern(b, zs, "1" + "0" * (len(zs) - 1))),
        ))
    prefix = variant.prefix(n0)
    ((_, z),) = prefix
    return with_prefix(b.finish(_or(b, _and(b, p, x[y]), x[z])), prefix)


def _synth_search(target: TruthTable, base: BaseSet) -> GateList:
    """Bottom-up closure rounds (clones._rounds) seeded with the
    projections, with observational-equivalence memoing: each table keeps
    the (size, print text, name, argument tables) of the smallest, then
    first printed, candidate of the round that first produced it; a
    candidate's text is built only when it could win.  A group's head is
    sized once, so each last table t costs g0 ^ (d & t) and its size.  A
    round, a generator passed over once, is listed once; the search
    scores the list's hits (the candidates that give the target) and
    stops if one is within the size cap (no other candidate can touch the
    target's entry, as `known` is fixed in a round); else it scores the
    whole list.  The target's gates are built once, at the end.

    An application is one argument tuple holding at least one table new
    in the previous round; every one counts, realized or duplicate, and a
    round that would pass LIMITS["synthesis applications"] is refused
    whole.  A candidate of more than LIMITS["synthesis nodes"] formula
    nodes is skipped, and a fixpoint reached with a skip is refused by the
    largest one skipped.  Reaching a fixpoint without one certifies the
    target unrealizable at its arity.
    """
    n, goal = target.n, target.bits
    known = {var_mask(n, j): (1, f"x{j}", None, j) for j in range(1, n + 1)}
    max_size = LIMITS["synthesis nodes"]
    applications = skipped = 0  # skipped: the largest candidate over max_size
    for count, groups in _rounds(base, n, known):
        if goal in known:
            return _gates_of(known, goal, base, n)
        applications += count
        charge("synthesis applications", applications)
        groups = list(groups)
        # g0 ^ (d & t) is goal iff d & t is x = g0 ^ goal (d = 0 at arity 0)
        hits = [
            (name, head, g0, d, last and [t for t in last if d & t == x])
            for name, head, g0, d, last in groups
            if not (x := g0 ^ goal) & ~d
            and (last is None or x in map(d.__and__, last))
        ]
        for part in hits, groups:
            fresh: dict[int, tuple] = {}
            for name, head, g0, d, last in part:
                if last is None:  # an arity-0 function: size 1, no arguments
                    best = fresh.get(g0)
                    if g0 not in known and (best is None or (1, name) < best[:2]):
                        fresh[g0] = (1, name, name, ())
                    continue
                size0 = 1 + sum([known[a][0] for a in head])
                for t in last:
                    size = size0 + known[t][0]
                    if size > max_size:
                        skipped = max(skipped, size)
                        continue
                    out = g0 ^ (d & t)
                    if out in known:
                        continue
                    best = fresh.get(out)
                    if best is not None and size > best[0]:
                        continue
                    args = head + (t,)
                    text = f"{name}({','.join(known[a][1] for a in args)})"
                    if best is None or (size, text) < best[:2]:
                        fresh[out] = (size, text, name, args)
            if goal in fresh:
                break
        known.update(fresh)
    charge("synthesis nodes", skipped)
    raise NotRealizable(
        f"target is outside the base's closure at arity {n} ({len(known)} realizable tables)"
    )


def _gates_of(known: dict, bits: int, base: BaseSet, n: int) -> GateList:
    """The gate list over x_1..x_n that the search recorded for table bits,
    each argument built before its application, on an explicit stack."""
    b = GateBuilder(base, tuple(range(1, n + 1)))
    node = {var_mask(n, j): j - 1 for j in range(1, n + 1)}
    stack = [bits]
    while stack:
        t = stack[-1]
        if t in node:
            stack.pop()
            continue
        _, _, name, args = known[t]
        todo = [a for a in args if a not in node]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        node[t] = b.app(name, tuple([node[a] for a in args]))
    return b.finish(node[bits])


@functools.lru_cache(maxsize=256)
def synth_bformula(target: TruthTable, base: BaseSet) -> GateList:
    """A gate list over the base and x_1..x_n whose table equals the target.

    Exhaustive bottom-up search first, within the synthesis limits; if
    it is refused and the base can express not/and/or, each searched
    within the same limits, fall back to the target's decision diagram
    (truthtable.mux_plan): each step x_p ? hi : lo is spelled in those
    connectives, with its constant branches folded in as the plan's kind
    names them, and a constant is spelled over x_1.  NotRealizable is only
    raised on a genuine closure fixpoint, never on a refusal.  Answers are
    cached per (target, base), least recently used first out, so a test
    that swaps a synthesis limit clears the cache before and after.
    """
    try:
        return _synth_search(target, base)
    except BudgetExceeded as e:
        try:
            ops = {op: _synth_search(f, base) for op, f in STANDARD_BASE}
        except (BudgetExceeded, NotRealizable):
            raise BudgetExceeded(
                f"{e}; the base does not yield not/and/or for a structural fallback"
            ) from None
    b = GateBuilder(base, tuple(range(1, max(target.n, 1) + 1)))

    def inst(op: str, *args: int) -> int:
        return b.paste(ops[op], args)

    r: list[int] = []  # the node of each step; a branch c >= 0 is input node c
    for kind, p, lo, hi, _ in mux_plan(target):
        lo, hi = (c if isinstance(c, str) or c >= 0 else r[~c] for c in (lo, hi))
        if kind == "0h":
            v = p if hi == p else inst("and", p, hi)
        elif kind == "l1":
            v = inst("or", p, lo)
        elif kind == "lh":
            v = inst("or", inst("and", inst("not", p), lo), inst("and", p, hi))
        elif kind == "10":
            v = inst("not", p)
        elif kind == "1h":
            v = inst("or", inst("not", p), hi)
        elif kind == "l0":
            v = inst("and", lo, inst("not", p))
        else:
            v = inst("and" if kind == "00" else "or", 0, inst("not", 0))
        r.append(v)
    return b.finish(v)


def tr_combine(
    phi: CnfFormula,
    variant: TVariant,
    base: BaseSet,
    stats: dict | None = None,
) -> GateList:
    """Balanced clause-by-clause transform over an arbitrary base.

    Leaves synthesize T of a single clause (compacted to its distinct
    variables); internal nodes synthesize T of x1 AND x2 once and paste
    the halves into it, sharing one global block of new variables.  Each
    CNF it transforms (a clause, x1 AND x2, an empty CNF's tautology) is
    rendered by cnf_to_formula.  The result is one gate list over
    x_1..x_{n + new}, and its table equals t_transform of the whole CNF;
    for S02Q both are matrices under the variant's prefix, and the pieces
    are synthesized from the matrices' tables.  stats gets the combining
    depth and the size of the formula the gates unfold to.
    """
    if not phi.is_three_cnf:
        raise UsageError("Tr expects a 3-CNF")
    if not phi.is_one_reproducing():
        raise NotOneReproducing("CNF has a clause without a positive literal")
    n = phi.n
    if n < 1:
        raise UsageError("Tr needs at least one variable")
    extra = variant.new_var_count
    # the widest CNF tee tabulates (a clause over its distinct variables,
    # x1 AND x2, an empty CNF's tautology), charged before anything is built
    widths = [len({abs(lit) for lit in c}) for c in phi.clauses]
    charge("table variables", max(widths + [2 if len(widths) > 1 else 1]) + extra)
    out = GateBuilder(base, tuple(range(1, n + extra + 1)))
    news = list(range(n, n + extra))  # the nodes of the new variables

    def tee(psi: CnfFormula) -> GateList:
        t = t_transform(cnf_to_formula(psi), variant, n0=psi.n)
        table = truth_table_of(replace(t, prefix=None), STANDARD_BASE, psi.n + extra)
        return synth_bformula(table, base)

    combiner: GateList | None = None

    def rec(clauses: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
        nonlocal combiner
        if len(clauses) == 1:
            # the clause over its distinct variables, renumbered from 1
            rank = {v: i for i, v in enumerate(sorted({abs(lit) for lit in clauses[0]}), 1)}
            lits = tuple(rank[lit] if lit > 0 else -rank[-lit] for lit in clauses[0])
            return out.paste(tee(CnfFormula(len(rank), (lits,))), [v - 1 for v in rank] + news), 0
        mid = len(clauses) // 2
        left, dl = rec(clauses[:mid])
        right, dr = rec(clauses[mid:])
        if combiner is None:
            combiner = tee(CnfFormula(2, ((1,), (2,))))
        return out.paste(combiner, [left, right] + news), 1 + max(dl, dr)

    if phi.clauses:
        root, depth = rec(phi.clauses)
    else:
        root, depth = out.paste(tee(CnfFormula(1, ())), [0] + news), 0
    gl = out.finish(root)
    prefix = variant.prefix(n)
    if prefix:
        gl = with_prefix(gl, prefix)
    if stats is not None:
        stats["depth"] = depth
        stats["size"] = formula_size(gl)
    return gl


def gen_expdiam(k: int) -> SolutionSet:
    """An induced path in the 2k-cube from all-ones, 2^(k+1)-1 vertices.

    Doubling step: follow the old path with 11 appended, step down to
    01 then 00 at its end, and walk the old path backwards (skipping its
    last vertex) with 00 appended.  Each step keeps endpoints at the
    old path's head, so the all-ones endpoint is preserved.
    """
    from .graph import SolutionSet

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
    from .graph import SolutionSet

    if variant.kind == S02Q:
        raise UsageError("S02Q is quantified-only; apply it at the formula level")
    if not r.words:
        raise UsageError("the transform needs a nonempty solution set")
    n = r.n
    charge("table variables", n + variant.new_var_count)
    ones = (1 << n) - 1
    have = set(r.words)
    if ones not in have:
        raise NotOneReproducing("all-ones is not a solution")
    if variant.kind == S12:
        return SolutionSet(n + 1, tuple((w << 1) | 1 for w in r.words))
    # D1 and S02K emit words for every assignment u of psi's variables, so
    # the count is known before any is built.  D1: |r| words with y = 111,
    # 2^n - |r| with 000, 3 * 2^n - 1 with one y set, and one with 110.
    # S02K: r with y = 1 and z = 0, every (u, y) with two or more z set,
    # and all-ones with y = 1 and z = 10..0.
    if variant.kind == D1:
        count = 4 << n
    else:
        count = len(have) + (2 << n) * ((1 << (variant.k + 1)) - variant.k - 2) + 1
    charge("transform words", count)
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
