"""Named bases, closed-class identification, and the tractability dispatch.

Post's lattice is kept as data: a generator base for each of the 38
fixed closed classes, and the degree families S{c}{tail}^k, each the
join of S{c}{tail} with the threshold T^{k+1}_k (dualized for c = 0).
The atoms are the classes properties.property_report names, and it
returns the set of them a function lies in: reproducing, monotone,
self-dual, affine, separating (also of degree k), and so on.  Every
atom is closed under composition, so a set of functions lies in an atom
exactly when the clone it generates does.  Hence the atoms a
class's generators share are the atoms every member of the class has,
its signature; and the atoms a base's functions share are the signature
of the clone they generate.  clone_identify looks that set up in a
{signature: class} table, with no inclusion rules to keep in step.
dispatch reads the same shared atoms: the paper's frontier is membership
in M, L, S0, D and S0^k (0-separating of degree k), each an atom.

Separation degrees are tracked up to dmax = min(degree bound, largest
arity in the base).  An a-ary function's finite separation degree is at
most a - 1, since some cover of its coordinates uses at most a masks,
so no family class of degree above the largest arity is ever the answer.
A family whose degree exceeds the degree bound is reported at the bound.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice, product

from .errors import ArityOverflow, DuplicateName, UnknownClass, UsageError, charge
from .properties import DEFAULT_DEGREE_BOUND, property_report
from .truthtable import (
    N_MAX,
    Record,
    TruthTable,
    _lines,
    _set,
    threshold_tt,
    tt_parse,
    tt_print,
    var_mask,
)

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class BaseSet:
    """A named finite set of Boolean functions."""

    def __init__(self, entries: dict[str, TruthTable]):
        if not entries:
            raise UsageError("base set needs at least one function")
        for name in entries:
            if not _NAME_RE.match(name):
                raise UsageError(f"bad function name {name!r}")
        self._entries = dict(entries)

    def __getitem__(self, name: str) -> TruthTable:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tables(self) -> list[TruthTable]:
        return list(self._entries.values())

    def fingerprint(self) -> tuple:
        return tuple(sorted((n, f.n, f.bits) for n, f in self._entries.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseSet) and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={tt_print(f)}" for n, f in self._entries.items())
        return f"BaseSet({inner})"


STANDARD_BASE = BaseSet(
    {
        "not": tt_parse("10", 1),
        "and": tt_parse("0001", 2),
        "or": tt_parse("0111", 2),
    }
)


def parse_base_file(text: str) -> BaseSet:
    """Parse `name arity bits` lines; '#' comments and blank lines ignored."""
    entries: dict[str, TruthTable] = {}
    for lineno, raw in _lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise UsageError(f"line {lineno}: expected `name arity bits`")
        name, arity_s, bits = parts
        if name in entries:
            raise DuplicateName(f"line {lineno}: duplicate function {name!r}")
        try:
            arity = int(arity_s)
        except ValueError:
            raise UsageError(f"line {lineno}: bad arity {arity_s!r}") from None
        if arity < 0:
            raise UsageError(f"line {lineno}: negative arity")
        entries[name] = tt_parse(bits, arity)
    return BaseSet(entries)


def print_base_file(base: BaseSet) -> str:
    return "".join(f"{n} {f.n} {tt_print(f)}\n" for n, f in base)


# --- Post's lattice ----------------------------------------------------------

# A generator base per closed class (Boehler, Creignou, Reith & Vollmer,
# "Playing with Boolean Blocks, Part I", 2003), as row text.
_GENERATORS: dict[str, tuple[str, ...]] = {
    "BF": ("0001", "10"),
    "R0": ("0001", "0110"),
    "R1": ("0111", "1001"),
    "R2": ("0111", "00001001"),
    "M": ("0001", "0111", "0", "1"),
    "M0": ("0001", "0111", "0"),
    "M1": ("0001", "0111", "1"),
    "M2": ("0001", "0111"),
    "S0": ("1101",),
    "S02": ("00101111",),
    "S01": ("00011111", "1"),
    "S00": ("00011111",),
    "S1": ("0010",),
    "S12": ("00001011",),
    "S11": ("00000111", "0"),
    "S10": ("00000111",),
    "D": ("10001110",),
    "D1": ("00101011",),
    "D2": ("00010111",),
    "L": ("0110", "1"),
    "L0": ("0110",),
    "L1": ("1001",),
    "L2": ("01101001",),
    "L3": ("10010110",),
    "E": ("0001", "0", "1"),
    "E0": ("0001", "0"),
    "E1": ("0001", "1"),
    "E2": ("0001",),
    "V": ("0111", "0", "1"),
    "V0": ("0111", "0"),
    "V1": ("0111", "1"),
    "V2": ("0111",),
    "N": ("10", "0", "1"),
    "N2": ("10",),
    "I": ("01", "0", "1"),
    "I0": ("01", "0"),
    "I1": ("01", "1"),
    "I2": ("01",),
}

# generator reports bypass the report cache: _signatures keeps them per
# dmax, and base tables would otherwise share the cache with them
_uncached_report = property_report.__wrapped__


@lru_cache(maxsize=32)
def _signatures(dmax: int) -> dict[frozenset, str]:
    """{atoms shared by a class's generators: class name} at degree cap dmax."""
    classes = {
        name: [tt_parse(t, len(t).bit_length() - 1) for t in gens]
        for name, gens in _GENERATORS.items()
    }
    # S{c}{tail}^k is the join of S{c}{tail} and T^{k+1}_k (dualized for c = 0)
    for k, c in product(range(2, dmax + 1), "01"):
        threshold = threshold_tt(k + 1, k, dualize=c == "0")
        for tail in ("", "2", "1", "0"):
            classes[f"S{c}{tail}^{k}"] = classes[f"S{c}{tail}"] + [threshold]
    atoms = {f: _uncached_report(f, max(dmax, 2)) for f in set().union(*classes.values())}
    return {
        _upto(frozenset.intersection(*(atoms[f] for f in gens)), dmax): name
        for name, gens in classes.items()
    }


def _upto(atoms: frozenset, dmax: int) -> frozenset:
    """The atoms, with separation degrees up to dmax only."""
    return frozenset(a for a in atoms if isinstance(a, str) or a[1] <= dmax)


def _check_arities(base: BaseSet):
    for name, f in base:
        if f.n > N_MAX:
            raise ArityOverflow(f"{name} has arity {f.n} > {N_MAX}")


def _shared_atoms(base: BaseSet, degree_bound: int, report_bound: int) -> tuple[frozenset, int]:
    """The atoms every function of the base has, the signature of the clone
    it generates, with separation degrees up to dmax = min(degree bound,
    largest arity); and dmax.  Atoms read degrees up to dmax only, so any
    report bound from max(dmax, 2) up gives the same atoms, and
    clone_identify and dispatch share each report."""
    _check_arities(base)
    # an a-ary function's finite separation degree is at most a - 1
    dmax = min(degree_bound, max(f.n for f in base.tables))
    reports = [property_report(f, report_bound) for f in base.tables]
    return _upto(frozenset.intersection(*reports), dmax), dmax


def clone_identify(base: BaseSet, degree_bound: int = DEFAULT_DEGREE_BOUND) -> str:
    """Name of the minimal closed class containing the base."""
    atoms, dmax = _shared_atoms(base, degree_bound, max(degree_bound, 2))
    try:
        return _signatures(dmax)[atoms]
    except KeyError:
        raise UnknownClass(f"no closed class has the atoms {sorted(map(str, atoms))}") from None


class DichotomyVerdict(Record):
    """Which side of the tractability frontier a base falls on."""

    __slots__ = ("side", "easy_class", "hard_variant", "hard_k", "quantified")

    def __init__(
        self,
        side: str,  # EASY | HARD
        easy_class: str | None = None,  # MONOTONE | LINEAR | ZERO_SEPARATING
        hard_variant: str | None = None,  # S12 | D1 | S02K
        hard_k: int | None = None,
        quantified: bool = False,
    ):
        _set(self, "side", side)
        _set(self, "easy_class", easy_class)
        _set(self, "hard_variant", hard_variant)
        _set(self, "hard_k", hard_k)
        _set(self, "quantified", quantified)

    def describe(self) -> str:
        if self.side == "EASY":
            return f"EASY({self.easy_class})"
        v = self.hard_variant
        if v == "S02K":
            v = f"S02K({self.hard_k})"
        return f"HARD({v})"


def dispatch(
    base: BaseSet, quantified: bool = False, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> DichotomyVerdict:
    """Classify a base as tractable or not for connectivity queries.

    Unquantified, connectivity is polynomial iff the base's clone lies in
    M, in L or in S0; with quantifiers the S0 escape hatch disappears.  On
    the hard side a reduction variant is picked: a clone inside D selects
    D1, one inside S0^k for some k >= 2 selects S02K at the largest such k
    (at the degree bound inside S0), anything else S12.  The memberships
    are the atoms clone_identify looks up (_shared_atoms).
    """
    atoms, _ = _shared_atoms(base, degree_bound, degree_bound)
    if "M" in atoms:
        return DichotomyVerdict("EASY", easy_class="MONOTONE", quantified=quantified)
    if "L" in atoms:
        return DichotomyVerdict("EASY", easy_class="LINEAR", quantified=quantified)
    if "S0" in atoms and not quantified:
        return DichotomyVerdict("EASY", easy_class="ZERO_SEPARATING", quantified=quantified)
    if "D" in atoms:
        return DichotomyVerdict("HARD", hard_variant="D1", quantified=quantified)
    # the degree atoms ("S0d", k) hold from k = 2 up to the common degree
    degrees = [a[1] for a in atoms if a[0] == "S0d"]
    k = degree_bound if "S0" in atoms else max(degrees, default=0)
    if k >= 2:
        return DichotomyVerdict("HARD", hard_variant="S02K", hard_k=k, quantified=quantified)
    return DichotomyVerdict("HARD", hard_variant="S12", quantified=quantified)


def _rounds(base: BaseSet, m: int, known: dict):
    """Semi-naive least fixpoint of the base's functions over m-ary tables.

    `known` maps each realized table to the caller's data for it, seeds
    first.  Rounds come as `(applications, groups)`.  A round builds only
    the argument tuples holding a table new in the previous round (all
    seeds are new in the first): position i takes the first new table,
    earlier ones old tables, later ones any table, so each tuple comes
    once, in `product` order (last position fastest).  They are the
    round's applications, counted up front; arity-0 functions apply in
    the first round only, as no application.  A round is a generator,
    passed over once: nothing of it is built before the caller iterates
    it, so a caller that refuses the count builds none of it.  After its
    pass (or stopping early) the caller adds the tables it accepts to
    `known`; the rounds end when one adds none.

    The tuples come grouped by head, the first k - 1 arguments, as
    `(name, head, g0, d, last)`: base function `name` applied to
    `head + (t,)` gives table g0 ^ (d & t's table) for each t in `last`.
    Arguments are `(complement, table)` pairs.  An arity-0 function comes
    as `(name, (), value, 0, None)`, in the first round.

    The kernel cofactors on the last argument: per head it builds two
    masks, g0 and g1, the function with its last argument fixed to 0 and
    to 1.  Each is the OR, over the one-rows ending in that bit, of the
    AND of the head's tables or complements that the row's leading bits
    pick; d = g0 ^ g1.
    """
    full = (1 << (1 << m)) - 1
    ops = []
    for name, f in base:
        # the one-rows split by their last bit, each kept as its leading
        # bits; an arity-0 function's one row, if any, lands in the first
        halves: tuple[list, list] = ([], [])
        for r in f.one_rows():
            halves[r & 1].append([(r >> (f.n - j)) & 1 for j in range(1, f.n)])
        ops.append((name, f.n, halves))
    old: list[tuple[int, int]] = []
    first = True
    while True:
        new = [(full ^ t, t) for t in islice(known, len(old), None)]
        if not (new or first):
            return
        every = old + new
        applications = sum(len(every) ** k - len(old) ** k for _, k, _ in ops)
        yield applications, _round(ops, old, new, every, full, first)
        old = every
        first = False


def _round(ops, old, new, every, full, first):
    for name, k, (rows0, rows1) in ops:
        if k == 0:
            if first:
                yield name, (), full if rows0 else 0, 0, None
        elif new:  # every tuple holds a new table
            for i in range(k):
                *pools, last = *[old] * i, new, *[every] * (k - 1 - i)
                for head in product(*pools):
                    g0 = _cofactor(head, rows0, full)
                    yield name, head, g0, g0 ^ _cofactor(head, rows1, full), last


def _cofactor(head, rows, full):
    g = 0
    for row in rows:
        term = full
        for pair, bit in zip(head, row):
            term &= pair[bit]
        g |= term
    return g


def clone_closure(base: BaseSet, max_arity: int) -> frozenset[TruthTable]:
    """All functions of arity <= max_arity the base can express.

    Least fixpoint per ambient arity (_rounds): seed with the
    projections, then apply every base function to realized tables; an
    application is one argument tuple holding at least one table new in
    the previous round.  Every composite over x_1..x_m denotes an m-ary
    function, so exhausting each ambient arity is a complete closure
    within the bound.  Distinct tables across all arities are charged
    against LIMITS["closure tables"]; exceeding it raises without
    returning a partial set.  Applications are charged per round, up
    front and across all arities, against LIMITS["closure applications"]
    (2^25); a round that would pass it raises before it is built.  The
    rounds of one ternary function at arity 3 charge at most 256^3 =
    2^24, so no such closure is refused.  An arity past LIMITS["table
    variables"] is refused first.  A head's last pool is taken whole: one
    set of g0 ^ (d & t), or just g0 when the last argument does not
    matter (d = 0).
    """
    _check_arities(base)
    if max_arity < 0:
        raise UsageError("max_arity must be >= 0")
    charge("table variables", max_arity)  # an m-ary table is a 2^m-bit mask
    result: set[TruthTable] = set()
    total = applications = 0
    for m in range(max_arity + 1):
        known = dict.fromkeys(var_mask(m, j) for j in range(1, m + 1))
        for count, groups in _rounds(base, m, known):
            applications += count
            charge("closure applications", applications)
            new: set[int] = set()
            for _, _, g0, d, last in groups:
                outs = {g0 ^ (d & t) for _, t in last} if d else {g0}
                new |= outs.difference(known)
                charge("closure tables", total + len(known) + len(new))
                if len(known) + len(new) == 1 << (1 << m):
                    break  # every m-ary table is realized
            known.update(dict.fromkeys(new))
            if len(known) == 1 << (1 << m):
                break
        total += len(known)
        charge("closure tables", total)
        result.update(TruthTable(m, bits) for bits in known)
    return frozenset(result)
