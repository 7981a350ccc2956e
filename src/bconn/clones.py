"""Named bases, closed-class identification, and the tractability dispatch.

The class table lists every closed class of Boolean functions as a
conjunction of the property predicates from properties.py; the families
parameterized by a separation degree are instantiated up to the degree
bound.  Inclusion between classes is decided by saturating a class's
property set under implication rules (each rule is a fact about the
predicates, e.g. any 0-separating function is 1-reproducing); a class A
is contained in B exactly when A's saturated set covers B's properties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice, product

from .errors import ArityOverflow, BudgetExceeded, DuplicateName, UsageError
from .properties import (
    ALL,
    DEFAULT_DEGREE_BOUND,
    PropertyReport,
    property_report,
)
from .truthtable import N_MAX, TruthTable, tt_parse, tt_print, var_mask

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
    def names(self) -> list[str]:
        return list(self._entries)

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


# --- class table ----------------------------------------------------------

_FIXED_CLASSES: list[tuple[str, tuple]] = [
    ("BF", ()),
    ("R0", ("R0",)),
    ("R1", ("R1",)),
    ("R2", ("R0", "R1")),
    ("M", ("M",)),
    ("M0", ("M", "R0")),
    ("M1", ("M", "R1")),
    ("M2", ("M", "R0", "R1")),
    ("S0", ("S0",)),
    ("S02", ("S0", "R0", "R1")),
    ("S01", ("S0", "M")),
    ("S00", ("S0", "R0", "R1", "M")),
    ("S1", ("S1",)),
    ("S12", ("S1", "R0", "R1")),
    ("S11", ("S1", "M")),
    ("S10", ("S1", "R0", "R1", "M")),
    ("D", ("D",)),
    ("D1", ("D", "R0", "R1")),
    ("D2", ("D", "M")),
    ("L", ("L",)),
    ("L0", ("L", "R0")),
    ("L1", ("L", "R1")),
    ("L2", ("L", "R0", "R1")),
    ("L3", ("L", "D")),
    ("E", ("E",)),
    ("E0", ("E", "R0")),
    ("E1", ("E", "R1")),
    ("E2", ("E", "R0", "R1")),
    ("V", ("V",)),
    ("V0", ("V", "R0")),
    ("V1", ("V", "R1")),
    ("V2", ("V", "R0", "R1")),
    ("N", ("N",)),
    ("N2", ("N", "D")),
    ("I", ("I",)),
    ("I0", ("I", "R0")),
    ("I1", ("I", "R1")),
    ("I2", ("I", "R0", "R1")),
]


def _class_table(dmax: int) -> list[tuple[str, frozenset]]:
    table = [(name, frozenset(atoms)) for name, atoms in _FIXED_CLASSES]
    for k, c in product(range(2, dmax + 1), "01"):  # S0^k, S02^k, S01^k, S00^k, S1^k, ...
        for tail, atoms in (("", ()), ("2", ("R0", "R1")), ("1", ("M",)), ("0", ("R0", "R1", "M"))):
            table.append((f"S{c}{tail}^{k}", frozenset({(f"S{c}d", k), *atoms})))
    return table


def _saturate(atoms: frozenset, dmax: int) -> frozenset:
    s = set(atoms)
    changed = True
    while changed:
        changed = False

        def add(*items):
            nonlocal changed
            for a in items:
                if a not in s:
                    s.add(a)
                    changed = True

        if "S0" in s:
            add("R1", *(("S0d", k) for k in range(2, dmax + 1)))
        if "S1" in s:
            add("R0", *(("S1d", k) for k in range(2, dmax + 1)))
        for k in range(2, dmax + 1):
            if ("S0d", k) in s:
                add("R1", *(("S0d", j) for j in range(2, k)))
            if ("S1d", k) in s:
                add("R0", *(("S1d", j) for j in range(2, k)))
        if "E" in s or "V" in s:
            add("M")
        if "N" in s:
            add("L")
        if "I" in s:
            add("N", "E", "V")
        if "D" in s and "M" in s:
            add("R0", "R1")
            if dmax >= 2:
                add(("S0d", 2), ("S1d", 2))
        if "D" in s and "R0" in s:
            add("R1")
        if "D" in s and "R1" in s:
            add("R0")
        if "E" in s and "R0" in s:
            add("S1")
        if "V" in s and "R1" in s:
            add("S0")
        if "L" in s and ("M" in s or "E" in s or "V" in s):
            add("I")
        if "L" in s and "R0" in s and "R1" in s:
            add("D")
        if "I" in s and "R0" in s and "R1" in s:
            add("D")
        if "D" in s and ("E" in s or "V" in s):
            add("I")
    return frozenset(s)


def _function_atoms(rep: PropertyReport, dmax: int) -> frozenset:
    atoms = set()
    if rep.reproducing0:
        atoms.add("R0")
    if rep.reproducing1:
        atoms.add("R1")
    if rep.monotone:
        atoms.add("M")
    if rep.self_dual:
        atoms.add("D")
    if rep.affine:
        atoms.add("L")
    if rep.separating0:
        atoms.add("S0")
    if rep.separating1:
        atoms.add("S1")
    for k in range(2, dmax + 1):
        if rep.separating_of_degree(0, k):
            atoms.add(("S0d", k))
        if rep.separating_of_degree(1, k):
            atoms.add(("S1d", k))
    if rep.conjunction_like:
        atoms.add("E")
    if rep.disjunction_like:
        atoms.add("V")
    if rep.essentially_unary:
        atoms.add("N")
    if rep.projection_or_constant:
        atoms.add("I")
    return frozenset(atoms)


def _check_arities(base: BaseSet):
    for name, f in base:
        if f.n > N_MAX:
            raise ArityOverflow(f"{name} has arity {f.n} > {N_MAX}")


def clone_identify(base: BaseSet, degree_bound: int = DEFAULT_DEGREE_BOUND) -> str:
    """Name of the minimal closed class containing the base."""
    _check_arities(base)
    max_arity = max(f.n for f in base.tables)
    dmax = min(degree_bound, 1 << max_arity)
    # atoms read degrees up to dmax only, so dispatch's reports serve here
    reports = [property_report(f, max(degree_bound, 2)) for f in base.tables]
    common = frozenset.intersection(
        *(_function_atoms(r, dmax) for r in reports)
    )
    table = _class_table(dmax)
    satisfied = [(name, atoms) for name, atoms in table if atoms <= common]
    best = []
    for name, atoms in satisfied:
        closure = _saturate(atoms, dmax)
        if all(other <= closure for _, other in satisfied):
            best.append(name)
    if len(best) != 1:
        raise AssertionError(
            f"class inclusion rules ambiguous: candidates {best or [s[0] for s in satisfied]}"
        )
    return best[0]


@dataclass(frozen=True)
class DichotomyVerdict:
    """Which side of the tractability frontier a base falls on."""

    side: str  # EASY | HARD
    easy_class: str | None = None  # MONOTONE | LINEAR | ZERO_SEPARATING
    hard_variant: str | None = None  # S12 | D1 | S02K
    hard_k: int | None = None
    quantified: bool = False

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

    Unquantified, connectivity is polynomial iff the base consists of
    monotone functions, of affine functions, or of 0-separating functions;
    with quantifiers the 0-separating escape hatch disappears.  On the
    hard side a reduction variant is picked: all functions self-dual
    selects D1, a common 0-separation degree k >= 2 selects S02K(k),
    anything else S12.
    """
    _check_arities(base)
    reports = [property_report(f, degree_bound) for f in base.tables]
    if all(r.monotone for r in reports):
        return DichotomyVerdict("EASY", easy_class="MONOTONE", quantified=quantified)
    if all(r.affine for r in reports):
        return DichotomyVerdict("EASY", easy_class="LINEAR", quantified=quantified)
    if not quantified and all(r.separating0 for r in reports):
        return DichotomyVerdict("EASY", easy_class="ZERO_SEPARATING", quantified=quantified)
    if all(r.self_dual for r in reports):
        return DichotomyVerdict("HARD", hard_variant="D1", quantified=quantified)
    common_k = degree_bound
    for r in reports:
        d = r.sep_degree0
        if d == ALL:
            continue
        common_k = min(common_k, d if isinstance(d, int) else 0)
    if common_k >= 2:
        return DichotomyVerdict(
            "HARD", hard_variant="S02K", hard_k=common_k, quantified=quantified
        )
    return DichotomyVerdict("HARD", hard_variant="S12", quantified=quantified)


def closure_rounds(base: BaseSet, m: int, known: dict):
    """Semi-naive least fixpoint of the base's functions over m-ary tables.

    `known` maps each realized table to the caller's data for it, seeds
    first.  Rounds come as `(applications, tuples)`; `tuples` iterates
    `(name, args, out)`: base function `name` applied to `args`, a tuple
    of `(complement, table)` pairs, gives table `out`.  A round builds
    only the argument tuples holding a table new in the previous round
    (all seeds are new in the first): position i takes the first new
    table, earlier ones old tables, later ones any table, so each tuple
    comes once.  They are the round's applications, counted up front;
    arity-0 functions apply in the first round only, as no application.
    The caller consumes a round (or stops early), then adds the tables it
    accepts to `known`; the rounds end when one adds none.
    """
    full = (1 << (1 << m)) - 1
    # one pattern per row f maps to 1: AND the tables (bit 1) or complements (bit 0)
    ops = [
        (name, f.n, [[(r >> (f.n - j)) & 1 for j in range(1, f.n + 1)] for r in f.one_rows()])
        for name, f in base
    ]
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
    for name, k, rows in ops:
        if k == 0 and first:
            yield name, (), full if rows else 0
        for i in range(k):
            for args in product(*[old] * i, new, *[every] * (k - 1 - i)):
                out = 0
                for row in rows:
                    term = full
                    for pair, bit in zip(args, row):
                        term &= pair[bit]
                    out |= term
                yield name, args, out


def clone_closure(
    base: BaseSet, max_arity: int, budget: int | None = None
) -> frozenset[TruthTable]:
    """All functions of arity <= max_arity the base can express.

    Least fixpoint per ambient arity (closure_rounds): seed with the
    projections, then apply every base function to realized tables; an
    application is one argument tuple holding at least one table new in
    the previous round.  Every composite over x_1..x_m denotes an m-ary
    function, so exhausting each ambient arity is a complete closure
    within the bound.  Budget counts distinct tables across all arities;
    exceeding it raises without returning a partial set.
    """
    _check_arities(base)
    if max_arity < 0:
        raise UsageError("max_arity must be >= 0")
    result: set[TruthTable] = set()
    total = 0
    for m in range(max_arity + 1):
        known = dict.fromkeys(var_mask(m, j) for j in range(1, m + 1))
        for _, tuples in closure_rounds(base, m, known):
            new: dict[int, None] = {}
            for _, _, out in tuples:
                if out not in known and out not in new:
                    new[out] = None
                    if budget is not None and total + len(known) + len(new) > budget:
                        raise BudgetExceeded(f"closure exceeds {budget} tables at arity {m}")
                    if len(known) + len(new) == 1 << (1 << m):
                        break  # every m-ary table is realized
            known.update(new)
            if len(known) == 1 << (1 << m):
                break
        total += len(known)
        if budget is not None and total > budget:
            raise BudgetExceeded(f"closure exceeds {budget} tables at arity {m}")
        result.update(TruthTable(m, bits) for bits in known)
    return frozenset(result)
