"""Classification in the lattice of closed classes, closure, dispatch."""

import hashlib
import random
from itertools import combinations, islice, product

import pytest

import bconn.clones
import bconn.properties
from bconn import (
    ArityOverflow,
    BaseSet,
    BudgetExceeded,
    DegreeBoundTooSmall,
    DichotomyVerdict,
    STANDARD_BASE,
    TruthTable,
    UsageError,
    clone_closure,
    clone_identify,
    dispatch,
    parse_base_file,
    print_base_file,
    threshold_tt,
    tt_parse,
    tt_print,
)
from bconn.circuits import tabulate
from bconn.clones import _check_arities, _rounds
from bconn.errors import LIMITS
from bconn.properties import (
    ALL,
    is_affine,
    is_monotone,
    is_self_dual,
    is_separating,
    max_separation_degree,
    property_report,
    separating_coordinate,
)
from bconn.semantics import lower
from bconn.truthtable import mask_rows, var_mask

from conftest import mk_base, tt_of
from test_properties import reference_min_cover


def dual_threshold(k):
    return threshold_tt(k + 1, k, dualize=True)


def plain_threshold(k):
    return threshold_tt(k + 1, k)


# One known base per class.  Composite connectives, spelled as row text
# over (x, y, z):
#   x and (y <-> z)   -> 00001001
#   x or (y and ~z)   -> 00101111
#   x or (y and z)    -> 00011111
#   x and (y or ~z)   -> 00001011
#   x and (y or z)    -> 00000111
#   maj(x, ~y, ~z)    -> 10001110
#   maj(x, y, ~z)     -> 00101011
#   maj(x, y, z)      -> 00010111
#   x xor y xor z     -> 01101001
#   ~(x xor y xor z)  -> 10010110
NAMED_BASES = [
    ("BF", {"and": "0001", "not": "10"}),
    ("R0", {"and": "0001", "xor": "0110"}),
    ("R1", {"or": "0111", "eqv": "1001"}),
    ("R2", {"or": "0111", "f": "00001001"}),
    ("M", {"and": "0001", "or": "0111", "c0": "0", "c1": "1"}),
    ("M0", {"and": "0001", "or": "0111", "c0": "0"}),
    ("M1", {"and": "0001", "or": "0111", "c1": "1"}),
    ("M2", {"and": "0001", "or": "0111"}),
    ("S0", {"imp": "1101"}),
    ("S02", {"f": "00101111"}),
    ("S01", {"f": "00011111", "c1": "1"}),
    ("S00", {"f": "00011111"}),
    ("S1", {"nimp": "0010"}),
    ("S12", {"f": "00001011"}),
    ("S11", {"f": "00000111", "c0": "0"}),
    ("S10", {"f": "00000111"}),
    ("D", {"f": "10001110"}),
    ("D1", {"f": "00101011"}),
    ("D2", {"maj": "00010111"}),
    ("L", {"xor": "0110", "c1": "1"}),
    ("L0", {"xor": "0110"}),
    ("L1", {"eqv": "1001"}),
    ("L2", {"f": "01101001"}),
    ("L3", {"f": "10010110"}),
    ("E", {"and": "0001", "c0": "0", "c1": "1"}),
    ("E0", {"and": "0001", "c0": "0"}),
    ("E1", {"and": "0001", "c1": "1"}),
    ("E2", {"and": "0001"}),
    ("V", {"or": "0111", "c0": "0", "c1": "1"}),
    ("V0", {"or": "0111", "c0": "0"}),
    ("V1", {"or": "0111", "c1": "1"}),
    ("V2", {"or": "0111"}),
    ("N", {"not": "10", "c0": "0", "c1": "1"}),
    ("N2", {"not": "10"}),
    ("I", {"id": "01", "c0": "0", "c1": "1"}),
    ("I0", {"id": "01", "c0": "0"}),
    ("I1", {"id": "01", "c1": "1"}),
    ("I2", {"id": "01"}),
]


def degree_family_bases(k):
    return [
        (f"S0^{k}", {"imp": tt_of("1101"), "t": dual_threshold(k)}),
        (f"S02^{k}", {"f": tt_of("00101111"), "t": dual_threshold(k)}),
        (f"S01^{k}", {"t": dual_threshold(k), "c1": tt_of("1")}),
        (f"S00^{k}", {"f": tt_of("00011111"), "t": dual_threshold(k)}),
        (f"S1^{k}", {"nimp": tt_of("0010"), "t": plain_threshold(k)}),
        (f"S12^{k}", {"f": tt_of("00001011"), "t": plain_threshold(k)}),
        (f"S11^{k}", {"t": plain_threshold(k), "c0": tt_of("0")}),
        (f"S10^{k}", {"f": tt_of("00000111"), "t": plain_threshold(k)}),
    ]


@pytest.mark.parametrize("expected,entries", NAMED_BASES)
def test_named_bases_identify_their_classes(expected, entries):
    assert clone_identify(mk_base(entries)) == expected


@pytest.mark.parametrize(
    "expected,entries",
    [case for k in (2, 3) for case in degree_family_bases(k)],
)
def test_degree_family_bases_identify_their_classes(expected, entries):
    assert clone_identify(BaseSet(entries)) == expected


def test_degree_families_collapse_at_the_degree_bound():
    assert clone_identify(BaseSet({"t": dual_threshold(5)})) == "S00^5"
    base = BaseSet({"t": dual_threshold(5), "c1": tt_of("1")})
    assert clone_identify(base, degree_bound=8) == "S01^5"
    # bounding the tracked degree below the true one coarsens the answer
    assert clone_identify(base, degree_bound=3) == "S01^3"


def test_identify_prefers_the_smallest_class():
    assert clone_identify(mk_base(["and"])) == "E2"
    assert clone_identify(mk_base(["maj"])) == "D2"
    assert clone_identify(mk_base(["c1"])) == "I1"
    assert clone_identify(mk_base(["id", "not"])) == "N2"


def test_identify_union_of_bases_lands_in_the_join():
    assert clone_identify(mk_base(["and", "or", "not"])) == "BF"
    assert clone_identify(mk_base(["xor", "and"])) == "R0"
    assert clone_identify(mk_base(["imp", "nimp"])) == "BF"


def test_closure_of_xor_is_the_zero_constant_linear_forms():
    got = {(f.n, tt_print(f)) for f in clone_closure(mk_base(["xor"]), 2)}
    assert got == {(1, "00"), (1, "01"), (2, "0000"), (2, "0011"), (2, "0101"), (2, "0110")}


def test_closure_of_and_or_is_the_monotone_fence():
    got = {(f.n, tt_print(f)) for f in clone_closure(mk_base(["and", "or"]), 2)}
    assert got == {(1, "01"), (2, "0011"), (2, "0101"), (2, "0001"), (2, "0111")}


def test_closure_of_not_is_literals():
    got = {(f.n, tt_print(f)) for f in clone_closure(mk_base(["not"]), 2)}
    assert got == {(1, "01"), (1, "10"), (2, "0011"), (2, "0101"), (2, "1100"), (2, "1010")}


def test_closure_of_majority_keeps_only_projections_at_arity_two():
    got = {(f.n, tt_print(f)) for f in clone_closure(mk_base(["maj"]), 2)}
    assert got == {(1, "01"), (2, "0011"), (2, "0101")}


def test_closure_of_implication_is_every_zero_separating_table():
    closure = clone_closure(mk_base(["imp"]), 2)
    two_ary = {tt_print(f) for f in closure if f.n == 2}
    separating = {
        tt_print(TruthTable(2, bits))
        for bits in range(16)
        if separating_coordinate(TruthTable(2, bits), 0) is not None
    }
    assert two_ary == separating
    assert len(two_ary) == 6


def test_closure_includes_zero_ary_constants_from_constants():
    closure = clone_closure(mk_base(["c1"]), 1)
    assert (0, "1") in {(f.n, tt_print(f)) for f in closure}


def test_closure_budget_is_enforced(monkeypatch):
    monkeypatch.setitem(LIMITS, "closure tables", 20)
    with pytest.raises(BudgetExceeded, match="^25 closure tables over the limit of 20$"):
        clone_closure(mk_base(["and", "or", "not"]), 3)
    with pytest.raises(UsageError):
        clone_closure(mk_base(["and"]), -1)


def naive_closure(base, max_arity):
    """The closure fixpoint without semi-naive rounds: every tuple over the
    known tables, kept when it holds a table new in the last round."""
    out = set()
    for m in range(max_arity + 1):
        full = (1 << (1 << m)) - 1
        known = {var_mask(m, j) for j in range(1, m + 1)}
        fresh, first = set(known), True
        while fresh or first:
            new = set()
            for _, f in base:
                if f.n == 0:
                    if first:
                        new.add(full if f.bits else 0)
                    continue
                for args in product(sorted(known), repeat=f.n):
                    if any(a in fresh for a in args):
                        new.add(tabulate(lower(f), list(args), 1 << m))
            fresh, first = new - known, False
            known |= fresh
        out.update(TruthTable(m, bits) for bits in known)
    return frozenset(out)


@pytest.mark.parametrize("bits", [format(i, "04b") for i in range(16)])
def test_closure_matches_the_naive_fixpoint_on_binary_bases(bits):
    base = mk_base({"f": bits})
    assert clone_closure(base, 2) == naive_closure(base, 2)


def test_closure_matches_the_naive_fixpoint_on_a_multiplexer():
    base = mk_base({"mux": "01010011"})  # x1 ? x2 : x3
    got = clone_closure(base, 3)
    assert got == naive_closure(base, 3)
    assert len(got) == 1 + 4 + 64  # the clone R2 at arities 1, 2, 3


def applications(groups):
    """A round's (name, args, out) tuples: each _rounds group expanded."""
    for name, head, g0, d, last in groups:
        if last is None:
            yield name, head, g0
            continue
        for t in last:
            yield name, head + (t,), g0 ^ (d & t[1])


def expanded_rounds(base, m, known):
    """_rounds with each round's groups expanded into applications."""
    for count, groups in _rounds(base, m, known):
        yield count, applications(groups)


def row_pattern_rounds(base, m, known):
    """expanded_rounds with the row-pattern kernel: every application ANDs,
    for each one-row, the row's choice of table or complement at every
    position, and ORs the rows."""
    full = (1 << (1 << m)) - 1
    ops = [
        (name, f.n, [[(r >> (f.n - j)) & 1 for j in range(1, f.n + 1)] for r in f.one_rows()])
        for name, f in base
    ]
    old, first = [], True
    while True:
        new = [(full ^ t, t) for t in islice(known, len(old), None)]
        if not (new or first):
            return
        every = old + new
        applications = sum(len(every) ** k - len(old) ** k for _, k, _ in ops)
        yield applications, row_pattern_round(ops, old, new, every, full, first)
        old, first = every, False


def row_pattern_round(ops, old, new, every, full, first):
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


def logged_rounds(rounds, base, m, take=2, max_rounds=5):
    """Every round's count and full (name, args, out) list; after each
    round only the first `take` new tables join, so rounds stay small."""
    known = dict.fromkeys(var_mask(m, j) for j in range(1, m + 1))
    log = []
    for count, tuples in islice(rounds(base, m, known), max_rounds):
        got = list(tuples)
        log.append((count, got))
        fresh = dict.fromkeys(out for _, _, out in got if out not in known)
        known.update(dict.fromkeys(islice(fresh, take)))
    return log


def _random_bases(count, seed=13):
    rng = random.Random(seed)
    for _ in range(count):
        arities = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        yield {
            f"f{i}": format(rng.getrandbits(1 << a), f"0{1 << a}b") for i, a in enumerate(arities)
        }


KERNEL_BASES = [
    {"c0": "0", "c1": "1"},
    {"c1": "1", "f": "0110"},
    {"zero2": "0000", "zero3": "00000000"},
    {"one2": "1111", "one4": "1" * 16},
    {"one1": "11", "zero1": "00", "c0": "0"},
    *_random_bases(24),
]


@pytest.mark.parametrize("entries", KERNEL_BASES)
def test_closure_rounds_pin_the_row_pattern_kernel(entries):
    base = mk_base(entries)
    for m in range(4):
        want = logged_rounds(row_pattern_rounds, base, m)
        assert logged_rounds(expanded_rounds, base, m) == want


def test_closure_members_satisfy_the_identified_class_predicate(monkeypatch):
    # everything the search realizes must still satisfy the class atoms
    monkeypatch.setitem(LIMITS, "closure tables", 100_000)
    for names in (["imp"], ["xor"], ["and", "or"], ["maj"]):
        base = mk_base(names)
        cls = clone_identify(base)
        for f in clone_closure(base, 3):
            single = BaseSet({"f": f})
            # the singleton's class sits at or below the base's class
            merged = BaseSet({"f": f, **dict(base)})
            assert clone_identify(merged) == cls


def test_dispatch_easy_classes():
    assert dispatch(mk_base(["and", "or"])).describe() == "EASY(MONOTONE)"
    assert dispatch(mk_base(["xor"])).describe() == "EASY(LINEAR)"
    assert dispatch(mk_base(["eqv"])).describe() == "EASY(LINEAR)"
    assert dispatch(mk_base(["imp"])).describe() == "EASY(ZERO_SEPARATING)"
    assert dispatch(mk_base(["not"])).describe() == "EASY(LINEAR)"
    assert dispatch(mk_base(["id"])).describe() == "EASY(MONOTONE)"


def test_dispatch_hard_variants():
    assert dispatch(mk_base(["nimp"])).describe() == "HARD(S12)"
    assert dispatch(mk_base({"f": "00101011"})).describe() == "HARD(D1)"
    assert dispatch(mk_base({"f": "00101111", "t": tt_print(dual_threshold(2))})).describe() == "HARD(S02K(2))"
    assert dispatch(mk_base(["and", "or", "not"])).describe() == "HARD(S12)"


def test_dispatch_quantified_drops_the_zero_separating_escape():
    base = mk_base(["imp"])
    assert dispatch(base).side == "EASY"
    q = dispatch(base, quantified=True)
    assert q.side == "HARD"
    assert q.describe() == "HARD(S02K(8))"
    # monotone and linear survive quantification
    assert dispatch(mk_base(["and", "or"]), quantified=True).side == "EASY"
    assert dispatch(mk_base(["xor"]), quantified=True).side == "EASY"


def test_dispatch_hard_k_respects_degree_bound():
    base = mk_base({"f": "00101111", "t": tt_print(dual_threshold(4))})
    assert dispatch(base).hard_k == 4
    assert dispatch(base, degree_bound=3).hard_k == 3


def reference_dispatch(base, quantified=False, degree_bound=8):
    """dispatch read off the property predicates of each function, with
    neither property_report nor the atoms."""
    _check_arities(base)
    if degree_bound < 2:
        raise DegreeBoundTooSmall(f"degree bound {degree_bound} < 2")
    fs = base.tables
    if all(is_monotone(f) for f in fs):
        return DichotomyVerdict("EASY", easy_class="MONOTONE", quantified=quantified)
    if all(is_affine(f) for f in fs):
        return DichotomyVerdict("EASY", easy_class="LINEAR", quantified=quantified)
    if not quantified and all(is_separating(f, 0) for f in fs):
        return DichotomyVerdict("EASY", easy_class="ZERO_SEPARATING", quantified=quantified)
    if all(is_self_dual(f) for f in fs):
        return DichotomyVerdict("HARD", hard_variant="D1", quantified=quantified)
    common_k = degree_bound
    for f in fs:
        d = max_separation_degree(f, 0)
        if d != ALL:
            common_k = min(common_k, d)
    if common_k >= 2:
        return DichotomyVerdict("HARD", hard_variant="S02K", hard_k=common_k, quantified=quantified)
    return DichotomyVerdict("HARD", hard_variant="S12", quantified=quantified)


def outcome(fn, *args, **kwargs):
    """fn's answer, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # compared with what the reference raised
        return type(e), str(e)


# every table of arity <= 2: the constants, the unary and the binary ones
SMALL_TABLES = ["0", "1"] + [format(i, f"0{w}b") for w in (2, 4) for i in range(1 << w)]
# the 509 bases the answers of classify are pinned on: every ternary
# function alone, and every table of arity <= 2 alone and in pairs
ORACLE_509 = (
    [{"f": format(i, "08b")} for i in range(256)]
    + [{"f": a} for a in SMALL_TABLES]
    + [{"f": a, "g": b} for a, b in combinations(SMALL_TABLES, 2)]
)


def random_dispatch_bases(count, seed=811):
    """Bases of one to three functions of arity 0-5, many of them
    0-separating (a row block forced to 1) or dual thresholds, so the
    degree branches of dispatch are reached."""
    rng = random.Random(seed)
    for _ in range(count):
        entries = {}
        for i in range(rng.randint(1, 3)):
            a = rng.randint(0, 5)
            kind = rng.random()
            if kind < 0.25 and a >= 3:
                f = dual_threshold(a - 1)
            else:
                bits = rng.getrandbits(1 << a)
                if kind < 0.7 and a:
                    bits |= var_mask(a, rng.randint(1, a))
                f = TruthTable(a, bits)
            entries[f"f{i}"] = f
        yield BaseSet(entries)


def test_dispatch_agrees_with_the_flag_reference():
    bases = [mk_base(entries) for entries in ORACLE_509] + list(random_dispatch_bases(302))
    seen = set()
    for base in bases:
        for quantified, bound in product((False, True), (1, 2, 3, 8, 20)):
            got = outcome(dispatch, base, quantified=quantified, degree_bound=bound)
            want = outcome(reference_dispatch, base, quantified=quantified, degree_bound=bound)
            assert got == want, (base, quantified, bound)
            seen.add(got.describe() if isinstance(got, DichotomyVerdict) else got[0].__name__)
    # every verdict and the refused bound are among the cases compared
    assert {"HARD(S12)", "HARD(D1)", "DegreeBoundTooSmall", "EASY(ZERO_SEPARATING)"} <= seen
    assert {"HARD(S02K(2))", "HARD(S02K(3))", "HARD(S02K(20))"} <= seen


def test_classify_answers_on_the_oracle_bases_are_pinned():
    # clone_identify and both dispatches, digested over the 509 bases
    h = hashlib.sha256()
    for entries in ORACLE_509:
        base = mk_base(entries)
        plain, quant = dispatch(base), dispatch(base, quantified=True)
        h.update(f"{clone_identify(base)} {plain.describe()} {quant.describe()}\n".encode())
    assert len(ORACLE_509) == 509
    assert h.hexdigest() == "a0b078ce8d1686fd57de223a9f66da12d102fe061805bad9b952701f59105c1e"


def test_arity_overflow_is_rejected():
    with pytest.raises(ArityOverflow):
        clone_identify(BaseSet({"f": TruthTable(31, 0)}))


def test_base_file_round_trip(tmp_path):
    base = mk_base(["and", "not"])
    text = print_base_file(base)
    again = parse_base_file(text)
    assert list(again) == list(base)
    assert clone_identify(again) == "BF"


def test_standard_base_is_complete():
    assert clone_identify(STANDARD_BASE) == "BF"
    names = dict(STANDARD_BASE)
    assert "and" in names and "or" in names and "not" in names


# --- the lattice order, through clone_identify ------------------------------

CLASS_BASES = {
    name: {fn: tt_of(t) if isinstance(t, str) else t for fn, t in entries.items()}
    for name, entries in NAMED_BASES + degree_family_bases(2) + degree_family_bases(3)
}


def included(a, b):
    """A is a subclass of B: joining A's generators to B's stays in B."""
    merged = {f"a_{fn}": t for fn, t in CLASS_BASES[a].items()}
    merged.update((f"b_{fn}", t) for fn, t in CLASS_BASES[b].items())
    return clone_identify(BaseSet(merged)) == b


def test_the_classes_maximal_below_bf_are_posts_five():
    below = [a for a in CLASS_BASES if a != "BF"]
    maximal = {a for a in below if not any(b != a and included(a, b) for b in below)}
    assert maximal == {"R0", "R1", "M", "D", "L"}


def test_the_classes_covering_i2_are_the_seven_minimal_clones():
    above = [a for a in CLASS_BASES if a != "I2"]
    assert all(included("I2", a) for a in above)
    minimal = {a for a in above if not any(b != a and included(b, a) for b in above)}
    assert minimal == {"I0", "I1", "N2", "E2", "V2", "D2", "L2"}


@pytest.mark.parametrize("quantified", [False, True])
def test_dispatch_is_easy_exactly_below_m_l_or_unquantified_s0(quantified):
    for name, entries in CLASS_BASES.items():
        easy = included(name, "M") or included(name, "L")
        easy = easy or (not quantified and included(name, "S0"))
        side = dispatch(BaseSet(entries), quantified=quantified).side
        assert (side == "EASY") == easy, name


TERNARY_GENERATORS = dict.fromkeys(
    t for _, entries in NAMED_BASES for t in entries.values() if len(t) == 8
)
ORACLE_BASES = [{"f": format(i, "04b")} for i in range(16)] + [
    {"f": t} for t in TERNARY_GENERATORS
]


@pytest.mark.parametrize("entries", ORACLE_BASES)
def test_identify_agrees_with_the_closure_to_arity_three(entries):
    base = mk_base(entries)
    closure = sorted(clone_closure(base, 3), key=lambda f: (f.n, f.bits))
    closed = BaseSet({f"f{i}": f for i, f in enumerate(closure)})
    assert clone_identify(closed) == clone_identify(base)


def test_identify_agrees_with_the_closure_on_every_pair_of_arity_two_or_less():
    mismatches = []
    for a, b in combinations(SMALL_TABLES, 2):
        base = mk_base({"f": a, "g": b})
        closure = sorted(clone_closure(base, 3), key=lambda f: (f.n, f.bits))
        closed = BaseSet({f"f{i}": f for i, f in enumerate(closure)})
        if clone_identify(closed) != clone_identify(base):
            mismatches.append((a, b))
    assert len(SMALL_TABLES) == 22 and not mismatches


def test_each_class_is_the_closure_of_its_generators_at_arities_one_to_three():
    """For each of the 54 classes at degree cap 3, the functions of arity
    1-3 its generators express are those whose atoms hold its signature.
    Arity 0 is left out: 11 classes lack 0-ary constants their atoms admit."""
    tables = [TruthTable(a, bits) for a in (1, 2, 3) for bits in range(1 << (1 << a))]
    atoms = {f: property_report(f, 3) for f in tables}
    signatures = bconn.clones._signatures(3)
    mismatches = []
    for signature, name in signatures.items():
        fixed, _, k = name.partition("^")
        gens = [tt_of(t) for t in bconn.clones._GENERATORS[fixed]]
        if k:
            gens.append(threshold_tt(int(k) + 1, int(k), dualize=fixed[1] == "0"))
        base = BaseSet({f"g{i}": g for i, g in enumerate(gens)})
        got = {f for f in clone_closure(base, 3) if f.n >= 1}
        if got != {f for f in tables if signature <= atoms[f]}:
            mismatches.append(name)
    assert len(signatures) == 54 and not mismatches


def test_signatures_match_the_table_the_pairwise_cover_search_builds(monkeypatch):
    """The signature table at every degree cap 2..12 is the one built when
    each separation degree comes from the pairwise cover search that the
    lattice search replaced."""
    got = {d: bconn.clones._signatures(d) for d in range(2, 13)}
    memo = {}

    def pairwise(present, n):
        if (present, n) not in memo:
            memo[present, n] = reference_min_cover(set(mask_rows(present)), (1 << n) - 1)
        return memo[present, n]

    monkeypatch.setattr(bconn.properties, "_min_cover_size", pairwise)
    for d, table in got.items():
        assert bconn.clones._signatures.__wrapped__(d) == table, d
    assert memo  # the reference did the work
