"""Hard-side machinery: transforms, combiner, synthesizer, witnesses."""

import hashlib
import random
import time
import tracemalloc

import pytest

import bconn.clones
import bconn.reduce
from bconn import (
    BitVector,
    BudgetError,
    BudgetExceeded,
    CnfFormula,
    KTooLarge,
    NotASolution,
    NotOneReproducing,
    NotRealizable,
    TVariant,
    TruthTable,
    UsageError,
    apply_t_relation,
    clone_closure,
    cnf_to_formula,
    diameter,
    enumerate_solutions,
    evaluate,
    formula_size,
    gen_expdiam,
    is_induced_path,
    parse_formula,
    print_formula,
    property_report,
    shift_to_one_reproducing,
    synth_bformula,
    t_transform,
    tr_combine,
    truth_table_of,
)
from bconn.clones import BaseSet, _rounds, dispatch
from bconn.errors import LIMITS
from bconn.properties import ALL
from bconn.reduce import _gates_of, _synth_search
from bconn.truthtable import replace, var_mask

from conftest import (
    spelled,
    STD_BASE,
    compact_cnf,
    cube_labels,
    mk_base,
    rand_three_cnf,
    shannon_fallback,
    tt_of,
)
from test_clones import applications, expanded_rounds, outcome

S12 = TVariant("S12")
# the 3-clause CNF the hard-side sweep (this file's __main__) reduces over every base
SWEEP_CNF = CnfFormula(4, ((1, -2, 3), (2, 3, -4), (1, 4)))
D1 = TVariant("D1")
S02Q = TVariant("S02Q")


def s02k(k):
    return TVariant("S02K", k)


# ---------------------------------------------------------------------------
# TVariant plumbing.


def test_variant_validation():
    with pytest.raises(UsageError):
        TVariant("S03")
    with pytest.raises(UsageError):
        TVariant("S02K")
    with pytest.raises(UsageError):
        TVariant("S02K", 1)
    with pytest.raises(UsageError):
        TVariant("S12", 2)


def test_variant_sizes_and_pads():
    assert S12.new_var_count == 1 and S12.pad_vector() == "1"
    assert D1.new_var_count == 3 and D1.pad_vector() == "111"
    assert s02k(2).new_var_count == 4 and s02k(2).pad_vector() == "1000"
    assert s02k(4).new_var_count == 6 and s02k(4).pad_vector() == "100000"
    assert S02Q.new_var_count == 2 and S02Q.pad_vector() == "1"
    assert S02Q.prefix(5) == (("A", 7),)
    assert S12.prefix(5) is None and D1.prefix(5) is None and s02k(2).prefix(5) is None
    assert str(s02k(3)) == "S02K(3)"
    assert str(D1) == "D1"


# ---------------------------------------------------------------------------
# 1-reproducing normalization.


def test_shift_examples():
    assert shift_to_one_reproducing(CnfFormula(1, ((-1,),)), BitVector.parse("0")) == CnfFormula(
        1, ((1,),)
    )
    phi = CnfFormula(2, ((1, 2), (-1, 2)))
    assert shift_to_one_reproducing(phi, BitVector.parse("11")) == phi
    shifted = shift_to_one_reproducing(CnfFormula(2, ((-1, -2),)), BitVector.parse("00"))
    assert shifted == CnfFormula(2, ((1, 2),))
    assert shifted.is_one_reproducing()


def test_shift_rejects_non_solutions():
    with pytest.raises(NotASolution):
        shift_to_one_reproducing(CnfFormula(1, ((1,),)), BitVector.parse("0"))
    with pytest.raises(UsageError):
        shift_to_one_reproducing(CnfFormula(2, ((1,),)), BitVector.parse("0"))


def test_shift_preserves_graph_shape():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 7)
        phi = rand_three_cnf(rng, n, rng.randint(1, 8))
        sols = enumerate_solutions(phi, STD_BASE, n)
        if not sols.words:
            continue
        s = BitVector(n, rng.choice(sols.words))
        psi = shift_to_one_reproducing(phi, s)
        assert evaluate(psi, STD_BASE, BitVector(n, (1 << n) - 1)) == 1
        moved = enumerate_solutions(psi, STD_BASE, n)
        assert len(moved) == len(sols)
        # the coordinatewise xor map is the isomorphism
        mask = s.word ^ ((1 << n) - 1)
        assert set(moved.words) == {w ^ mask for w in sols.words}
        assert diameter(moved) == diameter(sols)


# ---------------------------------------------------------------------------
# The four displayed transforms.


def test_s12_transform_example():
    psi = parse_formula("or(x1,x2)", STD_BASE)
    out = t_transform(psi, S12)
    sols = enumerate_solutions(out, STD_BASE, 3)
    assert sols.texts() == ["011", "101", "111"]
    rep = property_report(truth_table_of(out, STD_BASE, 3))
    assert {"S1", "R0", "R1"} <= rep


def test_d1_transform_example():
    out = t_transform(parse_formula("x1", STD_BASE), D1)
    sols = enumerate_solutions(out, STD_BASE, 4)
    expected = {"1111", "1000", "0100", "1100", "0010", "1010", "1001", "1110"}
    assert set(sols.texts()) == expected
    rep = property_report(truth_table_of(out, STD_BASE, 4))
    assert {"D", "R0", "R1"} <= rep
    assert len(set(cube_labels(sols.words, 4).values())) == 1


def test_s02k_transform_properties():
    psi = parse_formula("or(x1,x2)", STD_BASE)
    for k in (2, 3):
        out = t_transform(psi, s02k(k))
        n = 2 + k + 2
        rep = property_report(truth_table_of(out, STD_BASE, n))
        assert {"R0", "R1"} <= rep
        # degree exactly k: the whole point of the z block
        assert ("S0d", k) in rep and ("S0d", k + 1) not in rep


def test_s02q_transform_shape():
    out = t_transform(parse_formula("x1", STD_BASE), S02Q)
    assert out.prefix == (("A", 3),) and out.dim == 2
    matrix = truth_table_of(replace(out, prefix=None), STD_BASE, 3)
    assert {"S0", "R0", "R1"} <= property_report(matrix)
    # all vectors that are not solutions of the matrix have z = 0
    for row in range(8):
        if not matrix.value(row):
            assert row & 1 == 0


def test_transform_requires_one_reproducing_input():
    psi = parse_formula("not(x1)", STD_BASE)
    for variant in (S12, D1, s02k(2)):
        with pytest.raises(NotOneReproducing):
            t_transform(psi, variant)
    # S02Q places no such requirement
    assert t_transform(psi, S02Q).prefix == (("A", 3),)


def test_transform_ambient_width_override():
    psi = parse_formula("x1", STD_BASE)
    out = t_transform(psi, S12, n0=3)  # x2, x3 fictive; y becomes x4
    sols = enumerate_solutions(out, STD_BASE, 4)
    assert all(w & 1 for w in sols.words)
    with pytest.raises(UsageError):
        t_transform(parse_formula("x2", STD_BASE), S12, n0=1)


# ---------------------------------------------------------------------------
# Synthesizer.


def test_synth_reproduces_and_from_nimp():
    base = mk_base({"h": "0010"})
    got = synth_bformula(tt_of("0001"), base)
    assert spelled(print_formula, got, base) == "h(x1,h(x1,x2))"


def test_synth_identity_is_a_projection():
    base = mk_base({"h": "0010"})
    assert spelled(print_formula, synth_bformula(tt_of("01"), base), base) == "x1"


def test_synth_certifies_or_unrealizable():
    base = mk_base({"h": "0010"})
    with pytest.raises(NotRealizable):
        synth_bformula(tt_of("0111"), base)
    closure = {f for f in clone_closure(base, 2) if f.n == 2}
    assert tt_of("0111") not in closure
    assert tt_of("0001") in closure


@pytest.fixture
def swap_limit(monkeypatch):
    """Sets a LIMITS entry for one test.  synth_bformula's cache is keyed
    on (target, base), so it is cleared before and after."""
    synth_bformula.cache_clear()
    yield lambda name, value: monkeypatch.setitem(LIMITS, name, value)
    synth_bformula.cache_clear()


def test_synth_budget_exhaustion_is_inconclusive(swap_limit):
    # xor is realizable from nimp but not at size 2, and nimp cannot
    # express "not", so the structural fallback fails too
    base = mk_base({"h": "0010"})
    swap_limit("synthesis nodes", 2)
    swap_limit("synthesis applications", 3)
    message = (
        "^4 synthesis applications over the limit of 3; "
        "the base does not yield not/and/or for a structural fallback$"
    )
    with pytest.raises(BudgetExceeded, match=message):
        synth_bformula(tt_of("0110"), base)


def test_synth_structural_fallback_over_a_complete_base(swap_limit):
    rng = random.Random(18)
    swap_limit("synthesis applications", 500)
    for _ in range(5):
        target = TruthTable(4, rng.randrange(1 << 16))
        got = synth_bformula(target, STD_BASE)
        assert truth_table_of(got, STD_BASE, 4) == target


@pytest.mark.parametrize(
    "base, limit",
    [
        (STD_BASE, 10),
        (mk_base(["nand"]), 25),
        (mk_base({"h": "0010", "c0": "0", "c1": "1"}), 196),
    ],
    ids=["not-and-or", "nand", "nimp-constants"],
)
def test_the_fallback_is_no_larger_than_shannon_expansion(swap_limit, base, limit):
    # `limit` applications are the fewest that still find the base's
    # not/and/or, so most targets of arity 2 and up are refused by the
    # search and spelled from their decision diagram; constants are drawn
    # often, since a random table is rarely one
    rng = random.Random(30)
    swap_limit("synthesis applications", limit)
    fired = set()
    for n in range(8):
        full = (1 << (1 << n)) - 1
        for _ in range(25):
            target = TruthTable(n, rng.choice((0, full)) if rng.random() < 0.1 else rng.randrange(full + 1))
            if not isinstance(outcome(_synth_search, target, base), tuple):
                continue  # the search answers: no fallback
            got = outcome(synth_bformula, target, base)
            if isinstance(got, tuple):  # a fixpoint of arity 0: neither builds anything
                assert n == 0 and got[0] is NotRealizable
                continue
            fired.add((n, target.bits in (0, full)))
            assert truth_table_of(got, base, n) == target
            assert formula_size(got) <= formula_size(shannon_fallback(target, base))
    assert {(n, False) for n in range(3, 8)} <= fired
    assert "c0" in base or (7, True) in fired  # a base constant is found, not spelled


@pytest.mark.parametrize("bits", ["11000000", "10100000", "10001000", "11111100", "11111010", "11101110"])
def test_the_s12_bases_the_old_fallback_spelled_too_large_get_an_output(bits):
    # Shannon expansion spelled their reduction of the sweep's CNF in
    # 857,264,731 nodes, past LIMITS["formula nodes"]
    base = BaseSet({"f": tt_of(bits)})
    got = tr_combine(SWEEP_CNF, S12, base)
    assert formula_size(got) <= LIMITS["formula nodes"]
    want = t_transform(cnf_to_formula(SWEEP_CNF), S12, n0=4)
    assert truth_table_of(got, base, 5) == truth_table_of(want, STD_BASE, 5)


def test_synth_is_deterministic():
    base = mk_base({"h": "0010"})
    a = synth_bformula(tt_of("0001"), base)
    b = synth_bformula(tt_of("0001"), base)
    assert spelled(print_formula, a, base) == spelled(print_formula, b, base)


def test_synth_cache_keeps_answers_apart_per_budget(monkeypatch, swap_limit):
    # the tight limit trips the search (xor's needs 406 applications), so
    # its answer is the fallback that spells xor's decision diagram, whose
    # searches share the limit (its "and" needs 10); with the cache
    # cleared, the default limit must still get the searched formula
    xor = tt_of("0110")
    swap_limit("synthesis applications", 100)
    fallback = synth_bformula(xor, STD_BASE)
    assert spelled(print_formula, fallback, STD_BASE) == "or(and(not(x1),x2),and(x1,not(x2)))"
    monkeypatch.undo()
    synth_bformula.cache_clear()
    assert spelled(print_formula, synth_bformula(xor, STD_BASE), STD_BASE) == "and(not(and(x1,x2)),or(x1,x2))"


@pytest.mark.parametrize(
    "bits, base, limit, want",
    [
        ("0110", STD_BASE, 406, "and(not(and(x1,x2)),or(x1,x2))"),
        ("0001", mk_base({"h": "0010"}), 25, "h(x1,h(x1,x2))"),
        (
            "01101001",
            STD_BASE,
            129286,
            "and(or(and(not(and(x1,x2)),or(x1,x2)),x3),"
            "or(not(or(x1,x2)),or(and(x1,x2),not(x3))))",
        ),
    ],
)
def test_synth_search_budget_boundary(swap_limit, bits, base, limit, want):
    # `limit` applications complete the round that realizes the target;
    # one fewer refuses that round whole
    target = tt_of(bits)
    swap_limit("synthesis applications", limit)
    assert spelled(print_formula, synth_bformula(target, base), base) == want
    swap_limit("synthesis applications", limit - 1)
    message = f"^{limit} synthesis applications over the limit of {limit - 1}$"
    with pytest.raises(BudgetExceeded, match=message):
        _synth_search(target, base)


def test_synth_search_passes_over_each_round_once(monkeypatch):
    # D1 of one clause runs out of budget over the standard base, so the
    # search scores every round it builds whole; each round, keyed by
    # (len(old), len(new)), is still passed over once
    passes = {}
    kernel = bconn.clones._round

    def counted(ops, old, new, every, full, first):
        key = (len(old), len(new))
        passes[key] = passes.get(key, 0) + 1
        yield from kernel(ops, old, new, every, full, first)

    monkeypatch.setattr(bconn.clones, "_round", counted)
    psi = cnf_to_formula(CnfFormula(3, ((1, -2, 3),)))
    target = truth_table_of(t_transform(psi, D1, n0=3), STD_BASE, 6)
    with pytest.raises(BudgetExceeded, match="^1391946 synthesis applications over the limit of 120000$"):
        _synth_search(target, STD_BASE)
    assert len(passes) >= 2 and set(passes.values()) == {1}


def reference_synth_search(target, base, max_size, max_applications):
    """_synth_search as it read the rounds one application at a time,
    summing every argument's size per application, under the given
    synthesis limits."""
    n = target.n
    known = {var_mask(n, j): (1, f"x{j}", None, j) for j in range(1, n + 1)}
    charged = 0
    skipped = []
    for count, tuples in expanded_rounds(base, n, known):
        if target.bits in known:
            return _gates_of(known, target.bits, base, n)
        charged += count
        if charged > max_applications:
            raise BudgetExceeded(
                f"{charged} synthesis applications over the limit of {max_applications}"
            )
        fresh = {}
        for name, args, out in tuples:
            size = 1
            for a in args:
                size += known[a][0]
            if size > max_size:
                skipped.append(size)
                continue
            if out in known:
                continue
            best = fresh.get(out)
            if best is not None and size > best[0]:
                continue
            text = f"{name}({','.join(known[a][1] for a in args)})" if args else name
            if best is None or (size, text) < best[:2]:
                fresh[out] = (size, text, name, args)
        known.update(fresh)
    if skipped:
        raise BudgetExceeded(f"{max(skipped)} synthesis nodes over the limit of {max_size}")
    raise NotRealizable(
        f"target is outside the base's closure at arity {n} ({len(known)} realizable tables)"
    )


def capped_synth_search(monkeypatch, target, base, max_size, max_applications):
    """_synth_search with its two LIMITS entries swapped to the given caps."""
    monkeypatch.setitem(LIMITS, "synthesis nodes", max_size)
    monkeypatch.setitem(LIMITS, "synthesis applications", max_applications)
    return _synth_search(target, base)


def round_ends(base, n, cap):
    """The cumulative application counts at which the rounds of an
    uncapped search over n-ary tables end, up to cap."""
    known = dict.fromkeys(var_mask(n, j) for j in range(1, n + 1))
    total, ends = 0, []
    for count, groups in _rounds(base, n, known):
        total += count
        if total > cap:
            break
        ends.append(total)
        known.update(dict.fromkeys(out for _, _, out in applications(groups)))
    return ends


def synth_cases(count, seed=1692):
    """Seeded (target, base, max_size, max_applications) cases: bases of one to three
    functions of arity 0-3 (the standard base among them), targets of
    arity 0-3, size caps from 1 up, and application limits at the end of
    a round, one under it, or drawn at random."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.15:
            base = STD_BASE
        else:
            arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
            base = mk_base({
                f"f{i}": format(rng.getrandbits(1 << a), f"0{1 << a}b") for i, a in enumerate(arities)
            })
        n = rng.choice([0, 1, 2, 2, 3, 3])
        target = TruthTable(n, rng.getrandbits(1 << n))
        max_size = rng.choice([1, 2, 3, 4, 6, 100_000, 100_000])
        cap = 4000 if n == 3 else 120_000
        ends = round_ends(base, n, cap)
        pick = rng.random()
        if ends and pick < 0.6:
            limit = rng.choice(ends) - (pick < 0.3)
        else:
            limit = rng.randint(1, cap)
        yield target, base, max_size, max(limit, 1)


def test_synth_search_agrees_with_the_per_application_reference(monkeypatch):
    kinds = set()
    for target, base, *limits in synth_cases(1692):
        got = outcome(capped_synth_search, monkeypatch, target, base, *limits)
        want = outcome(reference_synth_search, target, base, *limits)
        if isinstance(got, tuple):
            kinds.add(next(w for w in ("applications", "nodes", "outside") if w in got[1]))
        else:
            got, want = spelled(print_formula, got, base), spelled(print_formula, want, base)
            kinds.add("found")
        assert got == want, (target, base, limits)
    # found, refused per application and per size, and certified outside
    assert kinds == {"found", "applications", "nodes", "outside"}


@pytest.mark.parametrize(
    "target, entries, budget, want",
    [
        # the round that first gives the target gives it only over the
        # size cap, and the next passes the application limit: the search
        # must go on past that round, not stop there as if it had found it
        (
            TruthTable(2, 11),
            {"f0": "0", "f1": "11100001"},
            (3, 8),  # max_size, max_applications
            (BudgetExceeded, "27 synthesis applications over the limit of 8"),
        ),
    ],
)
def test_synth_search_agrees_with_the_reference_at_the_size_cap(
    monkeypatch, target, entries, budget, want
):
    base = mk_base(entries)
    assert outcome(reference_synth_search, target, base, *budget) == want
    assert outcome(capped_synth_search, monkeypatch, target, base, *budget) == want


# ---------------------------------------------------------------------------
# Balanced combiner.


def variants_all():
    return (S12, D1, s02k(2), S02Q)


def matrix_of(gl):
    """The gates without their prefix: for S02Q, the matrix."""
    return replace(gl, prefix=None)


def test_tr_single_clause_is_the_leaf_transform():
    phi = CnfFormula(2, ((1, 2),))
    stats = {}
    got = tr_combine(phi, S12, STD_BASE, stats=stats)
    want = t_transform(cnf_to_formula(phi), S12, n0=2)
    assert truth_table_of(got, STD_BASE, 3) == truth_table_of(want, STD_BASE, 3)
    assert stats["depth"] == 0


def test_tr_example_two_clauses():
    phi = CnfFormula(2, ((1, 2), (-1, 2)))
    stats = {}
    got = tr_combine(phi, S12, STD_BASE, stats=stats)
    want = t_transform(cnf_to_formula(phi), S12, n0=2)
    assert truth_table_of(got, STD_BASE, 3) == truth_table_of(want, STD_BASE, 3)
    assert stats["depth"] == 1
    assert stats["size"] > 0


def test_tr_depth_is_logarithmic():
    phi = CnfFormula(3, ((1,), (2,), (3,), (1, 2)))
    stats = {}
    tr_combine(phi, S12, STD_BASE, stats=stats)
    assert stats["depth"] == 2
    stats5 = {}
    tr_combine(CnfFormula(3, ((1,),) * 5), S12, STD_BASE, stats=stats5)
    assert stats5["depth"] == 3


def test_tr_matches_transform_for_every_variant():
    rng = random.Random(19)
    for _ in range(4):
        n = rng.randint(2, 4)
        phi = rand_three_cnf(rng, n, rng.randint(1, 4))
        for variant in variants_all():
            got = tr_combine(phi, variant, STD_BASE)
            want = t_transform(cnf_to_formula(phi), variant, n0=n)
            assert got.prefix == want.prefix == variant.prefix(n), (phi, str(variant))
            width = n + variant.new_var_count  # S02Q matrix keeps z as a position
            assert truth_table_of(matrix_of(got), STD_BASE, width) == truth_table_of(
                matrix_of(want), STD_BASE, width
            ), (phi, str(variant))


def test_tr_builds_large_reductions_as_few_gates():
    # the outputs unfold to hundreds of thousands of formula nodes (the
    # sizes the tree representation counted) but are a few hundred gates,
    # never printed here
    phi = rand_three_cnf(random.Random(12), 12, 32)
    psi = cnf_to_formula(phi)
    for variant, size in ((D1, 1_042_046), (s02k(3), 260_403)):
        stats = {}
        got = tr_combine(phi, variant, STD_BASE, stats=stats)
        assert len(got.gates) < 2000
        assert stats == {"depth": 5, "size": size}
        width = 12 + variant.new_var_count
        want = t_transform(psi, variant, n0=12)
        assert truth_table_of(got, STD_BASE, width) == truth_table_of(want, STD_BASE, width)


def hard_single_bases(arities=(2, 3)):
    """Every single-function base of the given arities on the hard side,
    unquantified, with the transform variant dispatch names for it."""
    for a in arities:
        for bits in range(1 << (1 << a)):
            base = BaseSet({"f": TruthTable(a, bits)})
            verdict = dispatch(base)
            if verdict.side == "HARD":
                yield base, TVariant(verdict.hard_variant, verdict.hard_k)


def printed_reduction(phi, variant, base):
    """print_formula of tr_combine's output, synthesized afresh, or the
    type and message of what it raised."""
    synth_bformula.cache_clear()
    got = outcome(tr_combine, phi, variant, base)
    return got if isinstance(got, tuple) else spelled(print_formula, got, base)


def test_tr_agrees_with_the_per_application_reference_search(monkeypatch):
    phi = CnfFormula(3, ((1, -2), (2, 3)))
    rng = random.Random(8)
    bases = list(hard_single_bases((2,))) + rng.sample(list(hard_single_bases((3,))), 40)
    got = [printed_reduction(phi, variant, base) for base, variant in bases]
    monkeypatch.setattr(
        bconn.reduce,
        "_synth_search",
        lambda target, base: reference_synth_search(
            target, base, LIMITS["synthesis nodes"], LIMITS["synthesis applications"]
        ),
    )
    want = [printed_reduction(phi, variant, base) for base, variant in bases]
    synth_bformula.cache_clear()  # no reference answer outlives the patch
    assert got == want
    # outputs and refusals both
    assert {type(w) for w in want} == {str, tuple}


@pytest.mark.parametrize("variant", [S12, S02Q], ids=str)
def test_tr_synthesis_peak_stays_small(variant):
    # a round that reaches the target scores only the candidates that
    # give it; scoring that whole round peaks near 1 MB
    phi = CnfFormula(4, ((1, -2, 3), (2, 3, -4), (1, 4)))
    synth_bformula.cache_clear()
    tracemalloc.start()
    try:
        tr_combine(phi, variant, STD_BASE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024


def test_tr_guards():
    with pytest.raises(UsageError):
        tr_combine(CnfFormula(4, ((1, 2, 3, 4),)), S12, STD_BASE)
    with pytest.raises(NotOneReproducing):
        tr_combine(CnfFormula(2, ((-1, -2),)), S12, STD_BASE)
    with pytest.raises(UsageError):
        tr_combine(CnfFormula(0, ()), S12, STD_BASE)


def test_tr_empty_clause_list_is_a_tautology_leaf():
    phi = CnfFormula(2, ())
    got = tr_combine(phi, S12, STD_BASE)
    want = matrix_of(t_transform(cnf_to_formula(phi), S12, n0=2))
    assert truth_table_of(got, STD_BASE, 3) == truth_table_of(want, STD_BASE, 3)


# ---------------------------------------------------------------------------
# Exponential-diameter witness.


def test_expdiam_small_cases_pinned():
    assert gen_expdiam(1).texts() == ["00", "01", "11"]
    got = gen_expdiam(2)
    assert set(got.texts()) == {"1111", "0111", "0011", "0001", "0000", "0100", "1100"}
    order = is_induced_path(got)
    assert [v.text for v in order] == [
        "1111",
        "0111",
        "0011",
        "0001",
        "0000",
        "0100",
        "1100",
    ]


def test_expdiam_contract():
    for k in range(1, 9):
        s = gen_expdiam(k)
        assert s.n == 2 * k
        assert len(s) == (1 << (k + 1)) - 1
        assert ((1 << s.n) - 1) in s.words  # all-ones is a vertex
        assert is_induced_path(s) is not None
        assert diameter(s) == (1 << (k + 1)) - 2


def test_expdiam_bounds():
    with pytest.raises(KTooLarge):
        gen_expdiam(0)
    with pytest.raises(KTooLarge):
        gen_expdiam(15)


# ---------------------------------------------------------------------------
# Relation-level transform.


def test_apply_t_relation_pinned_examples():
    r1 = enumerate_solutions(parse_formula("x1", STD_BASE), STD_BASE, 1)
    assert apply_t_relation(r1, S12).texts() == ["11"]
    d1 = apply_t_relation(r1, D1)
    assert set(d1.texts()) == {
        "1111",
        "1000",
        "0100",
        "1100",
        "0010",
        "1010",
        "1001",
        "1110",
    }
    assert len(set(cube_labels(d1.words, 4).values())) == 1


def test_apply_t_relation_agrees_with_the_formula_transform():
    # compacting makes the guard patterns of the two transform flavors
    # range over the same coordinates
    rng = random.Random(20)
    for _ in range(12):
        phi = compact_cnf(rand_three_cnf(rng, rng.randint(1, 5), rng.randint(1, 5)))
        n = phi.n
        r = enumerate_solutions(phi, STD_BASE, n)
        if ((1 << n) - 1) not in r.words:
            continue
        psi = cnf_to_formula(phi)
        for variant in (S12, D1, s02k(2), s02k(3)):
            got = apply_t_relation(r, variant)
            want = enumerate_solutions(
                t_transform(psi, variant, n0=n), STD_BASE, n + variant.new_var_count
            )
            assert got == want, (phi, str(variant))


def test_apply_t_relation_preserves_expdiam_diameter():
    r = gen_expdiam(2)
    out = apply_t_relation(r, S12)
    assert out.n == 5 and len(out) == 7
    assert diameter(out) == 6


def test_apply_t_relation_guards():
    r = enumerate_solutions(parse_formula("x1", STD_BASE), STD_BASE, 1)
    with pytest.raises(UsageError):
        apply_t_relation(r, S02Q)
    from bconn import SolutionSet

    with pytest.raises(UsageError):
        apply_t_relation(SolutionSet(2, ()), S12)
    with pytest.raises(NotOneReproducing):
        apply_t_relation(SolutionSet(2, (0, 1)), S12)


def test_apply_t_relation_counts_its_words_before_building_them(monkeypatch):
    """The count D1 and S02K check against the word limit is exactly the
    number of words they emit: a limit one below it refuses, the count
    itself passes."""
    from bconn import SolutionSet

    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(1, 6)
        words = {w for w in range(1 << n) if rng.random() < 0.4} | {(1 << n) - 1}
        r = SolutionSet(n, tuple(sorted(words)))
        for variant in (D1, s02k(2), s02k(3), s02k(5)):
            count = len(apply_t_relation(r, variant))
            monkeypatch.setitem(LIMITS, "transform words", count - 1)
            message = f"^{count} transform words over the limit of {count - 1}$"
            with pytest.raises(BudgetExceeded, match=message):
                apply_t_relation(r, variant)
            monkeypatch.setitem(LIMITS, "transform words", count)
            assert len(apply_t_relation(r, variant)) == count
            monkeypatch.undo()


def test_apply_t_relation_refuses_a_relation_too_large_to_build():
    from bconn import SolutionSet

    one = SolutionSet(2, (0b11,))
    with pytest.raises(BudgetExceeded, match="^16777042 transform words over the limit of 1048576$"):
        apply_t_relation(one, s02k(20))
    assert len(apply_t_relation(one, s02k(12))) == 2 + (2 << 2) * ((1 << 13) - 14)


if __name__ == "__main__":
    # The hard side over every hard single-function base of arity 2-3: how
    # many get a printed reduction of one 3-clause CNF, how long the sweep
    # takes, and a sha256 over each base's printed output or refusal text,
    # in base order, so a change to the hard side can show its outputs
    # unchanged.
    split = {"output": 0, "TooLarge": 0, "BudgetExceeded": 0}
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for base, variant in hard_single_bases():
        try:
            text = spelled(print_formula, tr_combine(SWEEP_CNF, variant, base), base)
            split["output"] += 1
        except BudgetError as e:
            text = f"{type(e).__name__}: {e}"
            split[type(e).__name__] += 1
        digest.update(text.encode() + b"\n")
    wall = time.perf_counter() - t0
    print(f"{sum(split.values())} hard bases: {split['output']} outputs, "
          f"{split['TooLarge']} TooLarge, {split['BudgetExceeded']} BudgetExceeded, {wall:.1f} s")
    print(f"sha256 of the printed outputs and refusals: {digest.hexdigest()}")
