"""Function-property predicates checked against brute-force definitions."""

import itertools
import random
from functools import reduce
from operator import or_

import pytest

from bconn.errors import LIMITS
from bconn import (
    BudgetExceeded,
    DegreeBoundTooSmall,
    TruthTable,
    affine_form_of,
    is_affine,
    is_monotone,
    is_reproducing,
    is_self_dual,
    is_separating,
    max_separation_degree,
    property_report,
    separating_coordinate,
    threshold_tt,
)
from bconn.properties import (
    ALL,
    _min_cover_size,
    essential_variables,
    is_conjunction_like,
    is_disjunction_like,
    is_essentially_unary,
)

from conftest import TABLES, tt_of


def all_tables(n):
    for bits in range(1 << (1 << n)):
        yield TruthTable(n, bits)


def small_corpus():
    for n in range(0, 4):
        yield from all_tables(n)


def sampled_arity4():
    rng = random.Random(40404)
    seen = set()
    for k in range(0, 6):
        seen.add(threshold_tt(4, k).bits)
        seen.add(threshold_tt(4, k, dualize=True).bits)
    for _ in range(150):
        seen.add(rng.randrange(1 << 16))
    return [TruthTable(4, bits) for bits in sorted(seen)]


def rows_of(f, c):
    return [r for r in range(f.size) if f.value(r) == c]


def bit_at(row, n, j):
    return (row >> (n - j)) & 1


# ---------------------------------------------------------------------------
# Brute-force definitions.


def brute_monotone(f):
    for a in range(f.size):
        for b in range(f.size):
            if a & b == a and f.value(a) > f.value(b):
                return False
    return True


def brute_self_dual(f):
    full = f.size - 1
    return all(f.value(a) != f.value(full ^ a) for a in range(f.size))


def brute_affine(f):
    n = f.n
    for mask in range(1 << n):
        for c in (0, 1):
            if all(f.value(r) == ((r & mask).bit_count() & 1) ^ c for r in range(f.size)):
                return True
    return False


def brute_essential(f):
    out = []
    for j in range(1, f.n + 1):
        flip = 1 << (f.n - j)
        if any(f.value(r) != f.value(r ^ flip) for r in range(f.size)):
            out.append(j)
    return out


def brute_conjunction_like(f):
    if f.bits == 0 or f.bits == (1 << f.size) - 1:
        return True
    for lead in range(1, f.size):
        if all(f.value(r) == (1 if r & lead == lead else 0) for r in range(f.size)):
            return True
    return False


def brute_disjunction_like(f):
    if f.bits == 0 or f.bits == (1 << f.size) - 1:
        return True
    for lead in range(1, f.size):
        if all(f.value(r) == (1 if r & lead else 0) for r in range(f.size)):
            return True
    return False


def brute_projection_or_constant(f):
    if f.bits == 0 or f.bits == (1 << f.size) - 1:
        return True
    for j in range(1, f.n + 1):
        if all(f.value(r) == bit_at(r, f.n, j) for r in range(f.size)):
            return True
    return False


def brute_separating_coordinate(f, c):
    rows = rows_of(f, c)
    if not rows:
        return 1
    for j in range(1, f.n + 1):
        if all(bit_at(r, f.n, j) == c for r in rows):
            return j
    return None


def brute_max_degree(f, c):
    """Largest m such that every m-subset of f^-1(c) shares a c-coordinate.

    A subset has no common c-coordinate iff its co-c sets cover all n
    coordinates; a minimal cover never needs more than n sets, so the
    search below is exhaustive.
    """
    n = f.n
    rows = rows_of(f, c)
    if not rows:
        return ALL
    universe = (1 << n) - 1
    onesets = [r if c == 0 else universe ^ r for r in rows]
    for m in range(1, min(len(onesets), n + 1) + 1):
        for combo in itertools.combinations(onesets, m):
            u = 0
            for x in combo:
                u |= x
            if u == universe:
                return m - 1
    return ALL


# ---------------------------------------------------------------------------
# Exhaustive agreement at arities 0..3, sampled agreement at arity 4.


def test_flags_agree_with_brute_force_exhaustively():
    for f in small_corpus():
        assert is_monotone(f) == brute_monotone(f), f
        assert is_self_dual(f) == brute_self_dual(f), f
        assert is_affine(f) == brute_affine(f), f
        assert essential_variables(f) == brute_essential(f), f
        assert is_conjunction_like(f) == brute_conjunction_like(f), f
        assert is_disjunction_like(f) == brute_disjunction_like(f), f
        assert ("I" in property_report(f)) == brute_projection_or_constant(f), f
        assert is_essentially_unary(f) == (len(brute_essential(f)) <= 1), f
        for c in (0, 1):
            assert is_reproducing(f, c) == (f.value(0 if c == 0 else f.size - 1) == c), f
            assert separating_coordinate(f, c) == brute_separating_coordinate(f, c), (f, c)


def test_separation_degree_agrees_with_brute_force_exhaustively():
    for f in small_corpus():
        for c in (0, 1):
            assert max_separation_degree(f, c) == brute_max_degree(f, c), (f, c)


def test_flags_agree_with_brute_force_at_arity_four():
    for f in sampled_arity4():
        assert is_monotone(f) == brute_monotone(f), f
        assert is_self_dual(f) == brute_self_dual(f), f
        assert is_affine(f) == brute_affine(f), f
        assert essential_variables(f) == brute_essential(f), f
        for c in (0, 1):
            assert separating_coordinate(f, c) == brute_separating_coordinate(f, c), (f, c)
            assert max_separation_degree(f, c) == brute_max_degree(f, c), (f, c)


def test_affine_form_round_trips():
    for f in small_corpus():
        form = affine_form_of(f)
        if form is None:
            assert not brute_affine(f)
        else:
            assert form.truth_table(f.n) == f


# ---------------------------------------------------------------------------
# Pinned examples.


def test_known_separation_degrees():
    assert max_separation_degree(tt_of(TABLES["and"]), 0) == 1
    assert max_separation_degree(tt_of(TABLES["or"]), 1) == 1
    assert max_separation_degree(tt_of(TABLES["maj"]), 0) == 2
    assert max_separation_degree(tt_of(TABLES["maj"]), 1) == 2
    assert max_separation_degree(tt_of(TABLES["imp"]), 0) == ALL
    assert max_separation_degree(tt_of(TABLES["nimp"]), 1) == ALL
    assert max_separation_degree(tt_of(TABLES["nand"]), 0) == 0
    assert max_separation_degree(tt_of(TABLES["xor"]), 0) == 0


def test_dual_threshold_separation_degree_is_the_parameter():
    for k in (2, 3, 4):
        f = threshold_tt(k + 1, k, dualize=True)
        assert max_separation_degree(f, 0) == k
        assert threshold_tt(k + 1, k) is not None
        assert max_separation_degree(threshold_tt(k + 1, k), 1) == k


def test_separating_examples():
    imp = tt_of(TABLES["imp"])
    assert is_separating(imp, 0)
    # x -> y is falsified only by 10, whose zero coordinate is the second
    assert separating_coordinate(imp, 0) == 2
    assert not is_separating(tt_of(TABLES["and"]), 0)
    assert is_separating(tt_of(TABLES["and"]), 1)
    assert separating_coordinate(tt_of("1"), 0) == 1  # vacuous: no zeros at all


def degrees(atoms, c):
    return sorted(a[1] for a in atoms if a[0] == f"S{c}d")


def test_property_report_majority():
    # monotone, self-dual, both reproducing, and separating of degree 2 only
    rep = property_report(tt_of(TABLES["maj"]))
    assert rep == {"R0", "R1", "M", "D", ("S0d", 2), ("S1d", 2)}


def test_property_report_degree_field_is_capped():
    f = threshold_tt(5, 4, dualize=True)  # degree 4 at either bound
    assert degrees(property_report(f, degree_bound=3), 0) == [2, 3]
    assert degrees(property_report(f, degree_bound=8), 0) == [2, 3, 4]


def test_property_report_degree_sentinel_and_none():
    # separating at every degree: each degree up to the bound
    rep = property_report(tt_of(TABLES["imp"]))
    assert "S0" in rep and degrees(rep, 0) == list(range(2, 9))
    assert degrees(property_report(tt_of(TABLES["imp"]), 20), 0) == list(range(2, 21))
    rep = property_report(tt_of(TABLES["and"]))
    assert "S0" not in rep and degrees(rep, 0) == []


def test_property_report_of_wide_tables_reads_few_rows(monkeypatch):
    """Every atom is a whole-table operation: the report of the 16-ary
    AND, the 16-ary OR and T^16_8 reads at most 2n + 2 single rows."""
    reads = 0
    value = TruthTable.value

    def counting(self, row):
        nonlocal reads
        reads += 1
        return value(self, row)

    monkeypatch.setattr(TruthTable, "value", counting)
    n = 16
    for k in (n, 1, n // 2):
        reads = 0
        property_report.__wrapped__(threshold_tt(n, k))  # past the report cache
        assert reads <= 2 * n + 2, (k, reads)


def test_property_report_rejects_tiny_degree_bound():
    with pytest.raises(DegreeBoundTooSmall):
        property_report(tt_of(TABLES["and"]), degree_bound=1)


# ---------------------------------------------------------------------------
# The subset-lattice cover search against the pairwise search it replaced.


def reference_min_cover(masks, universe, cap=1 << 22):
    """Fewest masks whose union is universe, or None, by pairwise scans:
    each mask is kept unless a kept one contains it, then a breadth-first
    search joins every new union with every kept mask, stopping at the
    first that covers.  Raises BudgetExceeded once a level leaves more
    than cap unions seen."""
    if universe == 0:
        return 0
    if reduce(or_, masks, 0) != universe:
        return None
    maximal = []
    for m in sorted(masks, key=lambda m: -m.bit_count()):
        if m and not any(m | o == o for o in maximal):
            maximal.append(m)
    frontier, seen, size = {0}, {0}, 0
    while True:
        size += 1
        new = set()
        for c in frontier:
            for m in maximal:
                if c | m == universe:
                    return size
                if c | m not in seen:
                    seen.add(c | m)
                    new.add(c | m)
        if len(seen) > cap:
            raise BudgetExceeded(f"{len(seen)} cover states over the limit of {cap}")
        assert new
        frontier = new


def lattice_of(masks) -> int:
    return sum(1 << m for m in masks)


def random_families(rng, count, max_n):
    for _ in range(count):
        n = rng.randint(0, max_n)
        density = rng.random() ** 2
        yield n, {m for m in range(1 << n) if rng.random() < density}


def test_min_cover_size_matches_the_pairwise_search_on_random_families():
    for n, masks in random_families(random.Random(2718), 400, 10):
        want = reference_min_cover(masks, (1 << n) - 1)
        assert _min_cover_size(lattice_of(masks), n) == want, (n, sorted(masks))


def test_separation_degree_matches_the_pairwise_search_on_thresholds():
    """T^n_k and its dual for every k at n <= 13, both constants c.  Their
    co-c families are all sets of at most r coordinates for some r, so the
    reference runs once per family."""
    kappa = {}
    for n in range(14):
        universe = (1 << n) - 1
        for k, dualize, c in itertools.product(range(n + 2), (False, True), (0, 1)):
            f = threshold_tt(n, k, dualize)
            rows = rows_of(f, c)
            family = (n, frozenset(r if c == 0 else universe ^ r for r in rows))
            if family not in kappa:
                kappa[family] = reference_min_cover(family[1], universe)
            want = ALL if not rows or kappa[family] is None else max(kappa[family], 1) - 1
            assert max_separation_degree(f, c) == want, (n, k, dualize, c)


def test_cover_state_cap_refuses_where_the_pairwise_search_does(monkeypatch):
    rng = random.Random(1618)
    refused = 0
    for cap in (3, 12, 40):
        monkeypatch.setitem(LIMITS, "cover states", cap)
        for n, masks in random_families(rng, 150, 8):
            try:
                want = reference_min_cover(masks, (1 << n) - 1, cap)
            except BudgetExceeded as e:
                refused += 1
                with pytest.raises(BudgetExceeded, match=f"^{e}$"):
                    _min_cover_size(lattice_of(masks), n)
                continue
            assert _min_cover_size(lattice_of(masks), n) == want, (cap, n, sorted(masks))
    assert refused >= 20  # both outcomes are exercised


def test_cover_state_cap_refuses_the_singletons_of_23_coordinates():
    """Covering 23 coordinates with singletons takes 23 sets; the search
    has seen the 2^22 unions of at most 11 of them after level 11, and
    passes the cap at level 12."""
    n = 23
    zeros = sum(1 << (1 << i) for i in range(n))  # f is 0 on weight-1 rows
    f = TruthTable(n, ((1 << (1 << n)) - 1) ^ zeros)
    with pytest.raises(BudgetExceeded, match="^5546382 cover states over the limit of 4194304$"):
        max_separation_degree(f, 0)
