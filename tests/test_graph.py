"""Solution sets, components, paths, diameter, relation files."""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from bconn import (
    BitVector,
    BudgetExceeded,
    NotASolution,
    SizeOverflow,
    SolutionSet,
    TooLarge,
    UsageError,
    components,
    diameter,
    enumerate_solutions,
    export_dot,
    is_connected,
    is_induced_path,
    parse_formula,
    parse_relation,
    print_relation,
    random_relation,
    shortest_path,
)
from bconn import TruthTable, gen_expdiam, var_mask
from bconn import graph
from bconn.cli import run_cli
from bconn.errors import LIMITS
from bconn.graph import EXACT, LOWER_BOUND
from bconn.truthtable import N_MAX, mask_rows

from conftest import (
    STD_BASE,
    ast_solutions_slow,
    base_texts,
    check_path_words,
    cube_diameter,
    cube_dist_from,
    cube_labels,
    rand_ast,
    same_partition,
)


def rel(n, words):
    return SolutionSet.from_words(n, words)


def test_solution_set_invariants():
    s = rel(3, [5, 1, 1, 3])
    assert s.words == (1, 3, 5)
    assert len(s) == 3 and 3 in s and 2 not in s
    assert [v.text for v in s.vectors()] == ["001", "011", "101"]
    assert s.texts() == ["001", "011", "101"]
    with pytest.raises(UsageError):
        SolutionSet(2, (1, 1))
    with pytest.raises(UsageError):
        SolutionSet(2, (5,))
    with pytest.raises(UsageError):
        SolutionSet(2, (-1, 1))
    with pytest.raises(UsageError):
        SolutionSet(-1, ())


def test_enumerate_solutions_matches_row_oracle():
    rng = random.Random(314)
    texts = base_texts(STD_BASE)
    ops = (("and", 2), ("or", 2), ("not", 1))
    for _ in range(30):
        n = rng.randint(1, 6)
        text = rand_ast(rng, ops, n, rng.randint(1, 25))
        s = enumerate_solutions(parse_formula(text, STD_BASE), STD_BASE, n)
        assert set(s.words) == ast_solutions_slow(text, texts, n)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded, match="^26 table variables over the limit of 24$"):
        enumerate_solutions(parse_formula("x1", STD_BASE), STD_BASE, 26)


def _count_sweeps(monkeypatch):
    calls = []
    real = graph._sweeps

    def counted(cube, words):
        calls.append(len(words))
        return real(cube, words)

    monkeypatch.setattr(graph, "_sweeps", counted)
    return calls


def test_components_match_bfs_oracle(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    rng = random.Random(8080)
    for _ in range(40):
        n = rng.randint(1, 8)
        size = rng.randint(0, 1 << n)
        s = random_relation(n, size, rng.randrange(1 << 30))
        calls.clear()
        lab = components(s)
        assert "labels" not in lab.__dict__ and len(calls) == 1  # not built until read
        oracle = cube_labels(s.words, n)
        mine = {w: lab.labels[i] for i, w in enumerate(s.words)}
        assert same_partition(mine, oracle)
        assert lab.labels == tuple(oracle[w] for w in s.words) and len(calls) == 2
        assert lab.count == len(set(oracle.values()))
        assert set(lab.representatives) == {
            min(w for w in oracle if oracle[w] == c) for c in set(oracle.values())
        }
        assert sum(lab.sizes) == len(s) and len(lab.sizes) == lab.count
        for rep, size in zip(lab.representatives, lab.sizes):
            part = [w for w in s.words if oracle[w] == oracle[rep]]
            assert rep == min(part) and size == len(part)


def test_component_representatives_are_in_label_order():
    s = rel(3, [0b000, 0b011, 0b111])
    lab = components(s)
    assert lab.count == 2
    assert lab.representatives == (0b000, 0b011)
    assert lab.labels == (0, 1, 1)
    assert lab.sizes == (1, 2)


def test_empty_set_is_connected():
    assert is_connected(rel(4, []))
    assert components(rel(4, [])).count == 0
    assert diameter(rel(4, [])) == 0


def test_is_connected_examples():
    assert is_connected(rel(2, [0]))
    assert is_connected(rel(2, [0, 1, 3]))
    assert not is_connected(rel(2, [0, 3]))


def test_shortest_path_matches_bfs_distance():
    rng = random.Random(4321)
    for _ in range(25):
        n = rng.randint(2, 7)
        s = random_relation(n, rng.randint(2, 1 << n), rng.randrange(1 << 30))
        members = set(s.words)
        a = rng.choice(s.words)
        dist = cube_dist_from(s.words, n, a)
        for b in rng.sample(s.words, min(6, len(s.words))):
            path = shortest_path(s, BitVector(n, a), BitVector(n, b))
            if b not in dist:
                assert path is None
            else:
                check_path_words(path, members, n, a, b)
                assert len(path) - 1 == dist[b]


def test_shortest_path_degenerate_and_errors():
    s = rel(2, [0, 1])
    start = BitVector.parse("00")
    assert shortest_path(s, start, start) == [start]
    with pytest.raises(NotASolution):
        shortest_path(s, start, BitVector.parse("11"))
    with pytest.raises(NotASolution):
        shortest_path(s, BitVector.parse("0"), BitVector.parse("01"))


def test_diameter_exact_matches_oracle():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randint(1, 7)
        s = random_relation(n, rng.randint(0, 1 << n), rng.randrange(1 << 30))
        assert diameter(s, mode=EXACT) == cube_diameter(s.words, n)


def test_diameter_lower_bound_never_exceeds_exact():
    rng = random.Random(778)
    for _ in range(20):
        n = rng.randint(2, 7)
        s = random_relation(n, rng.randint(1, 1 << n), rng.randrange(1 << 30))
        lo = diameter(s, mode=LOWER_BOUND)
        assert lo <= diameter(s, mode=EXACT)


def test_diameter_exact_budget(monkeypatch):
    s = rel(3, [0, 1, 2, 3])
    monkeypatch.setitem(LIMITS, "BFS steps", 3)
    with pytest.raises(BudgetExceeded, match="^32 BFS steps over the limit of 3$"):
        diameter(s, mode=EXACT)
    assert diameter(s, mode=LOWER_BOUND) == 2


def test_induced_path_accepts_a_chain():
    s = rel(3, [0b000, 0b001, 0b011, 0b111])
    order = is_induced_path(s)
    assert order is not None
    # starts at the endpoint with the larger word
    assert [v.text for v in order] == ["111", "011", "001", "000"]


def test_induced_path_rejects_cycles_branches_and_chords():
    assert is_induced_path(rel(2, [0b00, 0b01, 0b11, 0b10])) is None  # 4-cycle
    assert is_induced_path(rel(3, [0b010, 0b000, 0b001, 0b011])) is None  # cycle again
    # star: center 000 with three neighbors
    assert is_induced_path(rel(3, [0b000, 0b001, 0b010, 0b100])) is None
    # path plus a far-away 4-cycle: degree test alone would pass the path
    cycle = [0b0000, 0b0001, 0b0011, 0b0010]
    path = [0b1100, 0b1101]
    assert is_induced_path(rel(4, cycle + path)) is None
    assert is_induced_path(rel(4, [])) is None


def test_induced_path_singleton():
    got = is_induced_path(rel(2, [0b10]))
    assert [v.text for v in got] == ["10"]


def test_export_dot_shape():
    s = rel(2, [0b00, 0b01, 0b11])
    dot = export_dot(s)
    assert dot.startswith("graph solutions {")
    assert '"00" -- "01";' in dot
    assert '"01" -- "11";' in dot
    assert '"00" -- "11";' not in dot
    colored = export_dot(s, components(s))
    assert "fillcolor" in colored


def test_export_dot_size_guard():
    s = random_relation(17, (1 << 16) + 1, 9)
    with pytest.raises(TooLarge):
        export_dot(s)


def test_random_relation_is_seeded_and_guarded():
    a = random_relation(5, 10, 42)
    b = random_relation(5, 10, 42)
    assert a == b
    assert len(a) == 10 and a.n == 5
    assert random_relation(5, 10, 43) != a
    with pytest.raises(SizeOverflow):
        random_relation(3, 9, 1)


def test_random_relation_bounds_the_count_before_sampling(monkeypatch):
    def sample(*args):
        raise AssertionError("sampled before the count was checked")

    monkeypatch.setattr(random.Random, "sample", sample)
    with pytest.raises(BudgetExceeded, match="^16777217 relation words over the limit of 16777216$"):
        random_relation(N_MAX, LIMITS["relation words"] + 1, 0)


def test_relation_file_round_trip():
    s = random_relation(4, 7, 99)
    text = print_relation(s)
    assert parse_relation(text) == s
    for n in range(5):  # n = 0 has one word, printed `0`
        for s in (SolutionSet(n, ()), SolutionSet(n, tuple(range(1 << n)))):
            assert parse_relation(print_relation(s)) == s
    assert print_relation(SolutionSet(0, (0,))) == "n 0\n0\n"
    with pytest.raises(UsageError):
        parse_relation("n 0\n1\n")
    assert parse_relation("# comment\nn 2\n01\n11\n").words == (1, 3)
    with pytest.raises(UsageError):
        parse_relation("01\n11\n")
    with pytest.raises(UsageError):
        parse_relation("n 2\n011\n")


def _reference_relation(text):
    """The words of a relation file, or None if it is malformed."""
    rows = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    head = re.fullmatch(r"n\s+(-?[0-9]+)", rows[0]) if rows else None
    if head is None or not 0 <= int(head[1]) <= N_MAX:
        return None
    n = int(head[1])
    if any(r != "0" if n == 0 else (len(r) != n or set(r) - {"0", "1"}) for r in rows[1:]):
        return None
    return SolutionSet(n, tuple(sorted({int(r, 2) for r in rows[1:]})))


_REL_CHARS = "01 _+-x\t"


@st.composite
def _relation_texts(draw):
    """Relation files with and without a header, comments and blank lines,
    and word lines of the right and wrong lengths and characters."""
    n = draw(st.integers(-1, N_MAX + 1))
    width = max(n, 0)
    lines = []
    if draw(st.integers(0, 3)):  # a header three times in four
        lines.append(f"n {n}" + draw(st.sampled_from(["", "  ", "\t# dim"])))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            line = draw(st.sampled_from(["", "  ", "# note"]))
        elif kind == 1:
            line = draw(st.text(_REL_CHARS, min_size=max(width - 1, 0), max_size=width + 1))
        else:
            size = width + draw(st.sampled_from([0] * 6 + [-1, 1]))
            line = draw(st.text("01", min_size=max(size, 0), max_size=max(size, 0)))
        if draw(st.booleans()):
            line = " " + line + " # c"
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_relation_texts())
@example("n 4\n1_01\n")
@example("n 4\n+101\n")
@example("n 4\n-101\n")
@example("n 4\n0101 # ok\n\n10\t1\n")
@example("n 0\n0\n 0 # again\n")
@example("n 0\n1\n")
def test_relation_parser_matches_a_reference_or_reports(tmp_path_factory, text):
    want = _reference_relation(text)
    try:
        got = parse_relation(text)
    except UsageError:
        got = None
    assert got == want
    path = tmp_path_factory.mktemp("rel") / "r.rel"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run_cli(["components", "--rel", str(path), "--json"])
    assert code == (2 if want is None else 0)


# ---------------------------------------------------------------------------
# Both frontier forms.  At n <= 12 the shipped threshold puts nearly every
# frontier on the mask side, so the differentials below also run with
# _THICK_SHIFT = 0 (every search on words), 3 and 6 (searches that switch
# forms midway) and 64 (every frontier thick), on sets enumerated from a
# table and on the same sets parsed as relations.

SHIPPED_SHIFT = graph._THICK_SHIFT
SHIFTS = (0, 3, 6, SHIPPED_SHIFT, 64)


def _parity_bits(n, free):
    """Even parity of x1..x_(n-free); the last `free` variables are free."""
    return sum(1 << w for w in range(1 << n) if (w >> free).bit_count() % 2 == 0)


def _cnf_bits(rng, n, m):
    full = (1 << (1 << n)) - 1
    bits = full
    for _ in range(m):
        clause = 0
        for j in rng.sample(range(1, n + 1), 3):
            clause |= var_mask(n, j) if rng.random() < 0.5 else full ^ var_mask(n, j)
        bits &= clause
    return bits


def _shaped_sets():
    out = []
    for n in (1, 4, 8, 12):
        full = (1 << (1 << n)) - 1
        out += [
            (f"empty{n}", n, 0),
            (f"cube{n}", n, full),
            (f"parity{n}", n, _parity_bits(n, 0)),  # every vertex isolated
            (f"parity{n}-free", n, _parity_bits(n, 1)),  # 2-vertex components
            (f"or{n}", n, full ^ 1),  # one dense component
        ]
    rng = random.Random(2024)
    for n in (6, 9, 12):
        for m in (n // 2, n, 2 * n, 3 * n):
            out.append((f"cnf{n}x{m}", n, _cnf_bits(rng, n, m)))
    return out


SHAPED = _shaped_sets()


def _both_backings(n, bits):
    table_set = enumerate_solutions(TruthTable(n, bits), STD_BASE, n)
    rel_set = SolutionSet(n, tuple(mask_rows(bits)))
    assert table_set == rel_set
    return [table_set, rel_set]


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("name,n,bits", SHAPED, ids=[c[0] for c in SHAPED])
def test_engine_matches_cube_oracles_on_both_sides(monkeypatch, shift, name, n, bits):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    rng = random.Random(name)
    for s in _both_backings(n, bits):
        words = s.words
        oracle = cube_labels(words, n)
        lab = components(s)
        assert lab.labels == tuple(oracle[w] for w in words)
        assert lab.count == len(set(oracle.values()))
        assert lab.representatives == tuple(
            min(w for w in words if oracle[w] == k) for k in range(lab.count)
        )
        members = set(words)
        pairs = [tuple(rng.sample(words, 2)) for _ in range(4)] if len(words) > 1 else []
        if words:
            pairs.append((words[0], words[-1]))
        for a, b in pairs:
            dist = cube_dist_from(words, n, a)
            path = shortest_path(s, BitVector(n, a), BitVector(n, b))
            if b not in dist:
                assert path is None
            else:
                check_path_words(path, members, n, a, b)
                assert len(path) - 1 == dist[b]
        ecc_rep = max(
            (max(cube_dist_from(words, n, r).values()) for r in lab.representatives), default=0
        )
        lower = diameter(s, mode=LOWER_BOUND)
        if len(words) <= 600:  # the oracle runs a search from every vertex
            exact = cube_diameter(words, n)
            assert diameter(s, mode=EXACT) == exact
        else:
            exact = 2 * ecc_rep
        assert ecc_rep <= lower <= exact


@pytest.mark.parametrize("shift", SHIFTS)
def test_sparse_sets_stay_on_words(monkeypatch, shift):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    rng = random.Random(shift)
    for n in (14, 16, 18):
        s = random_relation(n, 3 * n, rng.randrange(1 << 30))
        oracle = cube_labels(s.words, n)
        assert components(s).labels == tuple(oracle[w] for w in s.words)
        assert diameter(s, mode=EXACT) == cube_diameter(s.words, n)
    if shift <= SHIPPED_SHIFT:  # a mask-only search pays 8191 whole-cube layers
        s = gen_expdiam(12)
        assert diameter(s, mode=LOWER_BOUND) == (1 << 13) - 2
        assert graph._cube(s).mask == 0  # 8191 words at n = 24: no whole-cube mask


def _double_sweep(words, n, reps):
    """The double sweep's value: the eccentricity of the smallest word at
    the greatest distance from each component's smallest word."""
    best = 0
    for r in reps:
        dist = cube_dist_from(words, n, r)
        top = max(dist.values())
        far = min(w for w, d in dist.items() if d == top)
        best = max(best, max(cube_dist_from(words, n, far).values()))
    return best


@pytest.mark.parametrize("shift", (0, 6, SHIPPED_SHIFT))
def test_components_and_lower_bound_diameter_share_one_sweep(monkeypatch, shift):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    calls = _count_sweeps(monkeypatch)
    for name, n, bits in SHAPED:
        for s in _both_backings(n, bits):
            calls.clear()
            lab = components(s)
            lower = diameter(s, mode=LOWER_BOUND)
            if len(s) <= 600:  # the exact mode searches from every vertex of a cycle
                assert diameter(s, mode=EXACT) >= lower, name
            assert components(s) == lab
            assert len(calls) == 1, name
            assert lower == _double_sweep(s.words, n, lab.representatives), name
    s = gen_expdiam(6)  # sweep cached by diameter first, then read by components
    calls.clear()
    assert diameter(s, mode=LOWER_BOUND) == (1 << 7) - 2
    assert components(s).sizes == (len(s),) and len(calls) == 1
    s = gen_expdiam(6)  # components, then the exact diameter, as the CLI runs them
    calls.clear()
    assert components(s).count == 1
    assert diameter(s, mode=EXACT) == (1 << 7) - 2 and len(calls) == 1
    # a path whose smallest word is its middle (eccentricity 3, far end 6)
    # beside one whose smallest word is an end (4 both ways): capping a
    # component at its smallest word's eccentricity alone would answer 4
    middle = [0b111, 0b11, 0b1, 0, 0b10000, 0b110000, 0b1110000]
    s = rel(10, middle + [1023, 1022, 1020, 1016, 1008])
    assert components(s).count == 2 and diameter(s, mode=LOWER_BOUND) == 6
    rng = random.Random(shift)  # many components of mixed sizes and shapes
    for _ in range(30):
        n = rng.randint(2, 10)
        s = random_relation(n, rng.randint(1, 1 << (n - 1)), rng.randrange(1 << 30))
        lab = components(s)
        assert diameter(s, mode=LOWER_BOUND) == _double_sweep(s.words, n, lab.representatives)


# ---------------------------------------------------------------------------
# Exact diameter: the double sweep on tree components, every other vertex
# as a source on a component with a cycle whose cap exceeds the answer.


def _count_bfs(monkeypatch):
    calls = []
    real = graph._bfs_depths

    def counted(adj, src):
        calls.append(src)
        return real(adj, src)

    monkeypatch.setattr(graph, "_bfs_depths", counted)
    return calls


def _random_induced_tree(rng, n, size):
    """Grow a tree of the n-cube by adding vertices with one tree neighbour,
    so that it stays induced (no chords)."""
    tree = [rng.randrange(1 << n)]
    members = set(tree)
    for _ in range(50 * size):
        if len(tree) == size:
            break
        u = rng.choice(tree) ^ (1 << rng.randrange(n))
        if u not in members and sum((u ^ (1 << b)) in members for b in range(n)) == 1:
            tree.append(u)
            members.add(u)
    return members


def test_exact_diameter_of_expdiam_paths_takes_two_sweeps(monkeypatch):
    calls = _count_bfs(monkeypatch)
    for k in range(1, 9):
        s = gen_expdiam(k)
        calls.clear()
        assert diameter(s, mode=EXACT) == cube_diameter(s.words, s.n) == (1 << (k + 1)) - 2
        assert not calls  # the component sweep and the search from the far word


def test_exact_diameter_of_random_induced_trees(monkeypatch):
    calls = _count_bfs(monkeypatch)
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(3, 10)
        words = _random_induced_tree(rng, n, rng.randint(2, 80))
        s = rel(n, words)
        if components(s).count != 1:
            continue
        calls.clear()
        assert diameter(s, mode=EXACT) == cube_diameter(s.words, n)
        assert not calls


def test_exact_diameter_mixes_trees_and_cycles(monkeypatch):
    calls = _count_bfs(monkeypatch)
    path = [0b110000, 0b111000, 0b111100, 0b111110]  # 3 edges: cap 3
    alone = [0b101011]
    # a 4-cycle in the low corner: cap 3, which cannot exceed the path's 3
    s = rel(6, [0b000000, 0b000001, 0b000011, 0b000010] + path + alone)
    assert diameter(s, mode=EXACT) == cube_diameter(s.words, 6) == 3
    assert not calls
    # an induced 6-cycle there instead: cap 5, so every vertex but its far
    # word is a source, and then the path's cap no longer exceeds 3
    s = rel(6, [0b000, 0b001, 0b011, 0b111, 0b110, 0b100] + path + alone)
    assert diameter(s, mode=EXACT) == cube_diameter(s.words, 6) == 3
    assert len(calls) == 6 - 1


@pytest.mark.parametrize("shift", (0, 6, SHIPPED_SHIFT, 64))
def test_the_cube_counts_edges_so_a_forest_needs_no_count_per_component(monkeypatch, shift):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    for name, n, bits in SHAPED:
        for s in _both_backings(n, bits):
            members = set(s.words)
            edges = sum((w ^ (1 << b)) in members for w in s.words for b in range(n)) // 2
            assert graph._cube(s).edges == (edges if graph._cube(s).mask else None), name
    counted = []
    real = graph._edges
    monkeypatch.setattr(graph, "_edges", lambda cube, comp: counted.append(comp) or real(cube, comp))
    two_paths = rel(8, [0, 1, 3, 7, 0b11110000, 0b11100000, 0b11000000])
    assert diameter(two_paths, mode=EXACT) == 3
    # on words the longer path's edges are counted; the shorter's cap is 2
    assert len(counted) == (0 if graph._cube(two_paths).mask else 1)


def _exact_oracle(words, n, budget):
    """(the diameter, None), or (None, the running total of BFS steps at the
    refusal): components by descending (cap, far word) until no cap left
    exceeds the answer, each with a cycle charging k * (k + edges)."""
    members, labels = set(words), cube_labels(words, n)
    comps: dict[int, list[int]] = {}
    for w in words:
        comps.setdefault(labels[w], []).append(w)
    rows = []
    for comp in comps.values():
        if len(comp) > 1:
            dist = cube_dist_from(words, n, min(comp))
            e = max(dist.values())
            far = min(w for w, d in dist.items() if d == e)
            edges = sum((w ^ (1 << b)) in members for w in comp for b in range(n)) // 2
            rows.append((min(2 * e, len(comp) - 1), far, len(comp), edges, comp))
    best = work = 0
    for cap, _, k, edges, comp in sorted(rows, reverse=True):
        if cap <= best:
            break
        if edges != k - 1:
            work += k * (k + edges)
            if work > budget:
                return None, work
        best = max(best, max(max(cube_dist_from(words, n, w).values()) for w in comp))
    return best, None


def _trees_cycles_and_isolated(rng, n):
    """A sparse random set (isolated vertices, small trees and cycles) or an
    induced tree, with the 4-cycles of up to two 2-faces added."""
    words = set(random_relation(n, rng.randint(1, 1 << (n - 2)), rng.randrange(1 << 30)).words)
    if rng.random() < 0.5:
        words = _random_induced_tree(rng, n, rng.randint(2, 4 * n))
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(range(n), 2)
        corner = rng.randrange(1 << n) & ~(1 << i | 1 << j)
        words |= {corner, corner | 1 << i, corner | 1 << j, corner | 1 << i | 1 << j}
    return sorted(words)


@pytest.mark.parametrize("shift", (0, 6, SHIPPED_SHIFT))
def test_exact_diameter_answers_and_refuses_like_the_oracle(monkeypatch, shift):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    rng = random.Random(f"exact:{shift}")
    refused = 0
    shipped = LIMITS["BFS steps"]
    for _ in range(40):
        n = rng.randint(4, 9)
        words = _trees_cycles_and_isolated(rng, n)
        for budget in (0, 40, 400, 4000, shipped):
            monkeypatch.setitem(LIMITS, "BFS steps", budget)
            want, work = _exact_oracle(words, n, budget)
            assert want in (None, cube_diameter(words, n))
            for s in _both_backings(n, sum(1 << w for w in words)):
                if want is None:
                    message = f"^{work} BFS steps over the limit of {budget}$"
                    with pytest.raises(BudgetExceeded, match=message):
                        diameter(s, mode=EXACT)
                else:
                    assert diameter(s, mode=EXACT) == want
            refused += want is None
    assert refused  # the small budgets refuse some of these sets


def _induced_path_by_degrees(s):
    """The degree-based test the engine once ran, kept as a reference: a
    connected set whose vertices have degree <= 2, exactly two of them 1."""
    words = s.words
    if not words:
        return None
    if len(words) == 1:
        return [BitVector(s.n, words[0])]
    index = {w: i for i, w in enumerate(words)}
    adj = [[index[u] for b in range(s.n) if (u := w ^ (1 << b)) in index] for w in words]
    ends = [i for i in range(len(words)) if len(adj[i]) == 1]
    if len(ends) != 2 or any(len(a) > 2 for a in adj):
        return None
    order, prev = [max(ends, key=words.__getitem__)], -1
    cur = order[0]
    while nxt := [j for j in adj[cur] if j != prev]:
        prev, cur = cur, nxt[0]
        order.append(cur)
    if len(order) != len(words):
        return None  # the leftover vertices form cycles elsewhere
    return [BitVector(s.n, words[i]) for i in order]


def _path_like_sets(rng):
    """Paths (relabelled gen_expdiam ones and grown walks), the same with a
    vertex dropped, a chord or a branch added or a far vertex beside them,
    cycles, and small random sets."""
    out = []
    for _ in range(30):
        n = rng.randint(2, 10)
        if rng.random() < 0.4:
            k = rng.randint(1, n // 2)
            flip = rng.randrange(1 << (2 * k))
            words = [w ^ flip for w in gen_expdiam(k).words]
            n = 2 * k
        else:
            walk = [rng.randrange(1 << n)]  # grown at its tip, with no chord
            for _ in range(4 * n):
                u = walk[-1] ^ (1 << rng.randrange(n))
                if u not in walk and sum((u ^ (1 << b)) in walk for b in range(n)) == 1:
                    walk.append(u)
            words = walk
        words = set(words)
        out.append((n, words))
        some = rng.choice(sorted(words))
        out.append((n, words - {some}))
        out.append((n, words | {some ^ (1 << rng.randrange(n))}))
        out.append((n, words | {rng.randrange(1 << n)}))
    for n in (2, 3, 4):
        out.append((n, set(range(1 << n))))
        for _ in range(5):
            out.append((n, set(random_relation(n, rng.randint(0, 1 << n), rng.randrange(99)).words)))
    return out


@pytest.mark.parametrize("shift", (0, 6, SHIPPED_SHIFT))
def test_induced_path_matches_the_degree_reference(monkeypatch, shift):
    monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
    rng = random.Random(f"path:{shift}")
    paths = 0
    for n, words in _path_like_sets(rng):
        for s in _both_backings(n, sum(1 << w for w in words)):
            want = _induced_path_by_degrees(rel(n, words))
            assert is_induced_path(s) == want, (n, sorted(words))
            paths += want is not None and len(words) > 2
    assert paths > 20


def test_exact_diameter_budget_counts_search_work(monkeypatch):
    cycle = rel(2, [0, 1, 2, 3])  # 4 vertices, 4 edges: 4 * (4 + 4) steps
    monkeypatch.setitem(LIMITS, "BFS steps", 32)
    assert diameter(cycle, mode=EXACT) == 2
    monkeypatch.setitem(LIMITS, "BFS steps", 31)
    with pytest.raises(BudgetExceeded, match="^32 BFS steps over the limit of 31$"):
        diameter(cycle, mode=EXACT)
    # a tree costs nothing against the limit
    monkeypatch.setitem(LIMITS, "BFS steps", 0)
    assert diameter(gen_expdiam(6), mode=EXACT) == (1 << 7) - 2
