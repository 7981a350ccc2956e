"""Acceptance gate: one test per shipped guarantee, with stated tolerances.

Each test prints a single `criterion N: PASS` line (visible with -s or in
the captured output); under `pytest -v` each criterion is one test line.

Where a guarantee quantifies over every solution pair, the tests combine
a structural certificate that covers all pairs at once (an up-set check,
a pinned coordinate, a partition comparison) with direct BFS and decider
spot checks, so no pair is left to luck while staying within the stated
time budgets.
"""

import random
import time

from bconn import (
    EXACT,
    FORALL,
    NotRealizable,
    QuantifiedFormula,
    SolutionSet,
    TVariant,
    apply_t_relation,
    clone_closure,
    clone_identify,
    cnf_to_formula,
    components,
    diameter,
    dispatch,
    enumerate_solutions,
    formula_size,
    gen_expdiam,
    is_connected,
    is_induced_path,
    linear_decide,
    linear_form_of,
    monotone_decide,
    parse_circuit,
    parse_dimacs,
    parse_formula,
    parse_qbf,
    print_formula,
    property_report,
    qbf_easy_decide,
    synth_bformula,
    t_transform,
    tr_combine,
    truth_table_of,
    zerosep_decide,
)
from bconn.truthtable import BitVector
from bconn.cli import run_cli

from conftest import (
    IMP_BASE,
    IMP_OPS,
    LIN_BASE,
    LIN_OPS,
    MONO_BASE,
    MONO_OPS,
    STD_BASE,
    compact_cnf,
    cube_dist_from,
    cube_labels,
    eval_ast_slow,
    mk_base,
    qbf_free_vars,
    qbf_solutions_slow,
    rand_ast,
    rand_linear_circuit,
    rand_qbf,
    rand_three_cnf,
    same_partition,
    tt_of,
)

import pytest


def _report(num: int, label: str, t0: float):
    print(f"criterion {num} ({label}): PASS ({time.monotonic() - t0:.1f}s)")


def _pairs(rng, words, cap):
    """All unordered pairs when few, else a random sample of `cap`."""
    m = len(words)
    if m < 2:
        return []
    if m * (m - 1) // 2 <= cap:
        return [(a, b) for i, a in enumerate(words) for b in words[i + 1 :]]
    return [tuple(rng.sample(words, 2)) for _ in range(cap)]


def _sized_ast(rng, ops, n, base, cap=100):
    """Random formula text of at most cap nodes, and its gate list."""
    while True:
        text = rand_ast(rng, ops, n, rng.randint(2, 40))
        gl = parse_formula(text, base)
        if formula_size(gl) <= cap:
            return text, gl


# ---------------------------------------------------------------------------
# 1. Dichotomy table.


def test_criterion_01_dichotomy_table():
    t0 = time.monotonic()
    rows = [
        (["and", "or"], "M2", "EASY", "EASY"),
        (["xor"], "L0", "EASY", "EASY"),
        (["eqv"], "L1", "EASY", "EASY"),
        (["imp"], "S0", "EASY", "HARD"),
        (["nimp"], "S1", "HARD", "HARD"),
        ({"f": "00001011"}, "S12", "HARD", "HARD"),  # x and (y or not z)
        ({"f": "00101011"}, "D1", "HARD", "HARD"),  # maj(x, y, not z)
        (["not"], "N2", "EASY", "EASY"),
        (["id"], "I2", "EASY", "EASY"),
    ]
    for spec, clone, plain_side, quant_side in rows:
        base = mk_base(spec)
        assert clone_identify(base) == clone
        assert dispatch(base).side == plain_side, clone
        assert dispatch(base, quantified=True).side == quant_side, clone
    assert time.monotonic() - t0 < 1.0
    _report(1, "dichotomy table", t0)


# ---------------------------------------------------------------------------
# 2. Easy deciders vs. ground truth.


def _decide(kind, obj, base, n, s=None, t=None):
    if kind == "monotone":
        return monotone_decide(obj, base, s, t)
    if kind == "linear":
        return linear_decide(obj, base, s, t)
    return zerosep_decide(obj, base, n, s, t)


def test_criterion_02_easy_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(20202)
    classes = (
        ("monotone", MONO_OPS, MONO_BASE),
        ("linear", LIN_OPS, LIN_BASE),
        ("zerosep", IMP_OPS, IMP_BASE),
    )
    for kind, ops, base in classes:
        for _ in range(200):
            n = rng.randint(1, 12)
            text, ast = _sized_ast(rng, ops, n, base)
            sols = enumerate_solutions(ast, base, n)
            labels = cube_labels(sols.words, n)
            ncomp = len(set(labels.values()))
            ans = _decide(kind, ast, base, n)
            assert ans.connected == (ncomp <= 1), (kind, text)
            for a, b in _pairs(rng, list(sols.words), 36):
                got = _decide(
                    kind, ast, base, n, BitVector(n, a), BitVector(n, b)
                ).st_connected
                assert got == (labels[a] == labels[b]), (kind, text)
            # partition-level check covering every pair at once
            if kind == "linear":
                support = linear_form_of(ast, base).support
                smask = sum(1 << (n - j) for j in support)
                keyed = {w: w & smask for w in sols.words}
                assert same_partition(labels, keyed), text
            else:
                assert ncomp <= 1  # deciders answer True for every pair
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(2, "easy deciders vs oracle, 200 per class", t0)


# ---------------------------------------------------------------------------
# 3. Monotone distance law.


def test_criterion_03_monotone_distance_law():
    t0 = time.monotonic()
    rng = random.Random(30303)
    for _ in range(50):
        n = rng.randint(1, 10)
        text, ast = _sized_ast(rng, MONO_OPS, n, MONO_BASE)
        sols = enumerate_solutions(ast, MONO_BASE, n)
        words = list(sols.words)
        members = set(words)
        # up-set certificate: with it, a -> a|b -> b is a geodesic inside
        # the solution set for every pair, so BFS distance = Hamming
        for w in words:
            for b in range(n):
                assert (w | (1 << b)) in members, text
        sources = words if len(words) <= 150 else rng.sample(words, 48)
        for src in sources:
            dist = cube_dist_from(words, n, src)
            for tgt in words:
                assert dist[tgt] == (src ^ tgt).bit_count(), text
        for a, b in _pairs(rng, words, 20):
            ans = monotone_decide(ast, MONO_BASE, BitVector(n, a), BitVector(n, b))
            path = ans.witness_path
            assert len(path) - 1 == (a ^ b).bit_count()
            assert path[0].word == a and path[-1].word == b
            assert all(v.word in members for v in path)
    _report(3, "monotone witness = Hamming = BFS, 50 instances", t0)


# ---------------------------------------------------------------------------
# 4. 0-separating detour bound.


def test_criterion_04_zerosep_detour_bound():
    t0 = time.monotonic()
    rng = random.Random(40404)
    tables = {"imp": "1101"}
    for _ in range(50):
        n = rng.randint(1, 10)
        text, ast = _sized_ast(rng, IMP_OPS, n, IMP_BASE)
        sols = enumerate_solutions(ast, IMP_BASE, n)
        words = list(sols.words)
        members = set(words)
        # pinned-coordinate certificate: some bit is 0 in every
        # non-solution, so raising it on both endpoints and walking the
        # remaining bits yields a path of length <= Hamming + 2
        pinnable = (1 << n) - 1
        for w in range(1 << n):
            if w not in members:
                pinnable &= ~w
        assert pinnable, text
        sources = words if len(words) <= 150 else rng.sample(words, 32)
        for src in sources:
            dist = cube_dist_from(words, n, src)
            for tgt in words:
                assert dist[tgt] <= (src ^ tgt).bit_count() + 2, text
        for a, b in _pairs(rng, words, 15):
            ans = zerosep_decide(ast, IMP_BASE, n, BitVector(n, a), BitVector(n, b))
            assert ans.st_connected
            path = ans.witness_path
            assert path is not None  # n <= 10 never exhausts the probe budget
            assert path[0].word == a and path[-1].word == b
            assert len(path) - 1 <= (a ^ b).bit_count() + 2
            for u, v in zip(path, path[1:]):
                assert (u.word ^ v.word).bit_count() == 1
            for v in path:
                env = {j: v.bit(j) for j in range(1, n + 1)}
                assert eval_ast_slow(text, tables, env) == 1
    _report(4, "0-separating detour bound, 50 instances", t0)


# ---------------------------------------------------------------------------
# 5. Linear structure.


def _nonfictive_from_table(tt):
    """Coordinates the table depends on, by direct row comparison."""
    out = set()
    total = 1 << tt.n
    for j in range(1, tt.n + 1):
        s = 1 << (tt.n - j)
        seg = (1 << s) - 1
        m0 = 0
        for start in range(0, total, s << 1):
            m0 |= seg << start
        if ((tt.bits >> s) & m0) != (tt.bits & m0):
            out.add(j)
    return out


def test_criterion_05_linear_structure():
    t0 = time.monotonic()
    rng = random.Random(50505)
    for _ in range(100):
        n = rng.randint(1, 12)
        circ = parse_circuit(rand_linear_circuit(rng, n, rng.randint(0, 18)), LIN_BASE)
        form = linear_form_of(circ, LIN_BASE)
        tt = truth_table_of(circ, LIN_BASE, n)
        assert set(form.support) == _nonfictive_from_table(tt)
        if tt.bits == 0:
            continue  # unsatisfiable output
        m = len(form.support)
        expected = 1 if m == 0 else 1 << (m - 1)
        sols = enumerate_solutions(circ, LIN_BASE, n)
        labels = cube_labels(sols.words, n)
        assert len(set(labels.values())) == expected
    _report(5, "linear fictive sets and 2^(m-1) components, 100 circuits", t0)


# ---------------------------------------------------------------------------
# 6 + 7. Reduction postconditions and the balanced combiner.


def _corpus():
    rng = random.Random(60606)
    out = []
    while len(out) < 50:
        n = rng.randint(2, 8)
        phi = compact_cnf(rand_three_cnf(rng, n, rng.randint(1, max(2, n - 1))))
        if phi.n >= 1:
            out.append(phi)
    return out


CORPUS = _corpus()

S12 = TVariant("S12")
D1 = TVariant("D1")
S02Q = TVariant("S02Q")


def _padded(w, pad):
    return (w << len(pad)) | int(pad, 2)


def test_criterion_06_reduction_postconditions():
    t0 = time.monotonic()
    for idx, phi in enumerate(CORPUS):
        n = phi.n
        psi = cnf_to_formula(phi)
        base_sols = enumerate_solutions(phi, STD_BASE, n)
        base_labels = cube_labels(base_sols.words, n)
        base_count = len(set(base_labels.values()))
        variants = [S12, D1, TVariant("S02K", 2), S02Q]
        if idx % 5 == 0 and n <= 7:
            variants.append(TVariant("S02K", 3))
        for variant in variants:
            out = t_transform(psi, variant, n0=n)
            if variant.kind == "S02Q":
                dim, pad = n + 1, "1"
                rep = property_report(truth_table_of(out.matrix, STD_BASE, n + 2))
                assert rep.separating0
            else:
                dim, pad = n + variant.new_var_count, variant.pad_vector()
                rep = property_report(truth_table_of(out, STD_BASE, dim))
                if variant.kind == "S12":
                    assert rep.separating1
                elif variant.kind == "D1":
                    assert rep.self_dual
                else:
                    assert rep.separating_of_degree(0, variant.k)
            assert rep.reproducing0 and rep.reproducing1, str(variant)
            t_sols = enumerate_solutions(out, STD_BASE, dim)
            t_labels = cube_labels(t_sols.words, dim)
            t_count = len(set(t_labels.values()))
            assert (t_count <= 1) == (base_count <= 1), str(variant)
            assert t_count == base_count, str(variant)
            lifted = {w: t_labels[_padded(w, pad)] for w in base_sols.words}
            assert same_partition(base_labels, lifted), str(variant)
            if variant.kind != "S02Q":
                assert apply_t_relation(base_sols, variant) == t_sols, str(variant)
    dt = time.monotonic() - t0
    assert dt < 120.0
    _report(6, "transform postconditions, 50 CNFs, all variants", t0)


def test_criterion_07_tr_equals_t():
    t0 = time.monotonic()
    for idx, phi in enumerate(CORPUS):
        n = phi.n
        psi = cnf_to_formula(phi)
        variants = [S12, D1, TVariant("S02K", 2), S02Q]
        if idx % 10 == 0:
            variants.append(TVariant("S02K", 3))
        for variant in variants:
            stats = {}
            got = tr_combine(phi, variant, STD_BASE, stats=stats)
            want = t_transform(psi, variant, n0=n)
            if variant.kind == "S02Q":
                want = want.matrix
            width = n + variant.new_var_count
            assert truth_table_of(got, STD_BASE, width) == truth_table_of(
                want, STD_BASE, width
            ), (phi, str(variant))
            m = len(phi.clauses)
            assert stats["depth"] == (m - 1).bit_length(), (phi, str(variant))
    _report(7, "tr_combine table-equal to t_transform on the corpus", t0)


# ---------------------------------------------------------------------------
# 8. Synthesizer sanity.


def test_criterion_08_synthesizer_sanity():
    t0 = time.monotonic()
    base = mk_base({"h": "0010"})  # x and not y
    got = synth_bformula(tt_of("0001"), base)
    assert print_formula(got, base) == "h(x1,h(x1,x2))"
    assert truth_table_of(got, base, 2) == tt_of("0001")
    with pytest.raises(NotRealizable):
        synth_bformula(tt_of("0111"), base)
    binary = {f for f in clone_closure(base, 2) if f.n == 2}
    assert tt_of("0001") in binary and tt_of("0111") not in binary
    _report(8, "synthesizer identity and unrealizability certificate", t0)


# ---------------------------------------------------------------------------
# 9. Exponential diameter.


def test_criterion_09_exponential_diameter():
    t0 = time.monotonic()
    for k in range(1, 11):
        s = gen_expdiam(k)
        want = (1 << (k + 1)) - 2
        assert s.n == 2 * k
        assert len(s) == (1 << (k + 1)) - 1
        assert (1 << s.n) - 1 in s
        assert is_induced_path(s) is not None
        assert diameter(s, mode=EXACT) == want
        assert want >= 1 << (s.n // 2)
        if k <= 6:
            assert diameter(apply_t_relation(s, S12), mode=EXACT) == want
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(9, "exponential-diameter witnesses, k = 1..10", t0)


# ---------------------------------------------------------------------------
# 10. Quantified easy side.


def _qbf_cases():
    rng = random.Random(70707)
    cases = []
    for kind, ops, base in (
        ("monotone", MONO_OPS, MONO_BASE),
        ("linear", LIN_OPS, LIN_BASE),
    ):
        for i in range(60):
            if i < 3:  # a few full-width instances
                free, bound = 8, 8
            else:
                free = rng.randint(1, 8)
                bound = rng.randint(1, min(8, 12 - free))
            q = rand_qbf(rng, ops, free + bound, bound, rng.randint(2, 25))
            cases.append((kind, base, q))
    cases.append(("linear", LIN_BASE, "E x2 : xor(x1,x2)"))
    cases.append(("linear", LIN_BASE, "A x2 : xor(x1,x2)"))
    return cases


def test_criterion_10_quantified_easy_side():
    t0 = time.monotonic()
    rng = random.Random(80808)
    tables = {"and": "0001", "or": "0111", "xor": "0110", "eqv": "1001", "not": "10"}
    checked = 0
    for kind, base, text in _qbf_cases():
        q = parse_qbf(text, base)
        n = len(qbf_free_vars(text))
        words = sorted(qbf_solutions_slow(text, tables))
        labels = cube_labels(words, n)
        ncomp = len(set(labels.values()))
        ans = qbf_easy_decide(q, base)
        assert ans.connected == (ncomp <= 1), text
        for a, b in _pairs(rng, words, 20):
            got = qbf_easy_decide(q, base, BitVector(n, a), BitVector(n, b))
            assert got.st_connected == (labels[a] == labels[b]), text
            if got.witness_path is not None and got.st_connected:
                path = got.witness_path
                assert path[0].word == a and path[-1].word == b
                assert all(v.word in set(words) for v in path)
        checked += 1
    assert checked >= 100
    _report(10, f"quantified deciders vs expansion, {checked} instances", t0)


# ---------------------------------------------------------------------------
# 11. Unsatisfiable-is-connected convention.


def test_criterion_11_empty_graph_convention(tmp_path, capsys):
    t0 = time.monotonic()
    for n in range(0, 5):
        empty = SolutionSet(n, ())
        assert is_connected(empty) is True
        assert components(empty).count == 0
        assert diameter(empty) == 0
    # brute path: an unsatisfiable CNF enumerates to the empty graph
    phi = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert is_connected(enumerate_solutions(phi, STD_BASE, 1)) is True
    # poly path: the unsatisfiable affine constant
    ans = linear_decide(parse_formula("xor(x1,x1)", LIN_BASE), LIN_BASE)
    assert ans.connected is True
    # quantified poly path: a universally quantified non-fictive variable
    q = QuantifiedFormula(((FORALL, 2),), parse_formula("xor(x1,x2)", LIN_BASE))
    assert qbf_easy_decide(q, LIN_BASE).connected is True
    # CLI surface
    rel = tmp_path / "empty.rel"
    rel.write_text("n 3\n", encoding="utf-8")
    assert run_cli(["conn", "--rel", str(rel)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("connected: true")
    cnf = tmp_path / "u.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
    assert run_cli(["conn", "--cnf", str(cnf), "--mode", "brute"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("connected: true")
    _report(11, "empty solution graph counts as connected", t0)
