"""Polynomial deciders for monotone, 0-separating, and affine bases."""

import random

import pytest

import bconn.easy
from bconn.errors import LIMITS
from bconn import (
    BitVector,
    LinearForm,
    NonAffineBaseFunction,
    NotASolution,
    UsageError,
    WrongClass,
    enumerate_solutions,
    linear_decide,
    linear_form_of,
    monotone_decide,
    parse_circuit,
    parse_formula,
    parse_qbf,
    qbf_easy_decide,
    truth_table_of,
    zerosep_decide,
)

from conftest import (
    IMP_BASE,
    IMP_OPS,
    LIN_BASE,
    MONO_BASE,
    MONO_OPS,
    STD_BASE,
    base_texts,
    cube_labels,
    eval_ast_slow,
    env_of,
    mk_base,
    rand_ast,
    rand_linear_circuit,
    tt_of,
)


def bv(text):
    return BitVector.parse(text)


def path_texts(answer):
    return [v.text for v in answer.witness_path]


# ---------------------------------------------------------------------------
# Monotone bases.


def test_monotone_pinned_example():
    ast = parse_formula("or(x1,x2)", MONO_BASE)
    ans = monotone_decide(ast, MONO_BASE, bv("01"), bv("10"))
    assert ans.connected and ans.st_connected
    assert path_texts(ans) == ["01", "11", "10"]


def test_monotone_connectivity_only():
    ast = parse_formula("and(x1,x2)", MONO_BASE)
    ans = monotone_decide(ast, MONO_BASE)
    assert ans.connected and ans.st_connected is None and ans.witness_path is None
    assert "monotone" in ans.rationale


def test_monotone_rejects_other_bases():
    ast = parse_formula("imp(x1,x2)", IMP_BASE)
    with pytest.raises(WrongClass):
        monotone_decide(ast, IMP_BASE, bv("00"), bv("11"))


def test_monotone_rejects_non_solutions():
    ast = parse_formula("and(x1,x2)", MONO_BASE)
    with pytest.raises(NotASolution):
        monotone_decide(ast, MONO_BASE, bv("01"), bv("11"))
    with pytest.raises(UsageError):
        monotone_decide(ast, MONO_BASE, bv("11"), None)


def test_monotone_paths_are_geodesics():
    rng = random.Random(12)
    texts = base_texts(MONO_BASE)
    for _ in range(25):
        n = rng.randint(2, 8)
        ast = parse_formula(rand_ast(rng, MONO_OPS, n, rng.randint(2, 30)), MONO_BASE)
        sols = sorted(enumerate_solutions(ast, MONO_BASE, n).words)
        if len(sols) < 2:
            continue
        members = set(sols)
        for _ in range(5):
            a, b = rng.choice(sols), rng.choice(sols)
            ans = monotone_decide(ast, MONO_BASE, BitVector(n, a), BitVector(n, b))
            assert ans.connected and ans.st_connected
            words = [v.word for v in ans.witness_path]
            assert words[0] == a and words[-1] == b
            assert len(words) - 1 == bin(a ^ b).count("1")
            assert all(w in members for w in words)


def test_a_walk_through_a_non_solution_fails_verification():
    """Every single-flip walk is checked whole: it passes when all its
    vertices are solutions and otherwise names the first that is not."""
    rng = random.Random(17)
    texts = base_texts(MONO_BASE)
    for _ in range(40):
        n = rng.randint(2, 7)
        text = rand_ast(rng, MONO_OPS, n, rng.randint(2, 30))
        ast = parse_formula(text, MONO_BASE)
        walk = [BitVector(n, rng.getrandbits(n))]
        for _ in range(rng.randint(0, 12)):
            j = rng.randint(1, n)
            walk.append(walk[-1].with_bit(j, 1 - walk[-1].bit(j)))
        misses = [v for v in walk if not eval_ast_slow(text, texts, env_of(v.word, n))]
        if not misses:
            bconn.easy._verify_path(ast, MONO_BASE, walk)
            continue
        with pytest.raises(AssertionError, match=f"witness vertex {misses[0].text} is not a solution"):
            bconn.easy._verify_path(ast, MONO_BASE, walk)


def test_a_witness_path_with_one_vertex_edited_still_raises(monkeypatch):
    ast = parse_formula("or(and(x1,x2),and(x3,x4))", MONO_BASE)
    s, t = bv("1100"), bv("0011")
    path = path_texts(monotone_decide(ast, MONO_BASE, s, t))
    assert path == ["1100", "1110", "1111", "0111", "0011"]
    walk = bconn.easy._walk

    def edited(path, t, order):  # the peak 1111 becomes 0110, one flip from both neighbours
        return [v if v.text != "1111" else bv("0110") for v in walk(path, t, order)]

    monkeypatch.setattr(bconn.easy, "_walk", edited)
    with pytest.raises(AssertionError, match="witness vertex 0110 is not a solution"):
        monotone_decide(ast, MONO_BASE, s, t)


def test_monotone_accepts_circuits_and_tables():
    text = "input x1\ninput x2\ninput x3\ngate a and x2 x3\ngate b or x1 a\noutput b\n"
    dag = parse_circuit(text, MONO_BASE)
    ans = monotone_decide(dag, MONO_BASE, bv("100"), bv("011"))
    assert ans.st_connected
    ans = monotone_decide(tt_of("00010111"), mk_base(["maj"]), bv("011"), bv("110"))
    assert len(ans.witness_path) == 3


# ---------------------------------------------------------------------------
# 0-separating bases.


def test_zerosep_pinned_example():
    ast = parse_formula("imp(x1,x2)", IMP_BASE)
    ans = zerosep_decide(ast, IMP_BASE, 2, bv("00"), bv("11"))
    assert ans.connected and ans.st_connected
    assert path_texts(ans) == ["00", "01", "11"]


def test_zerosep_detour_resets_the_pinned_coordinate():
    ast = parse_formula("imp(x1,x2)", IMP_BASE)
    # both endpoints have the pinning coordinate x2 = 0 somewhere useful
    ans = zerosep_decide(ast, IMP_BASE, 2, bv("00"), bv("01"))
    assert path_texts(ans) == ["00", "01"]
    ans = zerosep_decide(ast, IMP_BASE, 2, bv("01"), bv("00"))
    assert path_texts(ans) == ["01", "00"]


def test_zerosep_rejects_other_bases():
    with pytest.raises(WrongClass):
        zerosep_decide(parse_formula("and(x1,x2)", MONO_BASE), MONO_BASE, 2)


def test_zerosep_random_paths_meet_the_detour_bound():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 8)
        ast = parse_formula(rand_ast(rng, IMP_OPS, n, rng.randint(2, 25)), IMP_BASE)
        sols = sorted(enumerate_solutions(ast, IMP_BASE, n).words)
        members = set(sols)
        if len(sols) < 2:
            continue
        for _ in range(5):
            a, b = rng.choice(sols), rng.choice(sols)
            ans = zerosep_decide(ast, IMP_BASE, n, BitVector(n, a), BitVector(n, b))
            words = [v.word for v in ans.witness_path]
            assert words[0] == a and words[-1] == b
            assert len(words) - 1 <= bin(a ^ b).count("1") + 2
            assert all(w in members for w in words)


def test_zerosep_budget_withholds_only_the_path(monkeypatch):
    # the pinning coordinate is hidden behind a nested application, so the
    # syntactic probe fails and the semantic scan is over the limit
    ast = parse_formula("imp(x1,imp(x2,x3))", IMP_BASE)
    monkeypatch.setitem(LIMITS, "search variables", 2)
    ans = zerosep_decide(ast, IMP_BASE, 3, bv("000"), bv("011"))
    assert ans.connected and ans.st_connected
    assert ans.witness_path is None
    assert ans.rationale.endswith(
        "(witness path withheld: coordinate search over 3 variables exceeds budget 2)"
    )
    # with the default limit the same query carries a witness
    monkeypatch.undo()
    full = zerosep_decide(ast, IMP_BASE, 3, bv("000"), bv("011"))
    assert full.witness_path is not None


def test_zerosep_search_variables_limit_is_inclusive(monkeypatch):
    # n at the limit scans for the coordinate; n one past it withholds
    # the path and nothing else
    ast = parse_formula("imp(x1,imp(x2,x3))", IMP_BASE)
    monkeypatch.setitem(LIMITS, "search variables", 4)
    at = zerosep_decide(ast, IMP_BASE, 4, bv("0000"), bv("0110"))
    assert [v.text for v in at.witness_path] == ["0000", "0010", "0110"]
    monkeypatch.setitem(LIMITS, "search variables", 3)
    over = zerosep_decide(ast, IMP_BASE, 4, bv("0000"), bv("0110"))
    assert (over.connected, over.st_connected, over.witness_path) == (True, True, None)
    assert over.rationale == at.rationale + (
        " (witness path withheld: coordinate search over 4 variables exceeds budget 3)"
    )


def test_zerosep_trivial_pair():
    ast = parse_formula("imp(x1,x2)", IMP_BASE)
    ans = zerosep_decide(ast, IMP_BASE, 2, bv("11"), bv("11"))
    assert path_texts(ans) == ["11"]


# ---------------------------------------------------------------------------
# Affine bases.


def test_linear_pinned_example():
    ast = parse_formula("xor(x1,x2)", LIN_BASE)
    ans = linear_decide(ast, LIN_BASE, bv("011"), bv("010"))
    assert not ans.connected
    assert ans.st_connected
    assert path_texts(ans) == ["011", "010"]


def test_linear_disagreement_on_support():
    ast = parse_formula("xor(x1,x2)", LIN_BASE)
    ans = linear_decide(ast, LIN_BASE, bv("01"), bv("10"))
    assert ans.st_connected is False
    assert ans.witness_path is None


def test_linear_connected_iff_support_small():
    assert linear_decide(parse_formula("x1", LIN_BASE), LIN_BASE).connected
    assert linear_decide(parse_formula("not(x2)", LIN_BASE), LIN_BASE).connected
    assert not linear_decide(parse_formula("eqv(x1,x2)", LIN_BASE), LIN_BASE).connected
    # constant forms: xor(x1,x1) is the empty-support constant 0
    assert linear_decide(parse_formula("xor(x1,x1)", LIN_BASE), LIN_BASE).connected


def test_linear_rejects_other_bases_and_qbfs():
    with pytest.raises(WrongClass):
        linear_decide(parse_formula("and(x1,x2)", MONO_BASE), MONO_BASE)
    with pytest.raises(UsageError):
        linear_decide(parse_qbf("E x1 : xor(x1,x2)", LIN_BASE), LIN_BASE)


def test_linear_form_of_matches_truth_tables():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 7)
        dag = parse_circuit(rand_linear_circuit(rng, n, rng.randint(1, 10)), LIN_BASE)
        form = linear_form_of(dag, LIN_BASE)
        assert form.truth_table(n) == truth_table_of(dag, LIN_BASE, n)


def test_linear_form_of_formula_and_table():
    ast = parse_formula("xor(x1,eqv(x2,x2))", LIN_BASE)
    form = linear_form_of(ast, LIN_BASE)
    assert form == LinearForm(frozenset({1}), 1)
    assert linear_form_of(tt_of("0110"), LIN_BASE) == LinearForm(frozenset({1, 2}), 0)


def test_linear_form_of_rejects_non_affine_connectives():
    ast = parse_formula("and(x1,x2)", STD_BASE)
    with pytest.raises(NonAffineBaseFunction):
        linear_form_of(ast, STD_BASE)


def test_linear_verdicts_match_brute_force():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(1, 7)
        dag = parse_circuit(rand_linear_circuit(rng, n, rng.randint(1, 9)), LIN_BASE)
        sols = enumerate_solutions(dag, LIN_BASE, n)
        labels = cube_labels(sols.words, n)
        comp_count = len(set(labels.values()))
        ans = linear_decide(dag, LIN_BASE)
        assert ans.connected == (comp_count <= 1)
        for _ in range(4):
            if not sols.words:
                break
            a, b = rng.choice(sols.words), rng.choice(sols.words)
            pair = linear_decide(dag, LIN_BASE, BitVector(n, a), BitVector(n, b))
            assert pair.st_connected == (labels[a] == labels[b])


# ---------------------------------------------------------------------------
# Quantified formulas.


def test_qbf_monotone_path_on_free_variables():
    q = parse_qbf("E x2 : and(x1,or(x2,x3))", MONO_BASE)
    assert q.free_vars() == [1, 3]
    ans = qbf_easy_decide(q, MONO_BASE, bv("10"), bv("11"))
    assert ans.connected and ans.st_connected
    assert path_texts(ans) == ["10", "11"]
    # free x1, x2, x4: (x1 and x2) or x4; flipping x1 first would leave 010
    q = parse_qbf("E x3 : or(and(x1,x2),and(x3,x4))", MONO_BASE)
    ans = qbf_easy_decide(q, MONO_BASE, bv("110"), bv("001"))
    assert path_texts(ans) == ["110", "111", "011", "001"]


def test_qbf_linear_rightmost_existential_is_a_tautology():
    q = parse_qbf("E x2 : xor(x1,x2)", LIN_BASE)
    ans = qbf_easy_decide(q, LIN_BASE, bv("0"), bv("1"))
    assert ans.connected and ans.st_connected
    assert "tautology" in ans.rationale
    assert path_texts(ans) == ["0", "1"]
    # the flips go in ascending coordinate order
    q = parse_qbf("E x4 : xor(x1,xor(x2,xor(x3,x4)))", LIN_BASE)
    ans = qbf_easy_decide(q, LIN_BASE, bv("101"), bv("010"))
    assert path_texts(ans) == ["101", "001", "011", "010"]


def test_qbf_linear_rightmost_universal_is_unsatisfiable():
    q = parse_qbf("A x2 : xor(x1,x2)", LIN_BASE)
    ans = qbf_easy_decide(q, LIN_BASE)
    assert ans.connected
    assert "unsatisfiable" in ans.rationale
    with pytest.raises(NotASolution):
        qbf_easy_decide(q, LIN_BASE, bv("0"), bv("1"))


def test_qbf_linear_fictive_quantifier_is_dropped():
    q = parse_qbf("A x3 : xor(x1,xor(x2,xor(x3,x3)))", LIN_BASE)
    ans = qbf_easy_decide(q, LIN_BASE)
    assert not ans.connected  # residual support {x1, x2}
    pair = qbf_easy_decide(q, LIN_BASE, bv("01"), bv("10"))
    assert pair.st_connected is False


def test_qbf_rejects_hard_bases_and_plain_formulas():
    q = parse_qbf("E x1 : imp(x1,x2)", IMP_BASE)
    with pytest.raises(WrongClass):
        qbf_easy_decide(q, IMP_BASE)
    with pytest.raises(UsageError):
        qbf_easy_decide(parse_formula("x1", STD_BASE), STD_BASE)


def test_qbf_monotone_random_agree_with_expansion():
    rng = random.Random(16)
    texts = base_texts(MONO_BASE)
    for _ in range(15):
        n = rng.randint(2, 5)
        matrix = rand_ast(rng, MONO_OPS, n, rng.randint(2, 14))
        bound = rng.sample(range(1, n + 1), rng.randint(0, n - 1))
        head = " ".join(f"{'E' if rng.random() < 0.5 else 'A'} x{j}" for j in bound)
        q = parse_qbf(f"{head} : {matrix}", MONO_BASE)
        free = q.free_vars()
        if not free:
            continue
        sols = sorted(enumerate_solutions(q, MONO_BASE, len(free)).words)
        ans = qbf_easy_decide(q, MONO_BASE)
        labels = cube_labels(sols, len(free))
        assert ans.connected == (len(set(labels.values())) <= 1)
        for _ in range(3):
            if len(sols) < 2:
                break
            a, b = rng.choice(sols), rng.choice(sols)
            pair = qbf_easy_decide(
                q, MONO_BASE, BitVector(len(free), a), BitVector(len(free), b)
            )
            assert pair.st_connected == (labels[a] == labels[b])
            words = [v.word for v in pair.witness_path]
            assert words[0] == a and words[-1] == b
