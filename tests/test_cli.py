"""End-to-end command-line behavior: queries, generators, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from bconn import (
    TVariant,
    cnf_to_formula,
    gen_expdiam,
    parse_dimacs,
    parse_formula,
    parse_qbf,
    parse_relation,
    print_relation,
    t_transform,
    truth_table_of,
)
from bconn.cli import run_cli
from bconn.errors import LIMITS
from bconn.properties import property_report

from conftest import STD_BASE

STD_TT = "and 2 0001\nor 2 0111\nnot 1 10\n"
MONO_TT = "and 2 0001\nor 2 0111\n"
XOR_TT = "xor 2 0110\n"


def run(capsys, *argv):
    code = run_cli(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def jrun(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


# ---------------------------------------------------------------------------
# classify


def test_classify_monotone_base(capsys, files):
    base = files("mono.tt", MONO_TT)
    code, payload, _ = jrun(capsys, "classify", "--base", base)
    assert code == 0
    assert payload["clone"] == "M2"
    assert payload["dispatch"]["describe"] == "EASY(MONOTONE)"
    assert payload["quantified_dispatch"]["describe"] == "EASY(MONOTONE)"
    code, out, _ = run(capsys, "classify", "--base", base)
    assert code == 0 and "clone: M2" in out


def test_classify_builds_each_table_report_once(capsys, files):
    # dup repeats and's table; clone_identify and both dispatches share reports
    base = files("b.tt", MONO_TT + "dup 2 0001\n")
    property_report.cache_clear()
    code, payload, _ = jrun(capsys, "classify", "--base", base)
    assert code == 0 and payload["clone"] == "M2"
    info = property_report.cache_info()
    assert (info.misses, info.hits) == (2, 7)


_FAULTS = [  # a malformed name, arity or table field
    st.text("az09_A-", max_size=3),
    st.sampled_from(["-1", "x", "4"]),
    st.text("01a2", max_size=9),
]


@st.composite
def _base_line(draw):
    """`name arity table`, with one field made malformed half the time."""
    arity = draw(st.integers(0, 3))
    fields = [
        draw(st.sampled_from(["f", "g", "h", "and"])),
        str(arity),
        draw(st.text("01", min_size=1 << arity, max_size=1 << arity)),
    ]
    fault = draw(st.integers(0, 5))
    if fault < len(_FAULTS):
        fields[fault] = draw(_FAULTS[fault])
    return " ".join(fields) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(_base_line(), max_size=3), st.integers(-2, 12))
def test_classify_answers_or_reports_on_any_base_file(tmp_path_factory, lines, bound):
    path = tmp_path_factory.mktemp("fuzz") / "b.tt"
    path.write_text("".join(lines), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["classify", "--base", str(path), "--degree-bound", str(bound), "--json"])
    if code == 0:
        assert "clone" in json.loads(out.getvalue())
    else:
        assert code in (2, 3) and "error" in json.loads(err.getvalue())


def test_classify_complete_base_is_hard(capsys, files):
    base = files("std.tt", STD_TT)
    code, payload, _ = jrun(capsys, "classify", "--base", base)
    assert code == 0
    assert payload["clone"] == "BF"
    assert payload["dispatch"]["side"] == "HARD"
    assert payload["dispatch"]["hard_variant"] == "S12"


def test_classify_without_base_is_usage(capsys):
    code, _, _ = run(capsys, "classify")
    assert code == 2


def test_unknown_command_is_usage(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# conn


def test_conn_poly_monotone(capsys, files):
    base = files("mono.tt", MONO_TT)
    f = files("f.bf", "or(x1,x2)\n")
    code, payload, _ = jrun(capsys, "conn", "--base", base, "--formula", f)
    assert code == 0
    assert payload["connected"] is True and payload["mode"] == "poly"


def test_conn_poly_linear_negative(capsys, files):
    base = files("xor.tt", XOR_TT)
    f = files("f.bf", "xor(x1,x2)\n")
    code, out, _ = run(capsys, "conn", "--base", base, "--formula", f)
    assert code == 0 and out.startswith("connected: false")
    code, _, _ = run(capsys, "conn", "--base", base, "--formula", f, "--exit-status")
    assert code == 1


def test_conn_brute_relation(capsys, files):
    rel = files("r.rel", "n 2\n00\n11\n")
    code, payload, _ = jrun(capsys, "conn", "--rel", rel)
    assert code == 0
    assert payload["connected"] is False
    assert payload["mode"] == "brute" and payload["components"] == 2
    code, _, _ = run(capsys, "conn", "--rel", rel, "--exit-status")
    assert code == 1


def test_conn_empty_relation_is_connected(capsys, files):
    rel = files("empty.rel", "n 3\n")
    code, payload, _ = jrun(capsys, "conn", "--rel", rel)
    assert code == 0
    assert payload["connected"] is True and payload["count"] == 0


def test_conn_auto_refuses_hard_base_over_budget(capsys, files):
    base = files("std.tt", STD_TT)
    f = files("wide.bf", "and(x1,x25)\n")
    code, _, err = run(capsys, "conn", "--base", base, "--formula", f, "--json")
    assert code == 3
    blob = json.loads(err)
    assert blob["error"]["code"] == "BudgetExceeded"
    assert "HARD(S12)" in blob["error"]["message"]


def test_conn_mode_poly_refuses_hard_base(capsys, files):
    base = files("std.tt", STD_TT)
    f = files("f.bf", "or(x1,x2)\n")
    code, _, err = run(capsys, "conn", "--base", base, "--formula", f, "--mode", "poly")
    assert code == 2 and "WrongClass" in err


def test_conn_mode_poly_rejects_relations(capsys, files):
    rel = files("r.rel", "n 1\n1\n")
    code, _, err = run(capsys, "conn", "--rel", rel, "--mode", "poly")
    assert code == 2 and "UsageError" in err


def test_conn_rejects_multiple_inputs(capsys, files):
    base = files("std.tt", STD_TT)
    f = files("f.bf", "x1\n")
    rel = files("r.rel", "n 1\n1\n")
    code, _, err = run(capsys, "conn", "--base", base, "--formula", f, "--rel", rel)
    assert code == 2 and "exactly one" in err


# ---------------------------------------------------------------------------
# stconn / path


def test_stconn_brute_pinned_path(capsys, files):
    rel = files("r.rel", "n 2\n00\n01\n11\n")
    code, out, _ = run(capsys, "stconn", "--rel", rel, "--s", "00", "--t", "11")
    assert code == 0
    assert out.strip() == "connected: true; path: 00 01 11"


def test_stconn_poly_monotone_path(capsys, files):
    base = files("mono.tt", MONO_TT)
    f = files("f.bf", "or(x1,x2)\n")
    code, payload, _ = jrun(
        capsys, "stconn", "--base", base, "--formula", f, "--s", "01", "--t", "10"
    )
    assert code == 0
    assert payload["connected"] is True
    assert payload["path"] == ["01", "11", "10"]


def test_stconn_negative_exit_status(capsys, files):
    base = files("xor.tt", XOR_TT)
    f = files("f.bf", "xor(x1,x2)\n")
    code, payload, _ = jrun(
        capsys, "stconn", "--base", base, "--formula", f, "--s", "01", "--t", "10"
    )
    assert code == 0 and payload["connected"] is False
    code, _, _ = run(
        capsys,
        "stconn", "--base", base, "--formula", f,
        "--s", "01", "--t", "10", "--exit-status",
    )
    assert code == 1


def test_stconn_missing_endpoint_is_usage(capsys, files):
    rel = files("r.rel", "n 2\n00\n")
    code, _, err = run(capsys, "stconn", "--rel", rel, "--s", "00")
    assert code == 2 and "--t" in err


def test_stconn_wrong_dimension_endpoint(capsys, files):
    rel = files("r.rel", "n 2\n00\n11\n")
    code, _, err = run(capsys, "stconn", "--rel", rel, "--s", "0", "--t", "11")
    assert code == 2 and "dimension" in err


def test_stconn_non_solution_endpoint(capsys, files):
    rel = files("r.rel", "n 2\n00\n11\n")
    code, _, err = run(capsys, "stconn", "--rel", rel, "--s", "01", "--t", "11")
    assert code == 2 and "NotASolution" in err


def test_path_prints_witness_and_length(capsys, files):
    rel = files("r.rel", "n 2\n00\n01\n11\n")
    code, payload, _ = jrun(capsys, "path", "--rel", rel, "--s", "00", "--t", "11")
    assert code == 0
    assert payload["path"] == ["00", "01", "11"] and payload["length"] == 2


def test_path_disconnected(capsys, files):
    rel = files("r.rel", "n 2\n00\n11\n")
    code, out, _ = run(capsys, "path", "--rel", rel, "--s", "00", "--t", "11")
    assert code == 0 and out.startswith("connected: false")
    code, _, _ = run(
        capsys, "path", "--rel", rel, "--s", "00", "--t", "11", "--exit-status"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# diameter / components


def test_diameter_exact_and_lower_bound(capsys, files):
    rel = files("p.rel", print_relation(gen_expdiam(2)))
    code, payload, _ = jrun(capsys, "diameter", "--rel", rel)
    assert code == 0
    assert payload == {"count": 7, "components": 1, "diameter": 6, "mode": "EXACT"}
    code, payload, _ = jrun(
        capsys, "diameter", "--rel", rel, "--diameter-mode", "lower-bound"
    )
    assert code == 0
    assert payload["mode"] == "LOWER_BOUND" and payload["diameter"] <= 6


def test_exact_diameter_budget_trips_before_searching(capsys, files):
    # a dense random relation whose all-sources search is ~4e9 steps
    code, text, _ = run(capsys, "gen-random", "--vars", "16", "--count", "30000")
    assert code == 0
    rel = files("dense.rel", text)
    t0 = time.monotonic()
    code, out, err = run(capsys, "diameter", "--rel", rel, "--diameter-mode", "exact", "--json")
    assert time.monotonic() - t0 < 10.0
    assert code == 3 and not out
    assert json.loads(err)["error"]["code"] == "BudgetExceeded"


@pytest.mark.parametrize("text", ["", "c only a comment\n"])
@pytest.mark.parametrize("sub", ["conn", "components"])
def test_cnf_without_problem_line_is_a_usage_error(capsys, files, text, sub):
    cnf = files("empty.cnf", text)
    code, out, err = run(capsys, sub, "--cnf", cnf)
    assert (code, out, err) == (2, "", "error [HeaderMismatch]: no problem line\n")
    code, out, err = run(capsys, sub, "--cnf", cnf, "--json")
    assert code == 2 and not out
    assert json.loads(err) == {"error": {"code": "HeaderMismatch", "message": "no problem line"}}


@pytest.mark.parametrize("seed", range(8))
def test_diameter_reports_the_components_that_components_does(capsys, files, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    count = rng.randint(0, 1 << n)
    code, text, _ = run(capsys, "gen-random", "--vars", str(n), "--count", str(count))
    assert code == 0
    rel = files("r.rel", text)
    code, comp, _ = jrun(capsys, "components", "--rel", rel)
    assert code == 0
    for mode in ("exact", "lower-bound"):
        code, payload, _ = jrun(capsys, "diameter", "--rel", rel, "--diameter-mode", mode)
        assert code == 0
        assert (payload["count"], payload["components"]) == (comp["count"], comp["components"])


def test_components_lists_representatives(capsys, files):
    rel = files("r.rel", "n 2\n00\n11\n")
    code, payload, _ = jrun(capsys, "components", "--rel", rel)
    assert code == 0
    assert payload["components"] == 2
    assert payload["representatives"] == ["00", "11"]


@pytest.mark.parametrize("count", [0, 1, 3, 4, 7])
def test_components_json_written_in_chunks_is_one_dump(capsys, files, monkeypatch, count):
    from bconn import cli

    monkeypatch.setattr(cli, "_CHUNK", 3)  # none, part of one, one, one and a part, ...
    reps = [format(w, "06b") for w in range(64) if w.bit_count() % 2 == 0][:count]
    rel = files("r.rel", "n 6\n" + "".join(r + "\n" for r in reps))
    code, out, _ = run(capsys, "components", "--rel", rel, "--json")
    want = {"count": count, "components": count, "representatives": reps}
    assert code == 0 and out == json.dumps(want, sort_keys=True) + "\n"
    plain = f"components: {count} (count={count})\n"
    assert run(capsys, "components", "--rel", rel) == (0, plain, "")


@pytest.mark.parametrize("header", ["n abc", "n -1"])
def test_components_rejects_a_bad_relation_header(capsys, files, header):
    rel = files("r.rel", header + "\n")
    code, payload, err = jrun(capsys, "components", "--rel", rel)
    assert code == 2 and payload is None
    error = json.loads(err)["error"]
    assert error["code"] == "UsageError" and "line 1" in error["message"]


@pytest.mark.parametrize("header", ["n 31", "n 99999999999"])
def test_components_rejects_a_relation_header_past_n_max(capsys, files, header):
    rel = files("r.rel", header + "\n")
    t0 = time.perf_counter()
    code, payload, err = jrun(capsys, "components", "--rel", rel)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and payload is None
    error = json.loads(err)["error"]
    assert error["code"] == "UsageError" and "exceeds 30" in error["message"]


@pytest.mark.parametrize("kind, head", [("--formula", ""), ("--qbf", "E x2 : ")])
def test_components_of_a_deeply_nested_formula(capsys, files, kind, head):
    base = files("std.tt", STD_TT)
    deep = files("deep.txt", head + "not(" * 900 + "x1" + ")" * 900)
    code, payload, err = jrun(capsys, "components", kind, deep, "--base", base)
    assert code == 0 and err == ""
    assert payload == {"components": 1, "count": 1, "representatives": ["1"]}


@pytest.mark.parametrize("kind, head", [("--formula", ""), ("--qbf", "E x2 : ")])
def test_components_of_a_formula_nested_past_the_recursion_limit(capsys, files, kind, head):
    # the parser and every walk after it keep their own stacks, so depth
    # is bounded by memory, not by the interpreter's recursion limit
    base = files("std.tt", STD_TT)
    deep = files("deep.txt", head + "not(" * 100_000 + "x1" + ")" * 100_000)
    code, payload, err = jrun(capsys, "components", kind, deep, "--base", base)
    assert code == 0 and err == ""
    assert payload == {"components": 1, "count": 1, "representatives": ["1"]}


@pytest.mark.parametrize("var", ["x\u00b2", "x\u0661", "x0", "x01"])
def test_conn_rejects_a_quantified_variable_that_is_not_xN(capsys, files, var):
    # superscript two and Arabic-Indic one are digits to str.isdigit, not to the
    # variable pattern: the one raised a traceback, the other quantified x1
    base = files("std.tt", STD_TT)
    q = files("q.txt", f"E {var} : and(x1,x2)")
    code, payload, err = jrun(capsys, "conn", "--qbf", q, "--base", base)
    assert code == 2 and payload is None
    assert json.loads(err)["error"] == {
        "code": "FormulaSyntaxError", "message": f"bad quantified variable {var!r}",
    }


# ---------------------------------------------------------------------------
# reduce


def test_reduce_cnf_s12(capsys, files):
    cnf = files("f.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, payload, _ = jrun(capsys, "reduce", "--cnf", cnf, "--variant", "s12")
    assert code == 0
    assert payload["variant"] == "S12"
    assert payload["new_variable_indices"] == [3]
    assert payload["pad_vector"] == "1"
    assert payload["shifted_by"] is None
    assert payload["depth"] == 1 and payload["size"] > 0
    got = truth_table_of(parse_formula(payload["formula"], STD_BASE), STD_BASE, 3)
    phi = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    want = t_transform(cnf_to_formula(phi), TVariant("S12"), n0=2)
    assert got == truth_table_of(want, STD_BASE, 3)


def test_reduce_writes_out_files(capsys, files, tmp_path):
    cnf = files("f.cnf", "p cnf 2 1\n1 2 0\n")
    out = str(tmp_path / "t.bf")
    code, stdout, _ = run(
        capsys, "reduce", "--cnf", cnf, "--variant", "s12", "--out", out
    )
    assert code == 0 and "wrote" in stdout
    formula = (tmp_path / "t.bf").read_text(encoding="utf-8").strip()
    sidecar = json.loads((tmp_path / "t.bf.json").read_text(encoding="utf-8"))
    assert sidecar["variant"] == "S12" and sidecar["pad_vector"] == "1"
    got = truth_table_of(parse_formula(formula, STD_BASE), STD_BASE, 3)
    want = t_transform(cnf_to_formula(parse_dimacs("p cnf 2 1\n1 2 0\n")),
                       TVariant("S12"), n0=2)
    assert got == truth_table_of(want, STD_BASE, 3)


@pytest.mark.parametrize(
    "kind, text, k, dimension",
    [
        ("--cnf", "p cnf 2 1\n1 -2 0\n", 30, 34),
        ("--cnf", "p cnf 2 1\n1 -2 0\n", 3000, 3004),
        ("--rel", "n 2\n11\n", 22, 26),
    ],
)
def test_reduce_refuses_an_oversized_transform_before_building_it(
    capsys, files, kind, text, k, dimension
):
    path = files("in.txt", text)
    t0 = time.monotonic()
    code, out, err = run(capsys, "reduce", kind, path, "--variant", "s02k", "--k", str(k))
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (3, "")
    assert err == f"error [BudgetExceeded]: {dimension} table variables over the limit of 24\n"


@pytest.mark.parametrize("more", [[], ["--json"], ["--out", "t.bf"]])
def test_reduce_refuses_an_output_too_large_to_print(capsys, files, tmp_path, more):
    # 83 gates over {f} that unfold to 857,264,731 nodes: printing them
    # would build a 2.6 GB string
    cnf = files("f.cnf", "p cnf 4 3\n1 -2 3 0\n2 3 -4 0\n1 4 0\n")
    base = files("f.tt", "f 3 11000000\n")
    more = [str(tmp_path / m) if m.endswith(".bf") else m for m in more]
    t0 = time.monotonic()
    code, out, err = run(capsys, "reduce", "--cnf", cnf, "--base", base, "--variant", "s12", *more)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (3, "")
    message = "857264731 formula nodes over the limit of 67108864"
    if "--json" in more:
        assert json.loads(err) == {"error": {"code": "TooLarge", "message": message}}
    else:
        assert err == f"error [TooLarge]: {message}\n"
    assert not (tmp_path / "t.bf").exists()


@pytest.mark.parametrize("as_json", [False, True])
def test_reduce_refuses_a_relation_transform_by_its_word_count(capsys, files, as_json):
    # dimension 2 + 22 is within budget, but S02K(20) of one word has
    # 16,777,042 words; they are counted before any is built
    path = files("one.rel", "n 2\n11\n")
    t0 = time.monotonic()
    args = ["reduce", "--rel", path, "--variant", "s02k", "--k", "20"] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *args)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (3, "")
    message = "16777042 transform words over the limit of 1048576"
    if as_json:
        assert json.loads(err) == {"error": {"code": "BudgetExceeded", "message": message}}
    else:
        assert err == f"error [BudgetExceeded]: {message}\n"


# The reduce outputs (stdout, --json stdout, --out file and sidecar) of one
# 1-reproducing CNF, pinned by digest.  dup.tt names the and and or tables
# twice each, out of name order: the output spells each by its least name.
PINNED_CNF = "p cnf 4 3\n1 -2 3 0\n2 -4 0\n-1 4 3 0\n"
PINNED_BASES = {
    "nand.tt": "nand 2 1110\n",
    "dup.tt": "zz 2 0111\nh 2 0001\nor 2 0111\na 2 0001\nnot 1 10\n",
}
PINNED_REDUCE = [
    ("s12", None, "d02eb9c266553c6a04bc6b64e97b87234f6c18ddbe22787a7f167bbe04a43737"),
    ("d1", None, "7fbb07efcff0a1165b14b812e7bfb035a57fefdc237ea3422db1b18ce9d6cca4"),
    ("s02k --k 2", None, "ab42e9948c3381aef58627b6eb70f4fcb37b7edab79e7f52908573006222faff"),
    ("s02k --k 3", None, "5ca910b4fa209d204c02058eaa461402895c8926308e5fe3996b5b71e8f812bc"),
    ("s02q", None, "f1a3e9e4ae6bb7b1f3b0a9bc98f4328247a2d6668c808bf19826c397b35cb682"),
    ("s12", "nand.tt", "4bca33bb57562368e2b8b5e0230031c62ff8a0b9e414426733ce2537ae12b41d"),
    ("s12", "dup.tt", "c464e1b09b64635581a2b53fd41797931031512edc1ce936edcb1f39290491d8"),
    ("d1", "dup.tt", "5640fb17acf99e9e2ac3299f474a4e93680075e351a21914089fcd666fbc1c2c"),
]


@pytest.mark.parametrize("variant, base, digest", PINNED_REDUCE)
def test_reduce_output_is_pinned(capsys, files, tmp_path, variant, base, digest):
    argv = ["reduce", "--cnf", files("p.cnf", PINNED_CNF), "--variant", *variant.split()]
    if base:
        argv += ["--base", files(base, PINNED_BASES[base])]
    h = hashlib.sha256()
    for more in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *more)
        assert (code, err) == (0, "")
        h.update(out.encode())
    out = tmp_path / "t.bf"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    h.update(out.read_bytes())
    h.update((tmp_path / "t.bf.json").read_bytes())
    assert h.hexdigest() == digest


def test_reduce_shifts_when_needed(capsys, files):
    cnf = files("f.cnf", "p cnf 2 1\n-1 0\n")
    code, payload, _ = jrun(capsys, "reduce", "--cnf", cnf, "--variant", "s12")
    assert code == 0
    assert payload["shifted_by"] == "00"


def test_reduce_unsatisfiable_cnf_is_refused(capsys, files):
    cnf = files("f.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, _, err = run(capsys, "reduce", "--cnf", cnf, "--variant", "s12")
    assert code == 2 and "unsatisfiable" in err


@pytest.mark.parametrize("extra", [["--cnf"], ["--base"], ["--cnf", "--base"]])
def test_reduce_of_a_relation_refuses_a_cnf_or_a_base(capsys, files, extra):
    # a relation is transformed as it is: a CNF or base beside it would
    # go unread, so the query is refused before anything is parsed
    given = {"--cnf": files("f.cnf", "p cnf 2 1\n1 2 0\n"), "--base": files("nand.tt", "nand 2 1110\n")}
    rel = files("r.rel", "n 2\n11\n")
    argv = [a for flag in extra for a in (flag, given[flag])]
    code, out, err = run(capsys, "reduce", "--rel", rel, *argv, "--variant", "s12")
    assert (code, out) == (2, "")
    assert err == "error [UsageError]: reduce --rel reads no --cnf or --base\n"
    code, out, err = run(capsys, "reduce", "--variant", "s12")
    assert (code, out) == (2, "")
    assert err == "error [UsageError]: reduce needs --cnf or --rel input\n"


def test_reduce_relation_d1(capsys, files):
    rel = files("r.rel", "n 1\n1\n")
    code, out, _ = run(capsys, "reduce", "--rel", rel, "--variant", "d1")
    assert code == 0
    got = parse_relation(out)
    assert got.n == 4 and len(got) == 8
    code, payload, _ = jrun(capsys, "reduce", "--rel", rel, "--variant", "d1")
    assert payload["count"] == 8
    assert payload["new_variable_indices"] == [2, 3, 4]


def test_reduce_relation_writes_out_files(capsys, files, tmp_path):
    # --out writes a relation and its sidecar as it does a formula
    rel = files("r.rel", "n 1\n1\n")
    out = str(tmp_path / "t.rel")
    code, stdout, _ = run(capsys, "reduce", "--rel", rel, "--variant", "d1", "--out", out)
    assert (code, stdout) == (0, f"wrote {out} and {out}.json\n")
    got = parse_relation((tmp_path / "t.rel").read_text(encoding="utf-8"))
    assert got.n == 4 and len(got) == 8
    sidecar = json.loads((tmp_path / "t.rel.json").read_text(encoding="utf-8"))
    assert sidecar == {
        "variant": "D1", "new_variable_indices": [2, 3, 4], "pad_vector": "111",
        "n": 4, "count": 8,
    }
    # the --json payload of a relation is its sidecar
    assert jrun(capsys, "reduce", "--rel", rel, "--variant", "d1", "--out", out)[1] == sidecar


def test_reduce_relation_rejects_s02q(capsys, files):
    rel = files("r.rel", "n 1\n1\n")
    code, _, err = run(capsys, "reduce", "--rel", rel, "--variant", "s02q")
    assert code == 2 and "UsageError" in err


def test_reduce_s02q_emits_quantified_formula(capsys, files):
    cnf = files("f.cnf", "p cnf 2 1\n1 2 0\n")
    code, payload, _ = jrun(capsys, "reduce", "--cnf", cnf, "--variant", "s02q")
    assert code == 0
    qbf = parse_qbf(payload["formula"], STD_BASE)
    assert qbf.prefix == (("A", 4),)
    assert payload["new_variable_indices"] == [3, 4]


def test_reduce_k_flag_guards(capsys, files):
    cnf = files("f.cnf", "p cnf 1 1\n1 0\n")
    code, _, _ = run(capsys, "reduce", "--cnf", cnf, "--variant", "s12", "--k", "3")
    assert code == 2
    code, _, _ = run(capsys, "reduce", "--cnf", cnf, "--variant", "s02k", "--k", "1")
    assert code == 2


@pytest.mark.parametrize("flag", ["--formula", "--circuit", "--qbf", "--vars"])
def test_reduce_refuses_the_flags_it_does_not_read(capsys, files, flag):
    cnf = files("f.cnf", "p cnf 1 1\n1 0\n")
    value = "5" if flag == "--vars" else cnf
    code, out, err = run(capsys, "reduce", "--cnf", cnf, "--variant", "s12", flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("components", "--cnf", "{bad}"),
        ("components", "--rel", "{bad}"),
        ("components", "--base", "{bad}", "--formula", "{formula}"),
        ("components", "--base", "{base}", "--formula", "{bad}"),
        ("components", "--base", "{base}", "--circuit", "{bad}"),
        ("components", "--base", "{base}", "--qbf", "{bad}"),
        ("classify", "--base", "{bad}"),
        ("closure", "--base", "{bad}", "--vars", "1"),
        ("reduce", "--cnf", "{bad}", "--variant", "s12"),
        ("reduce", "--cnf", "{cnf}", "--base", "{bad}", "--variant", "s12"),
        ("reduce", "--rel", "{bad}", "--variant", "s12"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_an_input_file_that_is_not_utf8_is_a_usage_error(capsys, files, tmp_path, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00bad")
    paths = {
        "bad": str(bad),
        "base": files("std.tt", STD_TT),
        "formula": files("f.txt", "and(x1,x2)\n"),
        "cnf": files("f.cnf", "p cnf 1 1\n1 0\n"),
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error [UsageError]: cannot read {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-random", "--vars", "2", "--count", "2", "--dot", "{out}"),
        ("gen-expdiam", "--k", "1", "--dot", "{out}"),
        ("export-dot", "--rel", "{rel}", "--dot", "{out}"),
        ("reduce", "--cnf", "{cnf}", "--variant", "s12", "--out", "{out}"),
    ],
    ids=lambda argv: argv[0],
)
def test_an_unwritable_output_path_is_a_usage_error(capsys, files, tmp_path, argv):
    out_path = str(tmp_path / "missing" / "o")
    paths = {
        "out": out_path,
        "rel": files("r.rel", "n 2\n00\n01\n"),
        "cnf": files("f.cnf", "p cnf 1 1\n1 0\n"),
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error [UsageError]: cannot write {out_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("taken", ["o", "o.json"])
def test_reduce_out_writes_both_files_or_neither(capsys, files, tmp_path, taken):
    cnf = files("f.cnf", "p cnf 2 1\n1 2 0\n")
    (tmp_path / taken).mkdir()  # a path no file can be written to
    out = str(tmp_path / "o")
    code, stdout, err = run(capsys, "reduce", "--cnf", cnf, "--variant", "s12", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error [UsageError]: cannot write {tmp_path / taken}: [Errno 21] " \
        f"Is a directory: '{tmp_path / taken}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["f.cnf", taken])
    assert (tmp_path / taken).is_dir() and not any((tmp_path / taken).iterdir())


@pytest.mark.parametrize("argv", [
    ("gen-random", "--vars", "4", "--count", "5"),
    ("gen-expdiam", "--k", "2"),
    ("export-dot", "--rel", "{rel}"),
])
@pytest.mark.parametrize("where, why", [
    ("missing/x.dot", "[Errno 2] No such file or directory"),
    ("dir", "[Errno 21] Is a directory"),
])
def test_an_unwritable_dot_path_is_refused_before_the_sweep(
    capsys, monkeypatch, files, tmp_path, argv, where, why
):
    from bconn import cli

    def no_sweep(sol):
        raise AssertionError("the component sweep ran")

    monkeypatch.setattr(cli, "components", no_sweep)
    (tmp_path / "dir").mkdir()
    rel = files("r.rel", "n 2\n00\n01\n")
    dot = str(tmp_path / where)
    code, out, err = run(capsys, *(a.format(rel=rel) for a in argv), "--dot", dot)
    assert (code, out) == (2, "")
    assert err == f"error [UsageError]: cannot write {dot}: {why}: '{dot}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "r.rel"]


def test_dot_writes_through_a_symlink_and_keeps_the_target_file(capsys, files, tmp_path):
    rel = files("r.rel", "n 2\n00\n01\n")
    target = tmp_path / "target.dot"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.dot"
    link.symlink_to(target)
    code, out, _ = run(capsys, "export-dot", "--rel", rel, "--dot", str(link))
    assert code == 0 and "wrote" in out
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8").startswith("graph")
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dot", "r.rel", "target.dot"]


def test_a_failed_sweep_removes_only_the_dot_file_it_created(capsys, monkeypatch, files, tmp_path):
    from bconn import cli
    from bconn.errors import UsageError

    def failing_sweep(sol):
        raise UsageError("no sweep")

    monkeypatch.setattr(cli, "components", failing_sweep)
    rel = files("r.rel", "n 2\n00\n01\n")
    (tmp_path / "old.dot").write_text("old\n")
    for name in ("new.dot", "old.dot"):
        code, out, err = run(capsys, "export-dot", "--rel", rel, "--dot", str(tmp_path / name))
        assert (code, out, err) == (2, "", "error [UsageError]: no sweep\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.dot", "r.rel"]


@pytest.mark.parametrize("kind, text, width", [
    ("--cnf", "p cnf 3 2\n1 -2 0\n2 3 -1 0\n", 3),  # the widest clause
    ("--cnf", "p cnf 2 2\n1 0\n2 0\n", 2),  # x1 AND x2, the combiner
    ("--rel", "n 2\n11\n01\n", 2),
])
def test_reduce_s02k_counts_new_variables_before_building_any(
    capsys, monkeypatch, files, kind, text, width
):
    path = files("in.txt", text)
    padded = []

    def pad_vector(v):
        padded.append(v.k)
        assert v.k < 100, "a pad vector built for a degree past the limit"
        return "1" + "0" * (v.k + 1)

    monkeypatch.setattr(TVariant, "pad_vector", pad_vector)
    # S02K(k) adds y and z_1..z_{k+1}: at the limit the query runs, one past
    # it the query is refused before any pad vector is built
    k = 3
    monkeypatch.setitem(LIMITS, "table variables", width + k + 2)
    code, _, err = run(capsys, "reduce", kind, path, "--variant", "s02k", "--k", str(k))
    assert (code, err, padded) == (0, "", [k])
    monkeypatch.setitem(LIMITS, "table variables", width + k + 1)
    code, out, err = run(capsys, "reduce", kind, path, "--variant", "s02k", "--k", str(k))
    assert (code, out, padded) == (3, "", [k])
    limit = width + k + 1
    assert err == f"error [BudgetExceeded]: {width + k + 2} table variables over the limit of {limit}\n"
    # a degree whose pad vector would not fit in memory is refused the same way
    monkeypatch.setitem(LIMITS, "table variables", 24)
    k = 99_999_999_999
    code, out, err = run(capsys, "reduce", kind, path, "--variant", "s02k", "--k", str(k))
    assert (code, out, padded) == (3, "", [3])
    assert err == f"error [BudgetExceeded]: {width + k + 2} table variables over the limit of 24\n"


# ---------------------------------------------------------------------------
# generators / closure / export


def test_gen_expdiam_text_and_json(capsys):
    code, out, _ = run(capsys, "gen-expdiam", "--k", "2")
    assert code == 0
    got = parse_relation(out)
    assert got == gen_expdiam(2)
    code, payload, _ = jrun(capsys, "gen-expdiam", "--k", "2")
    assert payload["n"] == 4 and payload["count"] == 7 and payload["diameter"] == 6
    code, _, _ = run(capsys, "gen-expdiam", "--k", "0")
    assert code == 2


def test_gen_expdiam_writes_dot(capsys, tmp_path):
    dot = str(tmp_path / "p.dot")
    code, _, _ = run(capsys, "gen-expdiam", "--k", "1", "--dot", dot)
    assert code == 0
    text = (tmp_path / "p.dot").read_text(encoding="utf-8")
    assert text.startswith("graph") and '"11"' in text


def test_gen_random_is_seed_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen-random", "--vars", "4", "--count", "5", "--seed", "9")
    code2, out2, _ = run(capsys, "gen-random", "--vars", "4", "--count", "5", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2
    assert len(parse_relation(out1)) == 5
    code, _, _ = run(capsys, "gen-random", "--vars", "3", "--count", "100")
    assert code == 2


@pytest.mark.parametrize("n", ["31", "99999999999"])
def test_gen_random_rejects_a_dimension_past_n_max(capsys, n):
    t0 = time.perf_counter()
    code, payload, err = jrun(capsys, "gen-random", "--vars", n, "--count", "1")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and payload is None
    error = json.loads(err)["error"]
    assert error["code"] == "UsageError" and "exceeds 30" in error["message"]


def test_gen_random_refuses_a_count_past_the_enumeration_budget(capsys):
    t0 = time.perf_counter()
    code, payload, err = jrun(capsys, "gen-random", "--vars", "30", "--count", str((1 << 24) + 1))
    assert time.perf_counter() - t0 < 0.5
    assert code == 3 and payload is None
    assert json.loads(err)["error"]["code"] == "BudgetExceeded"


def test_closure_refuses_an_arity_past_the_table_limit(capsys, files):
    base = files("xor.tt", XOR_TT)
    t0 = time.perf_counter()
    code, payload, err = jrun(capsys, "closure", "--base", base, "--vars", "40")
    assert time.perf_counter() - t0 < 0.5
    assert code == 3 and payload is None
    assert json.loads(err)["error"] == {
        "code": "BudgetExceeded", "message": "40 table variables over the limit of 24"
    }


def test_closure_refuses_a_runaway_round_by_its_applications(files):
    # R0 has only 2^15 4-ary tables, under the table budget; the rounds
    # pass the application limit first
    base = files("andxor.tt", "and 2 0001\nxor 2 0110\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys; from bconn.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "closure", "--base", base, "--vars", "4", "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3 and done.stdout == ""
    error = json.loads(done.stderr)["error"]
    assert error["code"] == "BudgetExceeded"
    assert error["message"].endswith(" closure applications over the limit of 33554432")


def test_closure_lists_xor_tables(capsys, files, monkeypatch):
    base = files("xor.tt", XOR_TT)
    code, payload, _ = jrun(capsys, "closure", "--base", base, "--vars", "2")
    assert code == 0
    assert payload["count"] == 6
    tables = {(t["arity"], t["table"]) for t in payload["tables"]}
    assert (2, "0110") in tables and (1, "01") in tables
    monkeypatch.setitem(LIMITS, "closure tables", 1)
    code, _, _ = run(capsys, "closure", "--base", base, "--vars", "2")
    assert code == 3


def test_closure_refuses_a_budget_flag(capsys, files):
    # a limit's value lives in errors.LIMITS only
    base = files("xor.tt", XOR_TT)
    code, out, err = run(capsys, "closure", "--base", base, "--vars", "2", "--budget", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --budget 1" in err


def test_export_dot_stdout_and_file(capsys, files, tmp_path):
    rel = files("r.rel", "n 2\n00\n01\n11\n")
    code, out, _ = run(capsys, "export-dot", "--rel", rel)
    assert code == 0 and out.startswith("graph")
    assert '"00" -- "01"' in out or '"01" -- "00"' in out
    dot = str(tmp_path / "g.dot")
    code, out, _ = run(capsys, "export-dot", "--rel", rel, "--dot", dot)
    assert code == 0 and "wrote" in out
    assert (tmp_path / "g.dot").read_text(encoding="utf-8").startswith("graph")


def test_json_error_reporting_shape(capsys, tmp_path):
    missing = str(tmp_path / "nope.tt")
    code, _, err = run(capsys, "classify", "--base", missing, "--json")
    assert code == 2
    blob = json.loads(err)
    assert blob["error"]["code"] == "UsageError"
    assert "message" in blob["error"]


def test_base_arity_past_the_limit_is_a_typed_error(capsys, files):
    # 1 << 20000 has too many digits to format, so the arity is checked first
    base = files("wide.tt", "f 20000 0\n")
    code, out, err = run(capsys, "classify", "--base", base, "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "ArityOverflow"


# ---------------------------------------------------------------------------
# poly/brute agreement across a randomized corpus


LIN_TT = "xor 2 0110\neqv 2 1001\nnot 1 10\n"
IMP_TT = "imp 2 1101\n"


def test_poly_and_brute_agree_on_random_easy_queries(capsys, files):
    import random

    from bconn import enumerate_solutions, parse_base_file, parse_formula

    from conftest import IMP_OPS, LIN_OPS, MONO_OPS, rand_ast

    rng = random.Random(9090)
    corpora = (
        ("mono.tt", MONO_TT, MONO_OPS),
        ("lin.tt", LIN_TT, LIN_OPS),
        ("imp.tt", IMP_TT, IMP_OPS),
    )
    for name, text, ops in corpora:
        base_path = files(name, text)
        base = parse_base_file(text)
        for i in range(12):
            n = rng.randint(1, 8)
            text = rand_ast(rng, ops, n, rng.randint(2, 16))
            f = files(f"q{i}.bf", text + "\n")
            argv = ["--base", base_path, "--formula", f, "--vars", str(n)]
            answers = {}
            for mode in ("poly", "brute"):
                code, payload, _ = jrun(capsys, "conn", *argv, "--mode", mode)
                assert code == 0, (name, mode, text)
                answers[mode] = payload["connected"]
            assert answers["poly"] == answers["brute"], text
            words = list(enumerate_solutions(parse_formula(text, base), base, n).words)
            if len(words) >= 2:
                a, b = rng.sample(words, 2)
                sa, sb = format(a, f"0{n}b"), format(b, f"0{n}b")
                got = {}
                for mode in ("poly", "brute"):
                    code, payload, _ = jrun(
                        capsys, "stconn", *argv, "--s", sa, "--t", sb, "--mode", mode
                    )
                    assert code == 0, (name, mode, text)
                    got[mode] = payload["connected"]
                assert got["poly"] == got["brute"], text
