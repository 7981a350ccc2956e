"""Table-backed solution sets: the same answers as word-backed ones, with no
word list built by the queries that run on the table, and a peak memory
that stays near the interpreter's own on a 22-variable CNF.  A dense
relation is searched on the same bitmap, with no set of its words.

Run as a script, it prints the peak RSS and wall time of `components
--cnf --json` on the seeded random 3-CNFs at n = 22 and 24, of
`components --rel --json` on the seeded 40,000-word relation at n = 20,
of `path --formula` on a seeded 30,000-leaf and/or formula at n = 30,
and of `conn --circuit` on a seeded 20,000-gate affine circuit:

    PYTHONPATH=src python tests/test_table_backed.py
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from bconn import (
    BitVector,
    BudgetExceeded,
    SolutionSet,
    TooLarge,
    UsageError,
    cnf_to_formula,
    components,
    diameter,
    enumerate_solutions,
    export_dot,
    gen_expdiam,
    is_connected,
    is_induced_path,
    parse_dimacs,
    print_relation,
    random_relation,
    shortest_path,
    threshold_tt,
    tt_print,
)
from bconn import graph
from bconn.clones import STANDARD_BASE
from bconn.errors import LIMITS
from bconn.graph import EXACT, LOWER_BOUND
from bconn.truthtable import mask_rows

from conftest import affine_circuit, and_or_formula

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _has_words(s: SolutionSet) -> bool:
    """True iff the set holds its word tuple (a table-backed one builds it
    on first read of `words`, which this does not trigger)."""
    try:
        object.__getattribute__(s, "words")
    except AttributeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Differential: a table-backed set against the same words as a relation.


def _random_bits(rng, rows: range, p: float) -> int:
    return sum(1 << r for r in rows if rng.random() < p)


def _parity(n: int, free: int) -> int:
    """Even parity of x1..x_(n-free); the last `free` variables are free."""
    return sum(1 << w for w in range(1 << n) if (w >> free).bit_count() % 2 == 0)


def _broom(n: int) -> int:
    """The full subcube x1 = x2 = 0, one bridge vertex at x1 = 1, and an
    induced path in x1 = x2 = 1: a search from 0 gets thick, then stays thin
    for many layers."""
    if n < 4:
        return (1 << (1 << n)) - 1
    path = gen_expdiam((n - 2) // 2).words
    top = 3 << (n - 2)
    return (1 << (1 << (n - 2))) - 1 | 1 << (1 << (n - 1)) | sum(1 << (top | w) for w in path)


def _shapes(n: int) -> dict[str, int]:
    rng = random.Random(f"shapes:{n}")
    size, half = 1 << n, 1 << max(n - 1, 0)
    flip = rng.getrandbits(n) if n else 0
    path = gen_expdiam(n // 2).words if n >= 2 else (0,)
    return {
        "empty": 0,
        "cube": (1 << size) - 1,
        "giant": _random_bits(rng, range(size), 0.75),
        "isolated": _parity(n, 0),
        "pairs": _parity(n, 1) if n else 1,
        "path": sum(1 << (w ^ flip) for w in path),
        "broom": _broom(n),
        # x1 = 0 dense, x1 = 1 sparse: a giant beside isolated vertices and
        # small components
        "mixed": _random_bits(rng, range(half), 0.85)
        | _random_bits(rng, range(half, size), 0.12) if n else 1,
    }


CASES = [(name, n, bits) for n in range(13) for name, bits in _shapes(n).items()]
SHIPPED_SHIFT = graph._THICK_SHIFT


def _answer(query, *args, **kwargs):
    """The query's value, or the type and message of what it raised."""
    try:
        return query(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - both backings must raise alike
        return type(e).__name__, str(e)


def _answers(s: SolutionSet, pairs) -> dict:
    """Everything the engine says about s, those that run on a table first."""
    got: dict = {"sweep": graph._sweep(s)}
    lab = components(s)
    got["components"] = (lab.count, lab.representatives, lab.sizes, is_connected(s))
    got["lower"] = diameter(s, mode=LOWER_BOUND)
    got["paths"] = [shortest_path(s, BitVector(s.n, a), BitVector(s.n, b)) for a, b in pairs]
    got["smallest"] = s.smallest() if len(s) else None
    got["exact"] = _answer(diameter, s, mode=EXACT)
    got["induced"] = _answer(is_induced_path, s)
    got["words_built"] = _has_words(s)
    got["labels"] = lab.labels
    got["texts"] = s.texts()
    got["dot"] = export_dot(s, lab)
    return got


@pytest.mark.parametrize("name,n,bits", CASES, ids=[f"{c[0]}{c[1]}" for c in CASES])
def test_table_and_word_backings_give_the_same_answers(monkeypatch, name, n, bits):
    rng = random.Random(f"{name}:{n}")
    words = tuple(mask_rows(bits))
    pairs = []
    if words and n:  # a bit vector has at least one bit
        pairs = [tuple(rng.choice(words) for _ in "st") for _ in range(3)]
        pairs.append((words[0], words[-1]))
    shifts = (0, 3, 6, SHIPPED_SHIFT, 64) if n <= 9 else (3, 6, SHIPPED_SHIFT)
    monkeypatch.setitem(LIMITS, "BFS steps", 20_000)
    for shift in shifts:
        monkeypatch.setattr(graph, "_THICK_SHIFT", shift)
        table, rel = SolutionSet.from_table(n, bits), SolutionSet(n, words)
        assert len(table) == len(words) and not _has_words(table)
        for w in (-1, 0, (1 << n) - 1, 1 << n):
            assert (w in table) == (w in rel)
        want = _answers(rel, pairs)
        got = _answers(table, pairs)
        # a set with a thick frontier's worth of words runs on its table
        # alone; a thinner one builds its words, few as they are
        thick = max(1, (1 << n) >> shift)
        assert got.pop("words_built") == (len(words) < thick), (name, shift)
        want.pop("words_built")
        assert got == want, (name, shift)
        assert table == rel and table.words == words


def test_a_table_must_fit_its_dimension():
    for n, bits in ((-1, 0), (2, -1), (2, 16), (0, 2)):
        with pytest.raises(UsageError):
            SolutionSet.from_table(n, bits)
    assert len(SolutionSet.from_table(0, 1)) == 1 and len(SolutionSet.from_table(2, 15)) == 4


def test_reduce_shifts_by_the_lowest_row_without_listing_words(monkeypatch, tmp_path, capsys):
    from bconn import cli

    made = []

    def enumerate_and_keep(*args):
        made.append(enumerate_solutions(*args))
        return made[-1]

    monkeypatch.setattr(cli, "enumerate_solutions", enumerate_and_keep)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n3 0\n-1 0\n", encoding="utf-8")  # solutions 001 and 011
    assert cli.run_cli(["reduce", "--cnf", str(cnf), "--variant", "s12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["shifted_by"] == "001"
    assert len(made) == 1 and not _has_words(made[0])


def test_export_dot_refuses_a_large_table_before_any_sweep(monkeypatch, tmp_path, capsys):
    from bconn import cli

    s = SolutionSet.from_table(17, (1 << (1 << 17)) - 1)
    with pytest.raises(TooLarge, match="^131072 DOT vertices over the limit of 65536$"):
        export_dot(s)
    assert not _has_words(s) and "_sweep" not in s.__dict__
    made = []

    def enumerate_and_keep(*args):
        made.append(enumerate_solutions(*args))
        return made[-1]

    def no_sweep(sol):
        raise AssertionError("components swept a set too large to draw")

    monkeypatch.setattr(cli, "enumerate_solutions", enumerate_and_keep)
    monkeypatch.setattr(cli, "components", no_sweep)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 18 1\n18 0\n", encoding="utf-8")  # 2^17 solutions
    assert cli.run_cli(["export-dot", "--cnf", str(cnf)]) == 3
    assert capsys.readouterr().err == "error [TooLarge]: 131072 DOT vertices over the limit of 65536\n"
    assert len(made) == 1 and not _has_words(made[0]) and "_sweep" not in made[0].__dict__


# ---------------------------------------------------------------------------
# Memory: the queries that run on the table build no per-word structure.


def random_cnf(n: int, m: int = 12, seed: int = 0) -> str:
    """A seeded random 3-CNF in DIMACS; at 12 clauses about a fifth of the
    assignments satisfy it, and they form one giant component."""
    rng = random.Random(f"cnf:{n}:{m}:{seed}")
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def test_queries_on_a_table_build_no_word_list():
    n = 20
    s = enumerate_solutions(cnf_to_formula(parse_dimacs(random_cnf(n, 6))), STANDARD_BASE, n)
    count = len(s)
    assert count > 400_000  # a word tuple alone would take 40 bytes per word
    low, high = BitVector(n, s.smallest()), BitVector(n, s.__dict__["_table"].bit_length() - 1)
    tracemalloc.start()
    try:
        assert is_connected(s)
        lab = components(s)
        lower = diameter(s, mode=LOWER_BOUND)
        path = shortest_path(s, low, high)
        with pytest.raises(BudgetExceeded):
            diameter(s, mode=EXACT)
        induced = is_induced_path(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lab.count == 1 and lab.sizes == (count,) and path is not None and induced is None
    assert lower >= len(path) - 1 > 0
    assert not _has_words(s)
    # the table, the bitmap, n coordinate masks and the layers of one path
    # search, against 40 * count bytes for a word tuple and more for a set
    assert peak < 16 * count, (peak, count)


def dense_relation() -> SolutionSet:
    """A seeded random relation of 40,000 words at n = 20: on the mask side,
    and mostly small components."""
    return random_relation(20, 40_000, 0)


def test_a_dense_relation_is_searched_without_a_set_of_its_words():
    s = dense_relation()
    tracemalloc.start()
    try:
        lab = components(s)
        peaks = [tracemalloc.get_traced_memory()[1]]
        tracemalloc.reset_peak()
        lower = diameter(s, mode=LOWER_BOUND)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert graph._cube(s).mask and lab.count > 20_000 and lower > 0
    # the bitmap and the sweep's per-component ints take about 2.5 MB; a set
    # of the 40,000 words would add about 2 MB more to each query
    assert max(peaks) < 3_700_000, peaks


# Spawns `python argv...` from a small process of its own and prints its
# exit code, peak RSS (KiB) and wall time.  Spawned straight from pytest, the
# child would report pytest's peak: Linux folds the RSS high-water mark of
# the address space a child replaces at exec into the child's ru_maxrss.
_LAUNCH = r"""
import json, os, sys, time
out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[2:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - t0]))
"""


def _peak(argv: list[str], out: str) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of `python argv...`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, out, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    code, kb, wall = json.loads(done.stdout)
    return code, kb / 1024, wall


def test_components_of_a_22_variable_cnf_stay_near_the_import_floor(tmp_path):
    cnf = tmp_path / "r22.cnf"
    cnf.write_text(random_cnf(22), encoding="utf-8")
    out = str(tmp_path / "out.json")
    code, floor, _ = _peak(["-c", "import bconn.cli"], out)
    assert code == 0
    code, mb, _ = _peak(["-m", "bconn.cli", "components", "--cnf", str(cnf), "--json"], out)
    with open(out, encoding="utf-8") as fh:
        got = json.load(fh)
    assert code == 0 and got["components"] == 1 and got["count"] > 800_000
    assert mb - floor <= 25, (mb, floor)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        print(f"import bconn.cli: {_peak(['-c', 'import bconn.cli'], out)[1]:.1f} MB")
        for n in (22, 24):
            path = os.path.join(tmp, f"r{n}.cnf")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(random_cnf(n))
            code, mb, wall = _peak(["-m", "bconn.cli", "components", "--cnf", path, "--json"], out)
            with open(out, encoding="utf-8") as fh:
                got = json.load(fh) if code == 0 else {}
            print(f"components --cnf, n={n}: exit {code}, {got.get('count')} solutions, "
                  f"{got.get('components')} components, {mb:.1f} MB peak, {wall:.2f} s")
        path = os.path.join(tmp, "r20.rel")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_relation(dense_relation()))
        code, mb, wall = _peak(["-m", "bconn.cli", "components", "--rel", path, "--json"], out)
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh) if code == 0 else {}
        print(f"components --rel, n=20: exit {code}, {got.get('count')} words, "
              f"{got.get('components')} components, {mb:.1f} MB peak, {wall:.2f} s")
        # the OR with a conjunction over 15 variables makes their indicator
        # a solution 15 steps from all-ones
        rng = random.Random("report")
        ones = sorted(rng.sample(range(1, 31), 15))
        conj = f"x{ones[-1]}"
        for j in ones[-2::-1]:
            conj = f"and(x{j},{conj})"
        files = {
            "mono.tt": "and 2 0001\nor 2 0111\n",
            "mono.bf": f"or({and_or_formula(rng, 30_000, 30)},{conj})\n",
            "affine.tt": "xor 2 0110\neqv 2 1001\n",
            "affine.circ": affine_circuit(rng, 20_000, 30),
        }
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        t = "".join("1" if j in ones else "0" for j in range(1, 31))
        code, mb, wall = _peak(["-m", "bconn.cli", "path", "--base", os.path.join(tmp, "mono.tt"),
                                "--formula", os.path.join(tmp, "mono.bf"), "--s", "1" * 30,
                                "--t", t, "--json"], out)
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh) if code == 0 else {}
        print(f"path --formula, 30,000 leaves, n=30: exit {code}, {got.get('length')} steps, "
              f"{mb:.1f} MB peak, {wall:.2f} s")
        code, mb, wall = _peak(["-m", "bconn.cli", "conn", "--base", os.path.join(tmp, "affine.tt"),
                                "--circuit", os.path.join(tmp, "affine.circ"), "--json"], out)
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh) if code == 0 else {}
        print(f"conn --circuit, 20,000 gates, n=30: exit {code}, connected {got.get('connected')}, "
              f"{mb:.1f} MB peak, {wall:.2f} s")
        # a gate of T^16_8 runs 71 multiplexer steps, where the DNF plan it
        # replaced had 26,333 terms of 16 literals
        with open(os.path.join(tmp, "t16.tt"), "w", encoding="utf-8") as fh:
            fh.write(f"t 16 {tt_print(threshold_tt(16, 8))}\nand 2 0001\nor 2 0111\n")
        t1, t5 = (",".join(f"x{j}" for j in range(lo, lo + 16)) for lo in (1, 5))
        for gates, text in (("one T^16_8 gate", f"t({t1})"), ("two T^16_8 gates", f"and(t({t1}),t({t5}))")):
            with open(os.path.join(tmp, "t16.bf"), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            code, mb, wall = _peak(["-m", "bconn.cli", "components", "--base", os.path.join(tmp, "t16.tt"),
                                    "--formula", os.path.join(tmp, "t16.bf"), "--vars", "20", "--json"], out)
            with open(out, encoding="utf-8") as fh:
                got = json.load(fh) if code == 0 else {}
            print(f"components --formula, {gates}, n=20: exit {code}, {got.get('count')} solutions, "
                  f"{got.get('components')} components, {mb:.1f} MB peak, {wall:.2f} s")
