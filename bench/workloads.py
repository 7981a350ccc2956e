"""Seeded inputs, CLI query lists and expected answers for each workload.

`build(workload, seed, indir)` writes the input files into `indir` and
returns the queries.  Each query is one `bconn` CLI call plus a check
that compares its JSON output with an answer computed by `oracle`
before any timing starts.  The seed changes the inputs but not their
shape: where a random instance's cost depends on its solution count,
the generator resamples until the count lands in a narrow band, and
structured instances are relabelled by a random hypercube automorphism
(a coordinate permutation plus an XOR mask), which keeps their graphs
isomorphic.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

WORKLOADS = ("brute-dense", "brute-path", "reduce", "poly")

STD_BASE = {"not": "10", "and": "0001", "or": "0111"}


@dataclass
class Query:
    sub: str
    args: list[str]
    check: Callable[[dict, int], str | None]
    label: str
    sizes: dict = field(default_factory=dict)


class _Inputs:
    def __init__(self, indir: str):
        self.indir = indir
        os.makedirs(indir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.indir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _bits(w: int, n: int) -> str:
    return format(w, f"0{n}b")


def _base_text(base: dict[str, str]) -> str:
    return "".join(f"{name} {len(rows).bit_length() - 1} {rows}\n" for name, rows in base.items())


def _in_band(count: int, target: int, tol: float) -> bool:
    return abs(count - target) <= tol * target


# --- random instances ----------------------------------------------------


def _random_clause(rng: random.Random, n: int, width: int = 3) -> tuple[int, ...]:
    """Clause over distinct variables with at least one positive literal."""
    vs = rng.sample(range(1, n + 1), width)
    while True:
        signs = [rng.random() < 0.5 for _ in vs]
        if any(signs):
            return tuple(v if s else -v for v, s in zip(vs, signs))


def _dimacs(n: int, clauses: list[tuple[int, ...]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _banded_cnf(rng, n, m, target, tol=0.02):
    """1-reproducing random 3-CNF whose solution count is within tol of
    target, every variable used."""
    for _ in range(10_000):
        clauses = [_random_clause(rng, n) for _ in range(m)]
        if len({abs(lit) for c in clauses for lit in c}) < n:
            continue
        table = oracle.cnf_table(n, clauses)
        if _in_band(table.bit_count(), target, tol):
            return clauses, table
    raise RuntimeError("no CNF in the solution-count band")


def _random_tree(rng, leaves: list[str], ops: list[tuple[str, int]]) -> str:
    """Random formula text with the given leaves in order, built by
    repeatedly joining adjacent subtrees (depth stays logarithmic-ish)."""
    parts = list(leaves)
    while len(parts) > 1:
        name, arity = rng.choice([op for op in ops if op[1] <= len(parts)])
        i = rng.randrange(len(parts) - arity + 1)
        joined = f"{name}({','.join(parts[i:i + arity])})"
        parts[i:i + arity] = [joined]
    return parts[0]


def _fold(name: str, parts: list[str]) -> str:
    while len(parts) > 1:
        parts = [
            f"{name}({parts[i]},{parts[i + 1]})" if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def _clause_text(clause) -> str:
    return _fold("or", [f"x{lit}" if lit > 0 else f"not(x{-lit})" for lit in clause])


# --- checks --------------------------------------------------------------


def _expect_components(words: list[int], n: int):
    reps = oracle.components(words, n)
    want = {
        "count": len(words),
        "components": len(reps),
        "representatives": [_bits(w, max(n, 1)) for w in reps],
    }

    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = {k: out.get(k) for k in want}
        return None if got == want else f"components mismatch: {got['count']}/{got['components']}"

    return check, reps


def _expect_conn(words: list[int], n: int, reps: list[int]):
    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out.get("connected") != (len(reps) <= 1):
            return "wrong connectivity verdict"
        if out.get("mode") == "brute" and (
            out.get("count") != len(words) or out.get("components") != len(reps)
        ):
            return "wrong solution or component count"
        return None

    return check


def _expect_diameter(words, n, reps, exact: int | None, present: set[int]):
    """Exact diameter when known; otherwise the double-sweep bounds
    max_c ecc(rep_c) <= d <= 2 max_c ecc(rep_c)."""
    low = exact
    if exact is None:
        low = max((max(oracle.bfs(present, n, r).values()) for r in reps), default=0)

    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out.get("count") != len(words) or out.get("components") != len(reps):
            return "wrong solution or component count"
        d = out.get("diameter")
        if exact is not None:
            return None if d == exact else f"diameter {d}, want {exact}"
        return None if low <= d <= 2 * low else f"diameter {d} outside [{low}, {2 * low}]"

    return check


def _expect_path(n, s, t, member, length: Callable[[int], str | None]):
    """Check a stconn/path answer for connected s and t: the verdict, then
    the witness path vertex by vertex."""

    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out.get("connected") is not True:
            return "wrong st-connectivity verdict"
        texts = out.get("path")
        if texts is None:
            return "no witness path"
        path = [int(x, 2) for x in texts]
        if any(len(x) != n for x in texts):
            return "path vertex of wrong dimension"
        return oracle.check_path(path, s, t, member) or length(len(path) - 1)

    return check


def _exact_length(want: int):
    return lambda got: None if got == want else f"path length {got}, want {want}"


# --- workloads -----------------------------------------------------------


def _brute_dense(rng: random.Random, io: _Inputs) -> list[Query]:
    qs: list[Query] = []
    # random 1-reproducing 3-CNF, dense solution set
    n = 18
    clauses, table = _banded_cnf(rng, n, m=20, target=16_000)
    cnf = io.write("dense.cnf", _dimacs(n, clauses))
    words = oracle.rows_of(table)
    present = set(words)
    comp_check, reps = _expect_components(words, n)
    sizes = {"n": n, "solutions": len(words), "clauses": len(clauses), "bytes": os.path.getsize(cnf)}
    qs.append(Query("components", ["--cnf", cnf], comp_check, "cnf18", sizes))
    qs.append(Query(
        "diameter", ["--cnf", cnf, "--diameter-mode", "lower-bound"],
        _expect_diameter(words, n, reps, None, present), "cnf18", sizes,
    ))
    s = (1 << n) - 1
    dist, t = oracle.farthest(present, n, s)
    for sub in ("stconn", "path"):
        qs.append(Query(
            sub, ["--cnf", cnf, "--s", _bits(s, n), "--t", _bits(t, n)],
            _expect_path(n, s, t, present.__contains__, _exact_length(dist)),
            "cnf18", dict(sizes, distance=dist),
        ))

    # {nand} formula, conn by enumeration
    nb = {"nand": "1110"}
    n = 16
    for _ in range(10_000):
        leaves = [f"x{j}" for j in rng.sample(range(1, n + 1), n)]
        leaves += [f"x{rng.randrange(1, n + 1)}" for _ in range(2 * n)]
        rng.shuffle(leaves)
        text = _random_tree(rng, leaves, [("nand", 2)])
        table = oracle.formula_table(text, nb, n)
        if _in_band(table.bit_count(), 35_000, 0.02):
            break
    else:
        raise RuntimeError("no nand formula in the solution-count band")
    base = io.write("nand.tt", _base_text(nb))
    f = io.write("nand.bf", text + "\n")
    words = oracle.rows_of(table)
    reps = oracle.components(words, n)
    qs.append(Query(
        "conn", ["--base", base, "--formula", f, "--vars", str(n)],
        _expect_conn(words, n, reps), f"nand{n}",
        {"n": n, "solutions": len(words), "nodes": oracle.formula_nodes(text),
         "bytes": os.path.getsize(f)},
    ))

    # QBF over the standard base: 15 free, 4 bound variables
    free_n = 15
    amb = free_n + 4
    prefix = [("E", 16), ("A", 17), ("E", 18), ("A", 19)]
    for _ in range(10_000):
        cls = [_random_clause(rng, amb) for _ in range(14)]
        if len({abs(lit) for c in cls for lit in c}) < amb:
            continue
        matrix = _fold("and", [_clause_text(c) for c in cls])
        table = oracle.quantify(oracle.cnf_table(amb, cls), amb, prefix)
        table = oracle.restrict_to(table, amb, list(range(1, free_n + 1)))
        if _in_band(table.bit_count(), 6_000, 0.02):
            break
    else:
        raise RuntimeError("no QBF in the solution-count band")
    head = " ".join(f"{q} x{j}" for q, j in prefix)
    base = io.write("std.tt", _base_text(STD_BASE))
    qf = io.write("std.qbf", f"{head} : {matrix}\n")
    words = oracle.rows_of(table)
    reps = oracle.components(words, free_n)
    qs.append(Query(
        "conn", ["--base", base, "--qbf", qf], _expect_conn(words, free_n, reps), f"qbf{free_n}+4",
        {"n": free_n, "bound": len(prefix), "solutions": len(words),
         "nodes": oracle.formula_nodes(matrix), "bytes": os.path.getsize(qf)},
    ))

    # parity chain over an affine base: every solution its own component
    n = 16
    order = rng.sample(range(1, n + 1), n)
    text = f"x{order[0]}"
    for j in order[1:]:
        text = f"xor({text},x{j})"
    if rng.random() < 0.5:
        text = f"not({text})"
    lb = {"xor": "0110", "not": "10"}
    base = io.write("affine.tt", _base_text(lb))
    f = io.write("parity.bf", text + "\n")
    words = oracle.rows_of(oracle.formula_table(text, lb, n))
    check, _ = _expect_components(words, n)
    qs.append(Query(
        "components", ["--base", base, "--formula", f], check, f"parity{n}",
        {"n": n, "solutions": len(words), "nodes": oracle.formula_nodes(text)},
    ))
    return qs


def _relabel(rng: random.Random, n: int):
    perm = rng.sample(range(n), n)
    flip = rng.getrandbits(n)

    def f(w: int) -> int:
        out = 0
        for b in range(n):
            if (w >> b) & 1:
                out |= 1 << perm[b]
        return out ^ flip

    return f


def _expdiam_words(k: int) -> list[int]:
    """gen_expdiam's induced path, rebuilt here: its vertices in path order."""
    path = [0]
    for _ in range(k):
        last = path[-1]
        nxt = [(v << 2) | 0b11 for v in path]
        nxt.append((last << 2) | 0b01)
        nxt.append(last << 2)
        nxt.extend(v << 2 for v in reversed(path[:-1]))
        path = nxt
    return path


def _brute_path(rng: random.Random, io: _Inputs) -> list[Query]:
    qs: list[Query] = []
    for k, subs in ((10, ("diameter",)), (12, ("path", "components"))):
        n = 2 * k
        g = _relabel(rng, n)
        order = [g(w) for w in _expdiam_words(k)]
        words = sorted(order)
        rel = io.write(f"expdiam{k}.rel", f"n {n}\n" + "".join(_bits(w, n) + "\n" for w in words))
        sizes = {"n": n, "solutions": len(words), "bytes": os.path.getsize(rel)}
        present = set(words)
        for sub in subs:
            if sub == "diameter":
                qs.append(Query(
                    sub, ["--rel", rel, "--diameter-mode", "exact"],
                    _expect_diameter(words, n, [words[0]], (1 << (k + 1)) - 2, present),
                    f"expdiam{k}", sizes,
                ))
            elif sub == "path":
                s, t = order[0], order[-1]
                qs.append(Query(
                    sub, ["--rel", rel, "--s", _bits(s, n), "--t", _bits(t, n)],
                    _expect_path(n, s, t, present.__contains__, _exact_length(len(order) - 1)),
                    f"expdiam{k}", sizes,
                ))
            else:
                check, _ = _expect_components(words, n)
                qs.append(Query(sub, ["--rel", rel], check, f"expdiam{k}", sizes))

    # sparse random relation: many tiny components
    n, count = 20, 40_000
    words = sorted(rng.sample(range(1 << n), count))
    rel = io.write("sparse.rel", f"n {n}\n" + "".join(_bits(w, n) + "\n" for w in words))
    sizes = {"n": n, "solutions": count, "bytes": os.path.getsize(rel)}
    check, reps = _expect_components(words, n)
    sizes["components"] = len(reps)
    qs.append(Query("components", ["--rel", rel], check, f"sparse{n}", sizes))
    qs.append(Query(
        "diameter", ["--rel", rel, "--diameter-mode", "lower-bound"],
        _expect_diameter(words, n, reps, None, set(words)), f"sparse{n}", sizes,
    ))
    return qs


def _shaped_cnf(rng: random.Random, n: int, m: int, shapes) -> list[tuple[int, ...]]:
    """Random CNF whose clauses cycle through fixed sign patterns (in
    variable order), so the distinct synthesis targets, and with them the
    synthesizer's work, are the same for every seed."""
    while True:
        clauses = []
        for i in range(m):
            signs = shapes[i % len(shapes)]
            vs = sorted(rng.sample(range(1, n + 1), len(signs)))
            clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
        if len({abs(lit) for c in clauses for lit in c}) == n:
            return clauses


def _expect_reduce(n0: int, clauses, variant: str, k: int, base: dict[str, str]):
    want, arity = oracle.transform_table(n0, clauses, variant, k)
    depth = (len(clauses) - 1).bit_length()

    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        text = out.get("formula", "")
        if variant == "S02Q":
            head, _, text = text.partition(":")
            if head.split() != ["A", f"x{n0 + 2}"]:
                return f"bad S02Q prefix {head!r}"
        if out.get("depth") != depth or out.get("shifted_by") is not None:
            return "bad depth or shift"
        if out.get("size") != oracle.formula_nodes(text):
            return "size does not match the printed formula"
        if oracle.formula_table(text, base, arity) != want:
            return "output table differs from T of the CNF"
        return None

    return check


def _reduce(rng: random.Random, io: _Inputs) -> list[Query]:
    qs: list[Query] = []
    std = io.write("std.tt", _base_text(STD_BASE))
    nb = {"nand": "1110"}
    nand = io.write("nand.tt", _base_text(nb))
    n0 = 8
    # D1 and S02K targets trip the 120k-application search budget and fall
    # back to Shannon expansion; the others finish the search
    ttf, tft, tf = (True, True, False), (True, False, True), (True, False)
    plan = [
        ("s12", "S12", 2, std, STD_BASE, (ttf, tft)),
        ("d1", "D1", 2, std, STD_BASE, (ttf,)),
        ("s02k", "S02K", 2, std, STD_BASE, (tft,)),
        ("s02q", "S02Q", 2, std, STD_BASE, (tf,)),
        ("s12", "S12", 2, nand, nb, (tf, ttf[:2])),
    ]
    m = 8
    for i, (flag, variant, k, bfile, base, shapes) in enumerate(plan):
        clauses = _shaped_cnf(rng, n0, m, shapes)
        cnf = io.write(f"reduce{i}.cnf", _dimacs(n0, clauses))
        args = ["--cnf", cnf, "--base", bfile, "--variant", flag]
        if variant == "S02K":
            args += ["--k", str(k)]
        qs.append(Query(
            "reduce", args, _expect_reduce(n0, clauses, variant, k, base),
            f"{flag}-{os.path.basename(bfile)[:-3]}",
            {"n": n0, "clauses": m, "bytes": os.path.getsize(cnf)},
        ))

    # closure of a multiplexer: generates R2, 1 + 4 + 64 tables up to arity 3
    sel = rng.randrange(3)
    rows = []
    for r in range(8):
        a = [(r >> (2 - p)) & 1 for p in range(3)]
        s = a[sel]
        rest = [a[p] for p in range(3) if p != sel]
        rows.append(str(rest[0] if s else rest[1]))
    base = io.write("mux.tt", f"mux 3 {''.join(rows)}\n")
    want = sorted(oracle.reproducing_tables(3))

    def check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = sorted(
            (t["arity"], int(t["table"][::-1], 2)) for t in out.get("tables", [])
        )
        return None if got == want else f"closure has {len(got)} tables, want {len(want)}"

    qs.append(Query("closure", ["--base", base, "--vars", "3"], check, "mux3", {"tables": len(want)}))
    return qs


def _poly(rng: random.Random, io: _Inputs) -> list[Query]:
    qs: list[Query] = []

    # classify a base containing the 12-ary threshold T^12_4
    t12 = "".join("1" if i.bit_count() >= 4 else "0" for i in range(1 << 12))
    entries = [("and", "0001"), ("or", "0111"), ("t12_4", t12)]
    rng.shuffle(entries)
    base = io.write("thresh.tt", _base_text(dict(entries)))
    want = {"clone": "M2", "plain": "EASY(MONOTONE)", "quant": "EASY(MONOTONE)"}

    def classify_check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = {
            "clone": out.get("clone"),
            "plain": out.get("dispatch", {}).get("describe"),
            "quant": out.get("quantified_dispatch", {}).get("describe"),
        }
        return None if got == want else f"classified as {got}"

    qs.append(Query("classify", ["--base", base], classify_check, "t12_4", {"arity": 12}))

    # path on a large monotone formula at n=30; the OR with a conjunction
    # over a 15-variable set T makes T's indicator a solution, so the
    # witness from all-ones has exactly 15 steps for every seed
    mono = {"and": "0001", "or": "0111"}
    mbase = io.write("mono.tt", _base_text(mono))
    n = 30
    leaves = [f"x{j}" for j in range(1, n + 1)]
    leaves += [f"x{rng.randrange(1, n + 1)}" for _ in range(30_000 - n)]
    rng.shuffle(leaves)
    ones = sorted(rng.sample(range(1, n + 1), 15))
    text = f"or({_random_tree(rng, leaves, [('and', 2), ('or', 2)])},{_fold('and', [f'x{j}' for j in ones])})"
    f = io.write("mono.bf", text + "\n")
    s = (1 << n) - 1
    t = sum(1 << (n - j) for j in ones)
    member = lambda w, text=text: oracle.formula_value(text, mono, w, n) == 1  # noqa: E731
    qs.append(Query(
        "path", ["--base", mbase, "--formula", f, "--s", _bits(s, n), "--t", _bits(t, n)],
        _expect_path(n, s, t, member, _exact_length((s ^ t).bit_count())),
        "mono30", {"n": n, "nodes": oracle.formula_nodes(text), "bytes": os.path.getsize(f)},
    ))

    # stconn on a 0-separating {imp} formula: no syntactic coordinate, so
    # the decider tabulates to find one
    ib = {"imp": "1101"}
    ibase = io.write("imp.tt", _base_text(ib))
    n = 20
    leaves = [f"x{j}" for j in rng.sample(range(1, n + 1), n)]
    leaves += [f"x{rng.randrange(1, n + 1)}" for _ in range(400)]
    mid = len(leaves) // 2
    left = _random_tree(rng, leaves[:mid], [("imp", 2)])
    right = _random_tree(rng, leaves[mid:], [("imp", 2)])
    text = f"imp({left},{right})"
    f = io.write("imp.bf", text + "\n")
    table = oracle.formula_table(text, ib, n)
    sols = []
    while len(sols) < 2:
        w = rng.getrandbits(n)
        if (table >> w) & 1 and w not in sols:
            sols.append(w)
    s, t = sols
    ham = (s ^ t).bit_count()
    qs.append(Query(
        "stconn", ["--base", ibase, "--formula", f, "--s", _bits(s, n), "--t", _bits(t, n)],
        _expect_path(
            n, s, t, lambda w, table=table: (table >> w) & 1 == 1,
            lambda got: None if ham <= got <= ham + 2 else f"detour {got} > {ham} + 2",
        ),
        "imp20", {"n": n, "nodes": oracle.formula_nodes(text), "bytes": os.path.getsize(f)},
    ))

    # conn on a large affine circuit
    ab = {"xor": "0110", "eqv": "1001"}
    abase = io.write("affine.tt", _base_text(ab))
    n, gates = 30, 20_000
    names = [f"x{j}" for j in range(1, n + 1)]
    support = {f"x{j}": 1 << j for j in range(1, n + 1)}
    lines = [f"input {x}" for x in names]
    for g in range(1, gates + 1):
        a, b = rng.choice(names), rng.choice(names[-200:])
        fn = rng.choice(("xor", "eqv"))
        name = f"g{g}"
        lines.append(f"gate {name} {fn} {a} {b}")
        support[name] = support[a] ^ support[b]
        names.append(name)
    lines.append(f"output {names[-1]}")
    c = io.write("affine.circ", "\n".join(lines) + "\n")
    connected = support[names[-1]].bit_count() <= 1

    def conn_check(out: dict, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return None if out.get("connected") is connected else "wrong affine verdict"

    qs.append(Query(
        "conn", ["--base", abase, "--circuit", c], conn_check, "affine20k",
        {"n": n, "gates": gates, "bytes": os.path.getsize(c)},
    ))

    # path on a monotone QBF with 8 bound variables, planted as above: the
    # conjunction over 6 free variables makes a 6-step witness
    free_n, nb_ = 12, 8
    amb = free_n + nb_
    bound = list(range(free_n + 1, amb + 1))
    prefix = [("E" if i % 2 == 0 else "A", j) for i, j in enumerate(bound)]
    leaves = [f"x{j}" for j in range(1, amb + 1)]
    leaves += [f"x{rng.randrange(1, amb + 1)}" for _ in range(600)]
    rng.shuffle(leaves)
    ones = sorted(rng.sample(range(1, free_n + 1), 6))
    matrix = f"or({_random_tree(rng, leaves, [('and', 2), ('or', 2)])},{_fold('and', [f'x{j}' for j in ones])})"
    head = " ".join(f"{q} x{j}" for q, j in prefix)
    qf = io.write("mono.qbf", f"{head} : {matrix}\n")
    table = oracle.restrict_to(
        oracle.quantify(oracle.formula_table(matrix, mono, amb), amb, prefix),
        amb, list(range(1, free_n + 1)),
    )
    s = (1 << free_n) - 1
    t = sum(1 << (free_n - j) for j in ones)
    qs.append(Query(
        "path", ["--base", mbase, "--qbf", qf, "--s", _bits(s, free_n), "--t", _bits(t, free_n)],
        _expect_path(
            free_n, s, t, lambda w, table=table: (table >> w) & 1 == 1,
            _exact_length((s ^ t).bit_count()),
        ),
        "monoqbf12+8", {"n": free_n, "bound": nb_, "nodes": oracle.formula_nodes(matrix)},
    ))
    return qs


_GENERATORS = {
    "brute-dense": _brute_dense,
    "brute-path": _brute_path,
    "reduce": _reduce,
    "poly": _poly,
}


def build(workload: str, seed: int, indir: str) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, _Inputs(indir))
