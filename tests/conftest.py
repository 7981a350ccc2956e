"""Shared oracles and instance generators for the test suite.

The oracles here deliberately avoid the library's bigint mask pipeline
and its parsers: formula, quantified-formula and circuit text is read
here and evaluated row by row against printed truth-table text,
quantifiers by naive recursion, and graphs by plain BFS over word sets.
Agreement between these and the library is what the tests check.
"""

from __future__ import annotations

import functools
import random
import re
from collections import deque

from bconn import (
    BaseSet,
    CnfFormula,
    EXISTS,
    FORALL,
    tt_parse,
)

TABLES = {
    "c0": "0",
    "c1": "1",
    "id": "01",
    "not": "10",
    "and": "0001",
    "or": "0111",
    "xor": "0110",
    "eqv": "1001",
    "imp": "1101",
    "nimp": "0010",
    "nand": "1110",
    "maj": "00010111",
}


def tt_of(text: str):
    return tt_parse(text, len(text).bit_length() - 1)


def mk_base(names) -> BaseSet:
    if not isinstance(names, dict):
        names = {nm: TABLES[nm] for nm in names}
    return BaseSet({nm: tt_of(text) for nm, text in names.items()})


MONO_BASE = mk_base(["and", "or"])
IMP_BASE = mk_base(["imp"])
LIN_BASE = mk_base(["xor", "eqv", "not"])
STD_BASE = mk_base(["and", "or", "not"])

MONO_OPS = (("and", 2), ("or", 2))
IMP_OPS = (("imp", 2),)
LIN_OPS = (("xor", 2), ("eqv", 2), ("not", 1))


# ---------------------------------------------------------------------------
# Row-at-a-time evaluation oracles.


def env_of(word: int, n: int) -> dict[int, int]:
    return {j: (word >> (n - j)) & 1 for j in range(1, n + 1)}


@functools.lru_cache(maxsize=None)
def read_formula(text: str):
    """Well-formed formula text as nested tuples: an int j for x_j, else
    (name, argument trees)."""
    toks = re.findall(r"\w+|\S", text)
    pos = 0

    def expr():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if re.fullmatch(r"x[1-9][0-9]*", tok):
            return int(tok[1:])
        args = []
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            while toks[pos] != ")":
                args.append(expr())
                if toks[pos] == ",":
                    pos += 1
            pos += 1
        return (tok, tuple(args))

    return expr()


def text_vars(text: str) -> set[int]:
    return {int(m) for m in re.findall(r"\bx([1-9][0-9]*)\b", text)}


def eval_ast_slow(text: str, tables: dict[str, str], env: dict[int, int]) -> int:
    def ev(t) -> int:
        if isinstance(t, int):
            return env[t]
        row = 0
        for arg in t[1]:
            row = row * 2 + ev(arg)
        return int(tables[t[0]][row])

    return ev(read_formula(text))


def eval_circuit_slow(text: str, tables: dict[str, str], env: dict[int, int]) -> int:
    """Read a well-formed circuit file line by line, keeping each wire's value by name."""
    val: dict[str, int] = {}
    for line in text.splitlines():
        kind, name, *rest = line.split()
        if kind == "input":
            val[name] = env[int(name[1:])]
        elif kind == "gate":
            row = 0
            for a in rest[1:]:
                row = row * 2 + val[a]
            val[name] = int(tables[rest[0]][row])
        else:
            return val[name]


def eval_cnf_slow(cnf: CnfFormula, env: dict[int, int]) -> int:
    return int(all(any(env[abs(lit)] == (lit > 0) for lit in c) for c in cnf.clauses))


def read_qbf(text: str) -> tuple[list[tuple[str, int]], str]:
    """Well-formed quantified-formula text as (prefix, matrix text)."""
    head, _, matrix = text.rpartition(":")
    toks = head.split()
    return [(q, int(v[1:])) for q, v in zip(toks[::2], toks[1::2])], matrix


def qbf_free_vars(text: str) -> list[int]:
    prefix, matrix = read_qbf(text)
    return sorted(text_vars(matrix) - {j for _, j in prefix})


def eval_qbf_slow(text: str, tables: dict[str, str], free_env: dict[int, int]) -> int:
    prefix, matrix = read_qbf(text)

    def rec(i: int, env: dict[int, int]) -> int:
        if i == len(prefix):
            return eval_ast_slow(matrix, tables, env)
        quant, j = prefix[i]
        low = rec(i + 1, {**env, j: 0})
        if quant == EXISTS and low:
            return 1
        if quant == FORALL and not low:
            return 0
        return rec(i + 1, {**env, j: 1})

    return rec(0, dict(free_env))


def ast_solutions_slow(ast, tables: dict[str, str], n: int) -> set[int]:
    return {w for w in range(1 << n) if eval_ast_slow(ast, tables, env_of(w, n))}


def circuit_solutions_slow(text: str, tables: dict[str, str], n: int) -> set[int]:
    return {w for w in range(1 << n) if eval_circuit_slow(text, tables, env_of(w, n))}


def qbf_solutions_slow(text: str, tables: dict[str, str]) -> set[int]:
    free = qbf_free_vars(text)
    n = len(free)
    out = set()
    for w in range(1 << n):
        env = {j: (w >> (n - 1 - p)) & 1 for p, j in enumerate(free)}
        if eval_qbf_slow(text, tables, env):
            out.add(w)
    return out


def base_texts(base: BaseSet) -> dict[str, str]:
    from bconn import tt_print

    return {nm: tt_print(f) for nm, f in base}


# ---------------------------------------------------------------------------
# Plain BFS graph oracles over word sets.


def cube_labels(words, n: int) -> dict[int, int]:
    members = set(words)
    labels: dict[int, int] = {}
    nxt = 0
    for w0 in sorted(members):
        if w0 in labels:
            continue
        labels[w0] = nxt
        dq = deque([w0])
        while dq:
            w = dq.popleft()
            for b in range(n):
                u = w ^ (1 << b)
                if u in members and u not in labels:
                    labels[u] = nxt
                    dq.append(u)
        nxt += 1
    return labels


def cube_component_count(words, n: int) -> int:
    labels = cube_labels(words, n)
    return len(set(labels.values()))


def cube_dist_from(words, n: int, src: int) -> dict[int, int]:
    members = set(words)
    dist = {src: 0}
    dq = deque([src])
    while dq:
        w = dq.popleft()
        for b in range(n):
            u = w ^ (1 << b)
            if u in members and u not in dist:
                dist[u] = dist[w] + 1
                dq.append(u)
    return dist


def cube_diameter(words, n: int) -> int:
    best = 0
    for w in words:
        dist = cube_dist_from(words, n, w)
        if dist:
            best = max(best, max(dist.values()))
    return best


def same_partition(a: dict, b: dict) -> bool:
    """True iff the two labelings induce the same partition of a shared key set."""
    if a.keys() != b.keys():
        return False
    fwd: dict = {}
    rev: dict = {}
    for k, va in a.items():
        vb = b[k]
        if fwd.setdefault(va, vb) != vb:
            return False
        if rev.setdefault(vb, va) != va:
            return False
    return True


def check_path_words(path, members: set[int], n: int, s: int, t: int) -> None:
    words = [v.word for v in path]
    assert words[0] == s and words[-1] == t
    for w in words:
        assert w in members
    for u, v in zip(words, words[1:]):
        assert bin(u ^ v).count("1") == 1


# ---------------------------------------------------------------------------
# Seeded random instance generators.


def rand_ast(rng: random.Random, ops, n: int, budget: int) -> str:
    """Random formula text over ops and x1..xn, of about budget nodes."""

    def go(room: int):
        if room <= 1 or rng.random() < 0.3:
            return f"x{rng.randint(1, n)}", 1
        name, ar = ops[rng.randrange(len(ops))]
        if ar == 0:
            return name, 1
        used, args = 1, []
        for i in range(ar):
            child, sz = go(max(1, (room - used) // (ar - i)))
            args.append(child)
            used += sz
        return f"{name}({','.join(args)})", used

    return go(budget)[0]


def rand_linear_circuit(rng: random.Random, n: int, gate_count: int) -> str:
    """Circuit text over xor/eqv/not on inputs x1..xn, the last gate the output."""
    wires = [f"x{j}" for j in range(1, n + 1)]
    lines = [f"input {w}" for w in wires]
    for g in range(gate_count):
        fn = ("xor", "eqv", "not")[rng.randrange(3)]
        ar = 1 if fn == "not" else 2
        args = [wires[rng.randrange(len(wires))] for _ in range(ar)]
        lines.append(" ".join(["gate", f"g{g}", fn, *args]))
        wires.append(f"g{g}")
    lines.append(f"output {wires[-1] if gate_count else 'x1'}")
    return "\n".join(lines) + "\n"


def and_or_formula(rng: random.Random, leaves: int, n: int) -> str:
    """A random and/or tree over x1..xn with the given number of leaves,
    about eight characters a leaf: 30,000 leaves at n = 30 is the size of
    the benchmark's largest formula."""
    names = [f"x{rng.randint(1, n)}" for _ in range(leaves)]

    def tree(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return names[lo]
        mid = rng.randrange(lo + 1, hi)
        return f"{rng.choice(('and', 'or'))}({tree(lo, mid)},{tree(mid, hi)})"

    return tree(0, leaves)


def affine_circuit(rng: random.Random, gates: int, n: int) -> str:
    """Circuit text over xor/eqv on inputs x1..xn, each gate reading any
    earlier wire and one of the last 200, the last gate the output: the
    shape of the benchmark's largest circuit at 20,000 gates and n = 30."""
    wires = [f"x{j}" for j in range(1, n + 1)]
    lines = [f"input {w}" for w in wires]
    for g in range(1, gates + 1):
        fn, a, b = rng.choice(("xor", "eqv")), rng.choice(wires), rng.choice(wires[-200:])
        lines.append(f"gate g{g} {fn} {a} {b}")
        wires.append(f"g{g}")
    return "\n".join(lines + [f"output {wires[-1]}"]) + "\n"


def compact_cnf(phi: CnfFormula) -> CnfFormula:
    """Relabel so every ambient variable occurs in some clause."""
    used = sorted({abs(lit) for c in phi.clauses for lit in c})
    ren = {v: p for p, v in enumerate(used, start=1)}
    clauses = tuple(
        tuple((1 if lit > 0 else -1) * ren[abs(lit)] for lit in c) for c in phi.clauses
    )
    return CnfFormula(len(used), clauses)


def rand_three_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Random 3-CNF where every clause keeps a positive literal."""
    clauses = []
    for _ in range(m):
        width = min(rng.choice((1, 2, 2, 3, 3)), n)
        chosen = rng.sample(range(1, n + 1), width)
        lits = [v if rng.random() < 0.55 else -v for v in chosen]
        if all(l < 0 for l in lits):
            i = rng.randrange(len(lits))
            lits[i] = -lits[i]
        clauses.append(tuple(lits))
    return CnfFormula(n, tuple(clauses))


def rand_qbf(rng: random.Random, ops, n_total: int, bound_count: int, budget: int) -> str:
    """Random quantified-formula text: a prefix over some of x1..x_{n_total},
    then ' : ', then a rand_ast matrix."""
    matrix = rand_ast(rng, ops, n_total, budget)
    bound = rng.sample(range(1, n_total + 1), min(bound_count, n_total))
    rng.shuffle(bound)
    prefix = [(EXISTS if rng.random() < 0.5 else FORALL, j) for j in bound]
    return " ".join(f"{q} x{j}" for q, j in prefix) + f" : {matrix}"
