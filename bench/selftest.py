"""Self-test: the benchmark's oracle against bconn on small seeded inputs.

    python3 bench/selftest.py

Run it from the repository root.  It compares every oracle routine the
benchmark's checks rely on with the library on instances small enough
to finish in seconds, and exits 1 on the first batch of disagreements.
"""

from __future__ import annotations

import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from bconn import (  # noqa: E402
    EXACT,
    LOWER_BOUND,
    STANDARD_BASE,
    BitVector,
    TVariant,
    clone_closure,
    cnf_to_formula,
    components,
    diameter,
    enumerate_solutions,
    evaluate,
    formula_size,
    gen_expdiam,
    parse_base_file,
    parse_dimacs,
    parse_formula,
    parse_qbf,
    shortest_path,
    t_transform,
    truth_table_of,
)
from bconn.qbf import QuantifiedFormula  # noqa: E402

BASES = {
    "std": workloads.STD_BASE,
    "nand": {"nand": "1110"},
    "imp": {"imp": "1101"},
    "affine": {"xor": "0110", "eqv": "1001", "not": "10"},
    "maj": {"maj": "00010111", "and": "0001", "not": "10"},
}


def _graph_checks(rng, failures):
    for _ in range(25):
        n = rng.randint(3, 9)
        clauses = [workloads._random_clause(rng, n) for _ in range(rng.randint(1, 2 * n))]
        table = oracle.cnf_table(n, clauses)
        sols = enumerate_solutions(parse_dimacs(workloads._dimacs(n, clauses)), STANDARD_BASE, n)
        words = oracle.rows_of(table)
        if list(sols.words) != words:
            failures.append(f"solutions of {clauses}")
            continue
        reps = oracle.components(words, n)
        if list(components(sols).representatives) != reps:
            failures.append(f"components of {clauses}")
        present = set(words)
        eccs = [max(oracle.bfs(present, n, w).values()) for w in words]
        if diameter(sols, mode=EXACT) != max(eccs, default=0):
            failures.append(f"exact diameter of {clauses}")
        low = max((max(oracle.bfs(present, n, r).values()) for r in reps), default=0)
        if not low <= diameter(sols, mode=LOWER_BOUND) <= 2 * low:
            failures.append(f"lower-bound diameter of {clauses}")
        if words:
            s, t = words[0], words[-1]
            path = shortest_path(sols, BitVector(n, s), BitVector(n, t))
            dist = oracle.bfs(present, n, s).get(t)
            got = None if path is None else len(path) - 1
            if got != dist:
                failures.append(f"distance {got} != {dist} in {clauses}")
            elif path is not None and oracle.check_path(
                [v.word for v in path], s, t, present.__contains__
            ):
                failures.append(f"path check rejects a shortest path in {clauses}")


def _formula_checks(rng, failures):
    for name, rows in BASES.items():
        base = parse_base_file(workloads._base_text(rows))
        ops = [(f, len(r).bit_length() - 1) for f, r in rows.items()]
        for _ in range(10):
            n = rng.randint(2, 8)
            leaves = [f"x{rng.randint(1, n)}" for _ in range(rng.randint(1, 20))] + [f"x{n}"]
            text = workloads._random_tree(rng, leaves, [op for op in ops if op[1] > 0])
            ast = parse_formula(text, base)
            if oracle.formula_nodes(text) != formula_size(ast):
                failures.append(f"node count of {text}")
            table = oracle.formula_table(text, rows, n)
            if truth_table_of(ast, base, n).bits != table:
                failures.append(f"table of {text} over {name}")
            w = rng.getrandbits(n)
            if oracle.formula_value(text, rows, w, n) != evaluate(ast, base, BitVector(n, w)):
                failures.append(f"value of {text} at {w:b}")
            if oracle.formula_value(text, rows, w, n) != (table >> w) & 1:
                failures.append(f"oracle value and table disagree on {text}")


def _qbf_checks(rng, failures):
    rows = workloads.STD_BASE
    base = parse_base_file(workloads._base_text(rows))
    for _ in range(10):
        free, bound = rng.randint(1, 5), rng.randint(1, 3)
        amb = free + bound
        clauses = [workloads._random_clause(rng, amb, min(3, amb)) for _ in range(2 * amb)]
        clauses.append(tuple(range(1, amb + 1)))  # every variable occurs
        prefix = [(rng.choice("EA"), j) for j in range(free + 1, amb + 1)]
        head = " ".join(f"{q} x{j}" for q, j in prefix)
        matrix = workloads._fold("and", [workloads._clause_text(c) for c in clauses])
        q = parse_qbf(f"{head} : {matrix}", base)
        want = oracle.restrict_to(
            oracle.quantify(oracle.cnf_table(amb, clauses), amb, prefix),
            amb, list(range(1, free + 1)),
        )
        if truth_table_of(q, base, free).bits != want:
            failures.append(f"QBF table of {head} : {clauses}")


def _transform_checks(rng, failures):
    for variant, k in (("S12", 2), ("D1", 2), ("S02K", 2), ("S02K", 3), ("S02Q", 2)):
        for _ in range(4):
            n0 = rng.randint(2, 5)
            clauses = [workloads._random_clause(rng, n0, min(3, n0)) for _ in range(rng.randint(1, 4))]
            want, arity = oracle.transform_table(n0, clauses, variant, k)
            psi = cnf_to_formula(parse_dimacs(workloads._dimacs(n0, clauses)))
            t = t_transform(psi, TVariant(variant, k if variant == "S02K" else None), n0=n0)
            if isinstance(t, QuantifiedFormula):
                t = t.matrix
            if truth_table_of(t, STANDARD_BASE, arity).bits != want:
                failures.append(f"{variant}({k}) table of {clauses}")


def _structure_checks(failures):
    for k in range(1, 7):
        words = sorted(workloads._expdiam_words(k))
        sol = gen_expdiam(k)
        if list(sol.words) != words or diameter(sol) != (1 << (k + 1)) - 2:
            failures.append(f"gen_expdiam({k})")
    mux = parse_base_file("mux 3 01010011\n")
    got = {(f.n, f.bits) for f in clone_closure(mux, 3)}
    if got != oracle.reproducing_tables(3):
        failures.append("closure of mux is not R2 up to arity 3")


def main() -> int:
    rng = random.Random("selftest:0")
    failures: list[str] = []
    _graph_checks(rng, failures)
    _formula_checks(rng, failures)
    _qbf_checks(rng, failures)
    _transform_checks(rng, failures)
    _structure_checks(failures)
    for f in failures[:20]:
        print(f"selftest: oracle and bconn disagree: {f}", file=sys.stderr)
    print(f"selftest: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
