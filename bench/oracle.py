"""Reference answers for the benchmark, written apart from bconn.

Nothing here imports bconn.  Tables are 2^n-bit integers in bconn's row
convention (row i = sum_j a_j * 2^(n-j), so x1 is the most significant
bit of the row index), but they are built by this module's own code:
an iterative formula parser, a stack evaluator, plain BFS and union-find
over word sets, and the transform definitions written out as masks.
"""

from __future__ import annotations

import re
from collections import deque

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


# --- tables --------------------------------------------------------------


def var_table(n: int, j: int) -> int:
    """Rows on which x_j = 1 among 2^n rows."""
    stride = 1 << (n - j)
    block = ((1 << stride) - 1) << stride
    out, width = block, 2 * stride
    while width < (1 << n):
        out |= out << width
        width <<= 1
    return out


def full_table(n: int) -> int:
    return (1 << (1 << n)) - 1


def apply_fn(rows: str, args: list[int], full: int) -> int:
    """Table of a function (text of its rows, row 0 first) on child tables."""
    k = len(args)
    out = 0
    for r, c in enumerate(rows):
        if c != "1":
            continue
        term = full
        for pos, a in enumerate(args):
            term &= a if (r >> (k - 1 - pos)) & 1 else full ^ a
        out |= term
    return out


def formula_nodes(text: str) -> int:
    return sum(1 for tok in _TOKEN.findall(text) if tok not in "(),")


def formula_table(text: str, base: dict[str, str], n: int) -> int:
    """Table over x_1..x_n of formula text, evaluated with an explicit stack."""
    full = full_table(n)
    stack: list[list] = [[None, []]]
    toks = _TOKEN.findall(text)
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == ")":
            name, args = stack.pop()
            stack[-1][1].append(apply_fn(base[name], args, full))
        elif tok != ",":
            if i + 1 < len(toks) and toks[i + 1] == "(":
                stack.append([tok, []])
                i += 1
            elif tok[0] == "x" and tok[1:].isdigit():
                stack[-1][1].append(var_table(n, int(tok[1:])))
            else:
                stack[-1][1].append(apply_fn(base[tok], [], full))
        i += 1
    (root,) = stack[0][1]
    return root


def formula_value(text: str, base: dict[str, str], word: int, n: int) -> int:
    """Value of formula text on one assignment, row by row."""
    stack: list[list] = [[None, []]]
    toks = _TOKEN.findall(text)
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == ")":
            name, args = stack.pop()
            row = 0
            for a in args:
                row = (row << 1) | a
            stack[-1][1].append(1 if base[name][row] == "1" else 0)
        elif tok != ",":
            if i + 1 < len(toks) and toks[i + 1] == "(":
                stack.append([tok, []])
                i += 1
            elif tok[0] == "x" and tok[1:].isdigit():
                stack[-1][1].append((word >> (n - int(tok[1:]))) & 1)
            else:
                stack[-1][1].append(1 if base[tok] == "1" else 0)
        i += 1
    (root,) = stack[0][1]
    return root


def cnf_table(n: int, clauses: list[tuple[int, ...]]) -> int:
    full = full_table(n)
    out = full
    for clause in clauses:
        cm = 0
        for lit in clause:
            vt = var_table(n, abs(lit))
            cm |= vt if lit > 0 else full ^ vt
        out &= cm
    return out


def quantify(table: int, n: int, prefix: list[tuple[str, int]]) -> int:
    """Eliminate quantified variables, innermost first; the result is
    constant along every quantified coordinate."""
    full = full_table(n)
    for quant, j in reversed(prefix):
        vt = var_table(n, j)
        stride = 1 << (n - j)
        lo = table & (full ^ vt)
        hi = (table & vt) >> stride
        half = (lo | hi) if quant == "E" else (lo & hi)
        table = half | (half << stride)
    return table


def restrict_to(table: int, n: int, free: list[int]) -> int:
    """Table over the free variables (in index order), read off a table
    that is constant along every other coordinate."""
    m = len(free)
    rows = bin(table)[:1:-1].ljust(1 << n, "0")
    if free == list(range(1, m + 1)):  # bound variables last: every 2^(n-m)-th row
        return int(rows[:: 1 << (n - m)][::-1], 2)
    out = []
    for i in range(1 << m):
        w = 0
        for pos, j in enumerate(free, start=1):
            if (i >> (m - pos)) & 1:
                w |= 1 << (n - j)
        out.append(rows[w])
    return int("".join(reversed(out)), 2)


def rows_of(table: int) -> list[int]:
    """Rows mapped to 1, ascending."""
    text = bin(table)[:1:-1]
    return [i for i, c in enumerate(text) if c == "1"]


# --- graphs --------------------------------------------------------------


def components(words: list[int], n: int) -> list[int]:
    """Smallest word of each component of the induced hypercube subgraph,
    ascending (union-find, union by smaller root word)."""
    present = set(words)
    parent = {w: w for w in words}

    def find(w: int) -> int:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    bits = [1 << b for b in range(n)]
    for w in words:
        for bit in bits:
            u = w ^ bit
            if u > w and u in present:
                a, b = find(w), find(u)
                if a != b:
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b
    return sorted({find(w) for w in words})


def bfs(present: set[int], n: int, src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    bits = [1 << b for b in range(n)]
    while queue:
        w = queue.popleft()
        d = dist[w] + 1
        for bit in bits:
            u = w ^ bit
            if u in present and u not in dist:
                dist[u] = d
                queue.append(u)
    return dist


def farthest(present: set[int], n: int, src: int) -> tuple[int, int]:
    """(distance, smallest word at that distance) from src."""
    dist = bfs(present, n, src)
    far = max(dist.values())
    return far, min(w for w, d in dist.items() if d == far)


def check_path(path: list[int], s: int, t: int, member) -> str | None:
    """None if path runs from s to t through members by single flips."""
    if not path or path[0] != s or path[-1] != t:
        return "path does not run from s to t"
    for a, b in zip(path, path[1:]):
        if (a ^ b).bit_count() != 1:
            return f"step {a:b} -> {b:b} is not a single flip"
    for w in path:
        if not member(w):
            return f"vertex {w:b} is not a solution"
    return None


# --- hard-side transforms ------------------------------------------------


def transform_table(
    n0: int, clauses: list[tuple[int, ...]], variant: str, k: int = 2
) -> tuple[int, int]:
    """(table, arity) of T_psi for a 1-reproducing CNF psi over x_1..x_n0,
    from the definitions; for S02Q, the unquantified matrix.  The all-zero
    and all-one guards range over the variables the CNF uses."""
    extra = {"S12": 1, "D1": 3, "S02K": k + 2, "S02Q": 2}[variant]
    n = n0 + extra
    full = full_table(n)
    x = [var_table(n, j) for j in range(1, n0 + 1)]
    y = [var_table(n, j) for j in range(n0 + 1, n + 1)]
    lits = [(abs(lit), lit > 0) for c in clauses for lit in c]
    used = sorted({j for j, _ in lits})

    def table_of(neg: bool) -> int:
        out = full
        for clause in clauses:
            cm = 0
            for lit in clause:
                vt = x[abs(lit) - 1]
                cm |= vt if (lit > 0) != neg else full ^ vt
            out &= cm
        return out

    def pattern(vs: list[int], bits: str) -> int:
        out = full
        for v, b in zip(vs, bits):
            out &= v if b == "1" else full ^ v
        return out

    ux = [x[j - 1] for j in used]
    psi = table_of(False)
    if variant == "S12":
        return psi & y[0], n
    if variant == "D1":
        neg_psi_neg = full ^ table_of(True)
        one_hot = pattern(y, "100") | pattern(y, "010") | pattern(y, "001")
        blocked = pattern(ux, "0" * len(ux)) & pattern(y, "001")
        return (
            (psi & pattern(y, "111"))
            | (neg_psi_neg & pattern(y, "000"))
            | (one_hot & (full ^ blocked))
            | (pattern(ux, "1" * len(ux)) & pattern(y, "110"))
        ), n
    if variant == "S02K":
        yy, zs = y[0], y[1:]
        pairs = 0
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                pairs |= zs[a] & zs[b]
        return (
            (psi & yy & pattern(zs, "0" * len(zs)))
            | pairs
            | (pattern(ux, "1" * len(ux)) & yy & pattern(zs, "1" + "0" * (len(zs) - 1)))
        ), n
    return (psi & y[0]) | y[1], n


def reproducing_tables(max_arity: int) -> set[tuple[int, int]]:
    """Every (arity, table) with f(0..0)=0 and f(1..1)=1 up to max_arity:
    the clone R2, which any single 0- and 1-reproducing function that is
    neither monotone, nor self-dual, nor affine, nor separating generates."""
    out = set()
    for m in range(1, max_arity + 1):
        size = 1 << m
        for bits in range(1 << size):
            if not bits & 1 and (bits >> (size - 1)) & 1:
                out.add((m, bits))
    return out
