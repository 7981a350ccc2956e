"""The exhaustive solution-graph engine.

Vertices are assignment words (row-index encoding); two words are
adjacent iff they differ in exactly one bit.  The empty set counts as
connected and has diameter 0, matching the convention that the solution
graph of an unsatisfiable formula is connected.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .clones import BaseSet
from .errors import (
    BudgetExceeded,
    NotASolution,
    SizeOverflow,
    TooLarge,
    UsageError,
)
from .semantics import DEFAULT_ENUM_BUDGET, truth_table_of
from .truthtable import BitVector

DEFAULT_EXACT_DIAMETER_BUDGET = 1 << 20

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"


@dataclass(frozen=True)
class SolutionSet:
    n: int
    words: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise UsageError("dimension must be >= 0")
        prev = -1
        for w in self.words:
            if w <= prev:
                raise UsageError("words must be strictly increasing")
            prev = w
        if prev >= (1 << self.n):
            raise UsageError(f"word {prev} does not fit {self.n} bits")

    @classmethod
    def from_words(cls, n: int, words) -> "SolutionSet":
        return cls(n, tuple(sorted(set(words))))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: int) -> bool:
        i = _bisect(self.words, word)
        return i >= 0

    def vectors(self) -> list[BitVector]:
        return [BitVector(self.n, w) for w in self.words]

    def texts(self) -> list[str]:
        return [format(w, f"0{self.n}b") for w in self.words]


def _bisect(words: tuple[int, ...], w: int) -> int:
    lo, hi = 0, len(words)
    while lo < hi:
        mid = (lo + hi) // 2
        if words[mid] < w:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(words) and words[lo] == w:
        return lo
    return -1


def enumerate_solutions(
    obj, base: BaseSet, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> SolutionSet:
    """Exactly the assignments the object maps to 1, sorted."""
    table = truth_table_of(obj, base, n, budget)
    return SolutionSet(n, tuple(table.one_rows()))


def _adjacency(s: SolutionSet) -> list[list[int]]:
    index = {w: i for i, w in enumerate(s.words)}
    adj: list[list[int]] = [[] for _ in s.words]
    for i, w in enumerate(s.words):
        for b in range(s.n):
            j = index.get(w ^ (1 << b))
            if j is not None:
                adj[i].append(j)
    return adj


@dataclass(frozen=True)
class ComponentLabeling:
    labels: tuple[int, ...]
    count: int
    representatives: tuple[int, ...]  # smallest word per component, in label order


def components(s: SolutionSet) -> ComponentLabeling:
    parent = list(range(len(s.words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index = {w: i for i, w in enumerate(s.words)}
    for i, w in enumerate(s.words):
        for b in range(s.n):
            j = index.get(w ^ (1 << b))
            if j is not None and j > i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    roots: dict[int, int] = {}
    labels = []
    reps: list[int] = []
    for i in range(len(s.words)):
        r = find(i)
        if r not in roots:
            roots[r] = len(reps)
            reps.append(s.words[i])  # words sorted, so first hit is smallest
        labels.append(roots[r])
    return ComponentLabeling(tuple(labels), len(reps), tuple(reps))


def is_connected(s: SolutionSet) -> bool:
    return components(s).count <= 1


def shortest_path(
    s: SolutionSet, start: BitVector, goal: BitVector
) -> list[BitVector] | None:
    if start.n != s.n or goal.n != s.n:
        raise NotASolution("endpoint dimension mismatch")
    index = {w: i for i, w in enumerate(s.words)}
    if start.word not in index:
        raise NotASolution(f"{start.text} is not a solution")
    if goal.word not in index:
        raise NotASolution(f"{goal.text} is not a solution")
    if start.word == goal.word:
        return [start]
    prev: dict[int, int] = {start.word: start.word}
    queue = deque([start.word])
    while queue:
        w = queue.popleft()
        for b in range(s.n):
            nb = w ^ (1 << b)
            if nb in index and nb not in prev:
                prev[nb] = w
                if nb == goal.word:
                    path = [nb]
                    while path[-1] != start.word:
                        path.append(prev[path[-1]])
                    return [BitVector(s.n, w2) for w2 in reversed(path)]
                queue.append(nb)
    return None


def _bfs_depths(adj: list[list[int]], src: int) -> dict[int, int]:
    depth = {src: 0}
    queue = deque([src])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in depth:
                depth[j] = depth[i] + 1
                queue.append(j)
    return depth


def diameter(
    s: SolutionSet, mode: str = EXACT, budget: int = DEFAULT_EXACT_DIAMETER_BUDGET
) -> int:
    """Largest eccentricity within any component (0 for the empty set)."""
    if mode not in (EXACT, LOWER_BOUND):
        raise UsageError(f"bad diameter mode {mode!r}")
    if not s.words:
        return 0
    if mode == EXACT and len(s.words) > budget:
        raise BudgetExceeded(f"{len(s.words)} vertices exceed exact budget {budget}")
    adj = _adjacency(s)
    best = 0
    if mode == EXACT:
        for i in range(len(s.words)):
            best = max(best, max(_bfs_depths(adj, i).values()))
        return best
    seen: set[int] = set()
    for i in range(len(s.words)):
        if i in seen:
            continue
        first = _bfs_depths(adj, i)
        seen.update(first)
        far = max(first, key=first.get)
        second = _bfs_depths(adj, far)
        best = max(best, max(second.values()))
    return best


def is_induced_path(s: SolutionSet) -> list[BitVector] | None:
    """The path order if the graph is a chordless simple path, else None.

    Degree conditions suffice: in an induced subgraph of the hypercube,
    a connected graph whose vertices have degree <= 2 with exactly two
    endpoints and no cycles is a path, and any chord would raise a degree.
    The returned order starts at the endpoint with the larger word.
    """
    if not s.words:
        return None
    if len(s.words) == 1:
        return [BitVector(s.n, s.words[0])]
    adj = _adjacency(s)
    ends = [i for i in range(len(s.words)) if len(adj[i]) == 1]
    if len(ends) != 2:
        return None
    if any(len(a) > 2 for a in adj):
        return None
    start = max(ends, key=lambda i: s.words[i])
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        order.append(cur)
    if len(order) != len(s.words):
        return None  # disconnected: leftover vertices form cycles elsewhere
    return [BitVector(s.n, s.words[i]) for i in order]


def export_dot(s: SolutionSet, labeling: ComponentLabeling | None = None) -> str:
    if len(s.words) > (1 << 16):
        raise TooLarge(f"{len(s.words)} vertices exceed DOT limit")
    palette = [
        "lightblue", "lightgoldenrod", "lightpink", "lightgreen",
        "lightsalmon", "lightcyan", "plum", "wheat",
    ]
    lines = ["graph solutions {"]
    for i, w in enumerate(s.words):
        name = format(w, f"0{s.n}b")
        if labeling is not None:
            color = palette[labeling.labels[i] % len(palette)]
            lines.append(f'  "{name}" [style=filled, fillcolor={color}];')
        else:
            lines.append(f'  "{name}";')
    for w in s.words:
        for b in range(s.n):
            other = w ^ (1 << b)
            if other > w and _bisect(s.words, other) >= 0:
                a = format(w, f"0{s.n}b")
                btxt = format(other, f"0{s.n}b")
                lines.append(f'  "{a}" -- "{btxt}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_relation(n: int, size: int, seed: int) -> SolutionSet:
    if n < 0:
        raise UsageError("dimension must be >= 0")
    if size > (1 << n) or size < 0:
        raise SizeOverflow(f"cannot pick {size} distinct words in {n} bits")
    rng = random.Random(seed)
    words = rng.sample(range(1 << n), size)
    return SolutionSet(n, tuple(sorted(words)))


def parse_relation(text: str) -> SolutionSet:
    n = None
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "n":
                raise UsageError(f"line {lineno}: expected header `n <dim>`")
            try:
                n = int(parts[1])
            except ValueError:
                raise UsageError(f"line {lineno}: bad dimension {parts[1]!r}") from None
            if n < 0:
                raise UsageError(f"line {lineno}: negative dimension")
            continue
        if len(line) != n or any(c not in "01" for c in line):
            raise UsageError(f"line {lineno}: expected {n} bits")
        words.append(int(line, 2))
    if n is None:
        raise UsageError("missing `n <dim>` header")
    return SolutionSet.from_words(n, words)


def print_relation(s: SolutionSet) -> str:
    return f"n {s.n}\n" + "".join(t + "\n" for t in s.texts())
