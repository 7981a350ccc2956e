"""The exhaustive solution-graph engine.

Vertices are assignment words (row-index encoding); two words are
adjacent iff they differ in exactly one bit.  The empty set counts as
connected and has diameter 0, matching the convention that the solution
graph of an unsatisfiable formula is connected.

A relation keeps its words; an enumerated set keeps only its 2^n-bit
table (see `SolutionSet`).  The search depends on the side a set is on,
not on what backs it.

Breadth-first search (`_layers`) holds each frontier in one of two forms,
switching as its size crosses a threshold (the switch of Beamer, Asanovic
and Patterson, "Direction-Optimizing Breadth-First Search", SC 2012):

* A thin frontier is a collection of words.  A layer probes each word's
  neighbours against the unvisited solutions: a bitmap of one bit per row
  on the mask side, a set of words on the word side.
* A thick frontier is a 2^n-bit mask laid out like a truth table.  A layer
  moves it along every coordinate x_j at once,
  ((F & M_j) >> s_j) | ((F << s_j) & M_j) with M_j = var_mask(n, j) and
  s_j = 2^(n-j), and keeps the unvisited solutions (Knuth, TAOCP 4A,
  7.1.3), read from the bitmap as one mask.

A frontier is thick from 2^(n - _THICK_SHIFT) words on.  A set with fewer
words than that can have no thick frontier, so it stays on the word side:
it never gets a mask, and a table-backed one builds its (few) words.  A
set with at least that many is on the mask side, however it is backed:
its `_Cube` holds it as a mask (a relation's made once from its words),
from which each search takes a bitmap.  On the mask side one pass over
the coordinates finds the isolated vertices, which the sweep lists
without a search, the coordinates along which some edge runs, the only
ones a search probes or shifts, and the number of edges.

A set pays for one component sweep (`_sweep`), cached on it like its
`_Cube`.  It takes the components by ascending smallest word: isolated
vertices from the cube's mask, every other component searched once from
the smallest word still unvisited.  It keeps O(1) ints per component:
that word, the component's size and, if the component has more than one
vertex, its far word, the smallest word at the greatest distance e from
the first, with the cap min(2e, size - 1) on any vertex's eccentricity
there.  `components` reads the words and sizes; its per-word `labels`,
which only `export_dot` reads, are a second sweep run on first access.
`diameter`, in both modes, searches once more from far words (the double
sweep), largest cap first, until no cap left exceeds the answer.  Those
searches share one bitmap or set of unvisited words, since a search run
to its end takes exactly its own component out of it.  `shortest_path`
walks back from the goal, each step to its smallest neighbour in the
layer before, and `is_induced_path` is one search from the far word: a
connected set is a path iff each of its layers holds one word.  None of
these lists a table-backed set's words.

The double sweep is exact on a tree (|E| = |V| - 1), so the exact
`diameter` needs nothing more on a forest, which the cube's edge count
shows on the mask side.  Otherwise it counts a component's edges after
its far search, charges a component with a cycle its BFS steps against
the limit, and only then lists that component's words, with adjacency
lists among them, to run `_bfs_depths` from every other vertex.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import chain, product, repeat, starmap
from operator import lt, xor

from . import _later
from .errors import NotASolution, SizeOverflow, TooLarge, UsageError, charge
from .truthtable import (
    N_MAX,
    BitVector,
    Record,
    _line_slices,
    _set,
    mask_rows,
    var_mask,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .clones import BaseSet

# tabulation loads the semantics layer on first use; a relation never does
truth_table_of = _later("semantics", "truth_table_of")

# one mask layer costs about as much as probing 2^(n-11) frontier words
_THICK_SHIFT = 11

_BITS = str.maketrans("", "", "01")  # translate deletes 0 and 1

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"


class SolutionSet(Record):
    """The solutions of an n-variable object, as increasing words or as a
    2^n-bit table; the search state is cached in __dict__.

    A set built from words keeps them.  An enumerated set keeps only the
    table, and builds its words on first read of `words`, which only
    `texts` (so `print_relation`), `vectors`, `labels` and `export_dot`
    make.  The searches ask only how many words it has (see the module
    docstring)."""

    __slots__ = ("n", "words", "__dict__")

    def __init__(self, n: int, words: tuple[int, ...]):
        if n < 0:
            raise UsageError("dimension must be >= 0")
        if not _increasing(words):
            raise UsageError("words must be strictly increasing")
        if words and words[-1].bit_length() > n:
            raise UsageError(f"word {words[-1]} does not fit {n} bits")
        _set(self, "n", n)
        _set(self, "words", words)

    @classmethod
    def from_words(cls, n: int, words) -> "SolutionSet":
        words = tuple(words)
        if not _increasing(words):  # a relation file is usually sorted already
            words = tuple(sorted(set(words)))
        return cls(n, words)

    @classmethod
    def from_table(cls, n: int, bits: int) -> "SolutionSet":
        """The rows of a 2^n-bit table that are 1; no word is built yet."""
        if n < 0:
            raise UsageError("dimension must be >= 0")
        if bits < 0 or bits.bit_length() > 1 << n:
            raise UsageError(f"table does not fit 2^{n} rows")
        s = object.__new__(cls)
        _set(s, "n", n)
        s.__dict__["_table"] = bits
        return s

    def __getattr__(self, name: str):
        # reached only when normal lookup fails, as for an unset `words`
        table = self.__dict__.get("_table")
        if name != "words" or table is None:
            raise AttributeError(name)
        words = tuple(mask_rows(table))
        _set(self, "words", words)
        return words

    def __len__(self) -> int:
        table = self.__dict__.get("_table")
        return len(self.words) if table is None else table.bit_count()

    def __contains__(self, word: int) -> bool:
        table = self.__dict__.get("_table")
        if table is not None:
            return word >= 0 and table >> word & 1 == 1
        i = bisect_left(self.words, word)
        return i < len(self.words) and self.words[i] == word

    def smallest(self) -> int:
        """The smallest word; the set must not be empty."""
        table = self.__dict__.get("_table")
        return self.words[0] if table is None else (table & -table).bit_length() - 1

    def vectors(self) -> list[BitVector]:
        return [BitVector(self.n, w) for w in self.words]

    def texts(self) -> list[str]:
        return list(map(format, self.words, repeat(f"0{self.n}b")))


def _increasing(words: tuple[int, ...]) -> bool:
    """True iff the words are nonnegative and strictly increasing."""
    return all(map(lt, chain((-1,), words), words))


def enumerate_solutions(obj, base: BaseSet, n: int) -> SolutionSet:
    """Exactly the assignments the object maps to 1, as a table-backed set:
    the table is the only form built here, and the sweep, `shortest_path`
    and the lower-bound diameter never build another."""
    return SolutionSet.from_table(n, truth_table_of(obj, base, n).bits)


class _Cube:
    """What the search needs of a solution set; built once per set."""

    def __init__(self, s: SolutionSet):
        n = s.n
        self.n = n
        self.thick = max(1, (1 << n) >> _THICK_SHIFT)
        self.flips = [1 << b for b in range(n)]  # coordinates to probe, as XOR masks
        self.mask = self.alone = 0  # the set and its isolated vertices, on the mask side
        self.edges = None  # the set's edges, counted on the mask side only
        if len(s) < self.thick:
            return
        mask = s.__dict__.get("_table")
        if mask is None:
            mask = _words_mask(s.words, n)
        linked, flips, edges = 0, [], 0
        for j in range(1, n + 1):
            step = (1 << (n - j), var_mask(n, j))
            ends = mask & _spread(mask, [step])  # both ends of every edge along x_j
            if ends:
                flips.append(step[0])
                linked |= ends
                edges += ends.bit_count() >> 1
        self.flips, self.mask, self.alone, self.edges = flips, mask, mask ^ linked, edges

    @cached_property
    def steps(self) -> list[tuple[int, int]]:
        """(s_j, M_j) per coordinate to shift; kept only once a frontier
        gets thick, since sets that stay thin would hold n masks for nothing."""
        return [(sh, var_mask(self.n, self.n - sh.bit_length() + 1)) for sh in self.flips]


def _cube(s: SolutionSet) -> _Cube:
    cube = s.__dict__.get("_cube")
    if cube is None:
        cube = s.__dict__["_cube"] = _Cube(s)
    return cube


def _words_mask(words, n: int) -> int:
    buf = bytearray(((1 << n) + 7) >> 3)
    for w in words:
        buf[w >> 3] |= 1 << (w & 7)
    return int.from_bytes(buf, "little")


def _spread(front: int, steps) -> int:
    """Every row one step along a listed coordinate from a row of `front`."""
    out = 0
    for sh, hi in steps:
        out |= ((front & hi) >> sh) | ((front << sh) & hi)
    return out


class _Words(set):
    """The unvisited solutions on the word side, as a set of words."""

    __slots__ = ("words", "flips")

    def __init__(self, words: tuple[int, ...], flips: list[int]):
        super().__init__(words)
        self.words, self.flips = words, flips

    def step(self, frontier) -> set[int]:
        """The unvisited neighbours of the frontier's words, now visited."""
        found = self.intersection(starmap(xor, product(frontier, self.flips)))
        self.difference_update(found)
        return found

    def firsts(self):
        """Each time the caller asks, the smallest unvisited word, taken."""
        for w in self.words:
            if w in self:
                self.remove(w)
                yield w


class _Bitmap:
    """The unvisited solutions on the mask side: one bit per row in a
    bytearray, so a thin step probes a word in O(1) and a thick step reads
    and writes the whole set as one int."""

    __slots__ = ("bits", "far", "near")

    def __init__(self, mask: int, n: int, flips: list[int]):
        self.bits = bytearray(mask.to_bytes(((1 << n) + 7) >> 3, "little"))
        # a flip of bit 3 or above moves to another byte, at the same bit
        self.far = [f >> 3 for f in flips if f > 7]
        self.near = [f for f in flips if f < 8]

    def discard(self, w: int):
        self.bits[w >> 3] &= ~(1 << (w & 7))

    def step(self, frontier) -> list[int]:
        """The unvisited neighbours of the frontier's words, now visited."""
        bits, far, near, found = self.bits, self.far, self.near, []
        for w in frontier:
            i, k, b = w >> 3, w & 7, 1 << (w & 7)
            for g in far:
                if bits[i ^ g] & b:
                    bits[i ^ g] ^= b
                    found.append(w ^ g << 3)
            for f in near:
                c = 1 << (k ^ f)
                if bits[i] & c:
                    bits[i] ^= c
                    found.append(w ^ f)
        return found

    def mask(self) -> int:
        return int.from_bytes(self.bits, "little")

    def load(self, mask: int):
        self.bits[:] = mask.to_bytes(len(self.bits), "little")

    def firsts(self):
        """Each time the caller asks, the smallest unvisited word, taken."""
        bits, i, b = self.bits, 0, 0
        search = re.compile(rb"[^\x00]").search  # the first byte with a bit set
        while b or (m := search(bits, i)):
            if not b:
                i = m.start()
                b = bits[i]
            low = b & -b
            bits[i] = b ^ low
            yield (i << 3) + low.bit_length() - 1
            b = bits[i]


def _unseen(cube: _Cube, s: SolutionSet, skip_alone: bool = False):
    """The words of `s`, all unvisited, but the isolated vertices
    `cube.alone` if `skip_alone`: a bitmap on the mask side, else a word
    set (the word side lists no isolated vertices)."""
    if cube.mask:
        return _Bitmap(cube.mask ^ cube.alone if skip_alone else cube.mask, cube.n, cube.flips)
    return _Words(s.words, cube.flips)


def _layers(cube: _Cube, frontier, unseen):
    """The BFS layers after `frontier`, whose words it takes out of `unseen`.

    A thin layer is a collection of words, a thick one a mask.  `unseen`
    (from `_unseen`) loses each word the search reaches, so a search run
    to its end leaves exactly the words it did not reach, and `unseen`
    must hold every word the search may reach (other components may stay
    in it).  Only the mask side's `_Bitmap` gives and takes a mask: on the
    word side no frontier gets thick, as the whole set has fewer words
    than a thick frontier.
    """
    for w in frontier:
        unseen.discard(w)
    thick = cube.thick
    while frontier:
        if len(frontier) < thick:
            frontier = unseen.step(frontier)
            if frontier:
                yield frontier
            continue
        steps, rest = cube.steps, unseen.mask()
        front = _words_mask(frontier, cube.n)
        while True:
            front = _spread(front, steps) & rest
            if not front:
                break
            rest ^= front
            yield front
            if front.bit_count() < thick:
                break
        unseen.load(rest)
        frontier = mask_rows(front)


def _sweeps(cube: _Cube, s: SolutionSet):
    """Each component once, by ascending smallest word: that word and its
    BFS layers after it (none for an isolated vertex), which the caller
    must run to their end before it takes the next component.

    The isolated vertices come from `cube.alone`; every other component
    is searched from the smallest word still unvisited, which on the
    mask side the bitmap gives without a word list."""
    alone = iter(mask_rows(cube.alone))
    unseen = _unseen(cube, s, skip_alone=True)
    a = next(alone, None)
    for w in unseen.firsts():
        while a is not None and a < w:
            yield a, ()
            a = next(alone, None)
        yield w, _layers(cube, (w,), unseen)
    while a is not None:
        yield a, ()
        a = next(alone, None)


def _gather(cube: _Cube, w: int, layers) -> tuple[int, int | list[int]]:
    """Run a search from w to its end: its depth, and the component it
    reached as a mask if the search got thick, else as words, w first."""
    words, mask, depth = [w], 0, 0
    for layer in layers:
        depth += 1
        if isinstance(layer, int):
            mask |= layer
        else:
            words.extend(layer)
    return depth, mask | _words_mask(words, cube.n) if mask else words


def _edges(cube: _Cube, comp: int | list[int]) -> int:
    """The edges of a component from `_gather`: counted along each
    coordinate of its mask, else as its words' neighbours among them."""
    if isinstance(comp, int):
        return sum(((comp & hi) >> sh & comp).bit_count() for sh, hi in cube.steps)
    members = set(comp)
    return sum(map(members.__contains__, starmap(xor, product(comp, cube.flips)))) // 2


def _sweep(s: SolutionSet) -> tuple[tuple[int, ...], ...]:
    """The one component sweep of `s`, cached on it like `_cube`: the
    smallest word and the size of each component, by ascending smallest
    word, and the caps and far words of the components with more than
    one vertex.

    The far word is the smallest word at the greatest distance e from the
    smallest; cap = min(2e, size - 1) bounds the eccentricity of any
    vertex of the component."""
    got = s.__dict__.get("_sweep")
    if got is None:
        reps, sizes, caps, fars = [], [], [], []
        for w, layers in _sweeps(_cube(s), s):
            size, ecc, last = 1, 0, None
            for last in layers:
                size += last.bit_count() if isinstance(last, int) else len(last)
                ecc += 1
            reps.append(w)
            sizes.append(size)
            if last is not None:
                caps.append(min(2 * ecc, size - 1))
                fars.append((last & -last).bit_length() - 1 if isinstance(last, int) else min(last))
        got = s.__dict__["_sweep"] = (tuple(reps), tuple(sizes), tuple(caps), tuple(fars))
    return got


class ComponentLabeling(Record):
    __slots__ = ("count", "representatives", "sizes", "solutions", "__dict__")
    _hidden = ("solutions",)

    def __init__(
        self,
        count: int,
        representatives: tuple[int, ...],  # smallest word per component, in label order
        sizes: tuple[int, ...],  # vertices per component, in label order
        solutions: SolutionSet,
    ):
        _set(self, "count", count)
        _set(self, "representatives", representatives)
        _set(self, "sizes", sizes)
        _set(self, "solutions", solutions)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """Each word's component, in word order; a second sweep, run on first read."""
        s = self.solutions
        cube, label = _cube(s), {}
        for k, (w, layers) in enumerate(_sweeps(cube, s)):
            comp = _gather(cube, w, layers)[1]
            label.update(zip(mask_rows(comp) if isinstance(comp, int) else comp, repeat(k)))
        return tuple(map(label.__getitem__, s.words))


def components(s: SolutionSet) -> ComponentLabeling:
    reps, sizes = _sweep(s)[:2]
    return ComponentLabeling(len(reps), reps, sizes, s)


def is_connected(s: SolutionSet) -> bool:
    return components(s).count <= 1


def shortest_path(
    s: SolutionSet, start: BitVector, goal: BitVector
) -> list[BitVector] | None:
    """A shortest path, or None.  Of all shortest paths it is the one that,
    walked back from the goal, always steps to the smallest word."""
    if start.n != s.n or goal.n != s.n:
        raise NotASolution("endpoint dimension mismatch")
    if start.word not in s:
        raise NotASolution(f"{start.text} is not a solution")
    if goal.word not in s:
        raise NotASolution(f"{goal.text} is not a solution")
    if start.word == goal.word:
        return [start]
    cube = _cube(s)
    unseen = _unseen(cube, s)
    layers = [(start.word,)]
    g = goal.word
    for layer in _layers(cube, layers[0], unseen):
        layers.append(layer)
        if (layer >> g & 1) if isinstance(layer, int) else g in layer:
            break
    else:
        return None
    path = [goal.word]
    for layer in reversed(layers[:-1]):
        w = path[-1]
        if isinstance(layer, int):
            path.append(min(u for u in map(w.__xor__, cube.flips) if layer >> u & 1))
        elif len(layer) < len(cube.flips):  # fewer words to test than neighbours
            path.append(min(u for u in layer if (u ^ w).bit_count() == 1))
        else:
            path.append(min(set(layer).intersection(map(w.__xor__, cube.flips))))
    return [BitVector(s.n, w) for w in reversed(path)]


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


def diameter(s: SolutionSet, mode: str = EXACT) -> int:
    """Largest eccentricity within any component (0 for the empty set).

    Both modes search each component from its far word, largest cap
    first, until no cap left exceeds the answer.  LOWER_BOUND gives that
    double sweep's value, which lies between the eccentricity of each
    component's smallest word and the diameter.  EXACT also searches from
    every other vertex of a component with a cycle (on a tree the double
    sweep is exact), and raises BudgetExceeded, before it lists the
    component's words, once those searches come to more than LIMITS["BFS
    steps"] (sources x (vertices + edges)) in all; trees cost two searches
    and are not counted.
    """
    if mode not in (EXACT, LOWER_BOUND):
        raise UsageError(f"bad diameter mode {mode!r}")
    cube = _cube(s)
    reps, sizes, caps, fars = _sweep(s)
    # a set whose edges the cube counted, and found |V| - #components, is a forest
    cycles = mode == EXACT and cube.edges != len(s) - len(reps)
    unseen = _unseen(cube, s)  # each search takes its own component out
    best = work = 0
    for cap, far, k in sorted(zip(caps, fars, [k for k in sizes if k > 1]), reverse=True):
        if cap <= best:  # no component left can raise the answer
            break
        layers = _layers(cube, (far,), unseen)
        if not cycles:
            best = max(best, sum(1 for _ in layers))
            continue
        depth, comp = _gather(cube, far, layers)
        best = max(best, depth)
        edges = _edges(cube, comp)
        if edges == k - 1:  # a tree
            continue
        work += k * (k + edges)
        charge("BFS steps", work)
        words = mask_rows(comp) if isinstance(comp, int) else comp
        index = {w: i for i, w in enumerate(words)}
        adj = [[index[u] for u in map(w.__xor__, cube.flips) if u in index] for w in words]
        for i, w in enumerate(words):
            if w != far:
                best = max(best, max(_bfs_depths(adj, i).values()))
    return best


def is_induced_path(s: SolutionSet) -> list[BitVector] | None:
    """The path order if the graph is a chordless simple path, else None.

    A connected set is one iff every BFS layer from its far word holds
    one word: the far word of a path is an end, and a branch or a cycle
    puts two words in some layer from any vertex.  The returned order
    starts at the end with the larger word.
    """
    if not len(s):
        return None
    reps, _, _, fars = _sweep(s)
    if len(reps) > 1:
        return None
    cube, order = _cube(s), list(fars or reps)
    unseen = _unseen(cube, s)
    for layer in _layers(cube, order[:1], unseen):
        if isinstance(layer, int):
            if layer & (layer - 1):
                return None
            order.append(layer.bit_length() - 1)
        elif len(layer) > 1:
            return None
        else:
            order.extend(layer)
    if order[-1] > order[0]:
        order.reverse()
    return [BitVector(s.n, w) for w in order]


def check_dot_size(s: SolutionSet) -> None:
    """Refuse a set too large to draw, before any search or word list."""
    charge("DOT vertices", len(s), error=TooLarge)


def export_dot(s: SolutionSet, labeling: ComponentLabeling | None = None) -> str:
    check_dot_size(s)
    palette = [
        "lightblue", "lightgoldenrod", "lightpink", "lightgreen",
        "lightsalmon", "lightcyan", "plum", "wheat",
    ]
    lines = ["graph solutions {"]
    spec, names, present = f"0{s.n}b", s.texts(), set(s.words)
    for i, name in enumerate(names):
        if labeling is not None:
            color = palette[labeling.labels[i] % len(palette)]
            lines.append(f'  "{name}" [style=filled, fillcolor={color}];')
        else:
            lines.append(f'  "{name}";')
    for w, name in zip(s.words, names):
        for b in range(s.n):
            other = w ^ (1 << b)
            if other > w and other in present:
                lines.append(f'  "{name}" -- "{format(other, spec)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_relation(n: int, size: int, seed: int) -> SolutionSet:
    if n < 0:
        raise UsageError("dimension must be >= 0")
    if n > N_MAX:
        raise UsageError(f"dimension {n} exceeds {N_MAX}")
    if size > (1 << n) or size < 0:
        raise SizeOverflow(f"cannot pick {size} distinct words in {n} bits")
    charge("relation words", size)
    import random  # only gen-random samples

    rng = random.Random(seed)
    words = rng.sample(range(1 << n), size)
    return SolutionSet(n, tuple(sorted(words)))


def parse_relation(text: str) -> SolutionSet:
    n = None
    words: list[int] = []
    for first, lines in _line_slices(text):
        # a slice of bare n-bit words converts whole; others walk their lines
        if n and set(map(len, lines)) == {n} and not "".join(lines).translate(_BITS):
            words += map(int, lines, repeat(2))
            continue
        for lineno, raw in enumerate(lines, first):
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
                if n > N_MAX:
                    raise UsageError(f"line {lineno}: dimension {n} exceeds {N_MAX}")
                continue
            # the one word of dimension 0 is written `0`, as `texts` writes it
            if (len(line) != n or line.strip("01")) and (n or line != "0"):
                raise UsageError(f"line {lineno}: expected {n} bits")
            words.append(int(line, 2))
    if n is None:
        raise UsageError("missing `n <dim>` header")
    return SolutionSet.from_words(n, words)


def print_relation(s: SolutionSet) -> str:
    return f"n {s.n}\n" + "".join(t + "\n" for t in s.texts())
