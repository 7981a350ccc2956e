"""Truth tables, assignment vectors, and linear forms; and the reader
every text parser takes its input through, a bounded slice at a time.

Conventions pinned here and used everywhere else:

* An assignment over x_1..x_n is encoded as the row index
  i = sum_j a_j * 2^(n-j), so x_1 is the most significant bit.
* A truth table of arity n is a 2^n-bit integer; bit i (LSB = row 0)
  is the output on row i.  Its text form writes row 0 leftmost, so
  tt_parse/tt_print treat character position i as row i.
"""

from __future__ import annotations

import re
import struct
from itertools import chain
from operator import attrgetter, eq, ge, gt, le, lt

from .errors import (
    ArityMismatch,
    ArityOverflow,
    BadCharacter,
    BadThreshold,
    LengthMismatch,
)

N_MAX = 30

# characters of input text read at a time; a slice of formula tokens
# takes about 20 bytes a character
_SLICE = 1 << 14
_NEWLINE = re.compile("\n")

_set = object.__setattr__  # how a record's __init__ sets its fields


def _compare(op):
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return op(key(self), key(other))

    return method


class Record:
    """A frozen record of the fields a subclass names in `__slots__` (all
    but a `__dict__`, which a record that caches on itself keeps).  Records
    are equal and hash alike when their field tuples are, never across
    classes; the repr lists the fields but those in `_hidden`; assigning
    or deleting a field raises AttributeError.  Each subclass's `__init__`
    makes its checks and sets its fields with `_set`."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._key = attrgetter(*cls._fields)

    __eq__ = _compare(eq)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = [f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden]
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle set the fields, skipping __init__
        return _rebuild, (type(self), tuple(getattr(self, f) for f in self._fields))


def _rebuild(cls, values):
    r = object.__new__(cls)
    for f, v in zip(cls._fields, values):
        _set(r, f, v)
    return r


def replace(r: Record, **changes) -> Record:
    """r with the given fields changed, built (and checked) by its __init__."""
    return type(r)(**{f: getattr(r, f) for f in r._fields} | changes)


class BitVector(Record):
    """An assignment a_1..a_n, stored in row-index encoding; ordered by (n, word)."""

    __slots__ = ("n", "word")
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

    def __init__(self, n: int, word: int):
        if not 1 <= n <= N_MAX:
            raise ArityMismatch(f"dimension {n} outside [1, {N_MAX}]")
        if not 0 <= word < (1 << n):
            raise ArityMismatch(f"word {word} does not fit {n} bits")
        _set(self, "n", n)
        _set(self, "word", word)

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        if not text or any(c not in "01" for c in text):
            raise BadCharacter(f"bit vector must be nonempty over 0/1: {text!r}")
        return cls(len(text), int(text, 2))

    @property
    def text(self) -> str:
        return format(self.word, f"0{self.n}b")

    def bit(self, j: int) -> int:
        """Value of x_j, 1-based."""
        if not 1 <= j <= self.n:
            raise ArityMismatch(f"index {j} outside [1, {self.n}]")
        return (self.word >> (self.n - j)) & 1

    def with_bit(self, j: int, value: int) -> "BitVector":
        mask = 1 << (self.n - j)
        word = (self.word | mask) if value else (self.word & ~mask)
        return BitVector(self.n, word)

    def hamming(self, other: "BitVector") -> int:
        if other.n != self.n:
            raise ArityMismatch("dimension mismatch")
        return (self.word ^ other.word).bit_count()

    @property
    def weight(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return self.text


class TruthTable(Record):
    """Complete semantics of an n-ary Boolean function."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise ArityMismatch("arity must be >= 0")
        if not 0 <= bits < (1 << (1 << n)):
            raise LengthMismatch(f"table does not fit 2^{n} rows")
        _set(self, "n", n)
        _set(self, "bits", bits)

    def __hash__(self) -> int:  # once per gate in some loops: the generic key is slower
        return hash((self.n, self.bits))

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, row: int) -> int:
        return (self.bits >> row) & 1

    def one_rows(self) -> list[int]:
        """Row indices mapped to 1, ascending."""
        return mask_rows(self.bits)

    def __str__(self) -> str:
        return tt_print(self)


def tt_parse(text: str, n: int) -> TruthTable:
    if n < 0:
        raise ArityMismatch("arity must be >= 0")
    if n > N_MAX:
        raise ArityOverflow(f"arity {n} > {N_MAX}")
    if len(text) != (1 << n):
        raise LengthMismatch(
            f"expected {1 << n} characters for arity {n}, got {len(text)}"
        )
    bits = 0
    for i, c in enumerate(text):
        if c == "1":
            bits |= 1 << i
        elif c != "0":
            raise BadCharacter(f"bad character {c!r} at position {i}")
    return TruthTable(n, bits)


def tt_print(f: TruthTable) -> str:
    # row i is character i, so the binary numeral read backwards
    return format(f.bits, f"0{f.size}b")[::-1]


def tt_eval(f: TruthTable, a: BitVector) -> int:
    if a.n != f.n:
        raise ArityMismatch(f"arity {f.n} function applied to {a.n} bits")
    return f.value(a.word)


def threshold_tt(n: int, k: int, dualize: bool = False) -> TruthTable:
    """T^n_k: 1 iff the assignment has at least k ones (dual on request)."""
    if not 0 <= k <= n + 1:
        raise BadThreshold(f"threshold {k} outside [0, {n + 1}]")
    f = TruthTable(n, sum(1 << i for i in range(1 << n) if i.bit_count() >= k))
    return dual(f) if dualize else f


def dual(f: TruthTable) -> TruthTable:
    """dual(f)(x_1..x_n) = NOT f(NOT x_1, .., NOT x_n)."""
    # complementing every input reverses the row order; then negate
    reversed_rows = int(tt_print(f), 2)
    return TruthTable(f.n, reversed_rows ^ ((1 << f.size) - 1))


def mask_rows(bits: int) -> list[int]:
    """Positions of the 1 bits of a nonnegative int, ascending.

    Linear in the int's length plus the number of 1s: the int is cut into
    little-endian 64-bit chunks, and only nonzero chunks are taken apart,
    so no step touches the whole int.
    """
    rows: list[int] = []
    data = bits.to_bytes(-(-bits.bit_length() // 64) * 8, "little")
    base = 0
    for (chunk,) in struct.iter_unpack("<Q", data):
        while chunk:
            low = chunk & -chunk
            rows.append(base + low.bit_length() - 1)
            chunk ^= low
        base += 64
    return rows


def var_mask(n: int, j: int) -> int:
    """2^n-bit mask whose row-i bit equals the value of x_j on row i."""
    if not 1 <= j <= n:
        raise ArityMismatch(f"variable index {j} outside [1, {n}]")
    stride = 1 << (n - j)
    mask = ((1 << stride) - 1) << stride
    width = 2 * stride
    total = 1 << n
    while width < total:
        mask |= mask << width
        width *= 2
    return mask


class LinearForm(Record):
    """x_{i1} XOR ... XOR x_{im} XOR c."""

    __slots__ = ("support", "c")

    def __init__(self, support: frozenset[int], c: int):
        _set(self, "support", support)
        _set(self, "c", c)

    def truth_table(self, n: int) -> TruthTable:
        if self.support and max(self.support) > n:
            raise ArityMismatch("support exceeds requested arity")
        bits = (1 << (1 << n)) - 1 if self.c else 0
        for j in self.support:
            bits ^= var_mask(n, j)
        return TruthTable(n, bits)

    def __str__(self) -> str:
        terms = [f"x{j}" for j in sorted(self.support)]
        if self.c or not terms:
            terms.append(str(self.c))
        return " + ".join(terms)


def _slices(text: str, cut: re.Pattern):
    """(start, end) of consecutive slices covering text, each about _SLICE
    characters long and ending just after a match of cut, or at the end."""
    start = 0
    while start < len(text):
        m = cut.search(text, start + _SLICE)
        end = m.end() if m else len(text)
        yield start, end
        start = end


def _line_slices(text: str):
    """(number of the first line, lines) per slice cut just after a '\\n',
    which no line break spans: the lines are those of text.splitlines()."""
    first = 1
    for start, end in _slices(text, _NEWLINE):
        lines = text[start:end].splitlines()
        yield first, lines
        first += len(lines)


def _lines(text: str):
    """(line number, line) for each line of text.splitlines()."""
    return chain.from_iterable(enumerate(lines, first) for first, lines in _line_slices(text))
