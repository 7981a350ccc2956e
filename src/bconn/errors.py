"""Shared exception types, and the limits whose refusals raise them.

Every error the library raises deliberately is a subclass of BconnError,
so callers (and the CLI) can distinguish usage errors from budget refusals.
"""


class BconnError(Exception):
    """Base class for all library errors."""


class UsageError(BconnError):
    """Malformed input or a call that contradicts a precondition."""


class BudgetError(BconnError):
    """An exact computation was refused because it exceeds a budget."""


# --- truth tables / properties ---

class LengthMismatch(UsageError):
    pass


class BadCharacter(UsageError):
    pass


class ArityMismatch(UsageError):
    pass


class ArityOverflow(UsageError):
    pass


class BadThreshold(UsageError):
    pass


class DegreeBoundTooSmall(UsageError):
    pass


class BudgetExceeded(BudgetError):
    pass


class UnknownClass(BconnError):
    """A base's common atoms match no class of the generator table."""


# --- parsing ---

class FormulaSyntaxError(UsageError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownFunction(UsageError):
    pass


class ForwardReference(UsageError):
    pass


class MissingOutput(UsageError):
    pass


class DuplicateName(UsageError):
    pass


class MissingVariable(UsageError):
    pass


class HeaderMismatch(UsageError):
    pass


class LiteralOutOfRange(UsageError):
    pass


class EmptyClause(UsageError):
    pass


# --- solution graph ---

class NotASolution(UsageError):
    pass


class TooLarge(BudgetError):
    pass


class SizeOverflow(UsageError):
    pass


# --- easy-side algorithms ---

class WrongClass(UsageError):
    pass


class NonAffineBaseFunction(UsageError):
    pass


class WitnessBudgetExceeded(BudgetError):
    pass


# --- reductions ---

class NotOneReproducing(UsageError):
    pass


class NotRealizable(BconnError):
    """Certified: the target table is outside the base's closure."""


class KTooLarge(UsageError):
    pass


# --- limits ---

# The most of each kind of work an exact computation may do, by name; the
# unit is the name's last word.  A refusal reads "{used} {name} over the
# limit of {limit}".  Tests swap an entry with monkeypatch.setitem.
LIMITS = {
    "table variables": 24,  # a table over n variables is 2^n bits
    "search variables": 20,  # above it, zerosep_decide withholds the path
    "bound variables": 20,
    "relation words": 1 << 24,
    "BFS steps": 1 << 25,  # sources x (vertices + edges), exact diameter
    "closure applications": 1 << 25,
    "closure tables": 200_000,
    "synthesis applications": 120_000,
    "synthesis nodes": 100_000,  # a candidate's formula size
    "transform words": 1 << 20,
    "formula nodes": 1 << 26,  # refused before print_formula writes a byte
    "cover states": 1 << 22,
    "DOT vertices": 1 << 16,
}


def charge(name: str, used: int, error=BudgetExceeded) -> None:
    """Raise error if used passes LIMITS[name]."""
    limit = LIMITS[name]
    if used > limit:
        raise error(f"{used} {name} over the limit of {limit}")
