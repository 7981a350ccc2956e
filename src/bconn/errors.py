"""Shared exception types.

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
