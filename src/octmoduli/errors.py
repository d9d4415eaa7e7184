"""Exception types shared across the library.

Two families: `InputError` for bad caller-supplied data (CLI exit code 1) and
`NumericError` for conditions that indicate an internal inconsistency or a
numerically impossible request (CLI exit code 2).
"""


class OctmoduliError(Exception):
    """Base class for all octmoduli errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InputError(OctmoduliError):
    """Invalid input data."""


class NumericError(OctmoduliError):
    """Internal numeric failure or inconsistent state."""


# --- deficits / forms ---

class NonPositiveDeficit(InputError):
    pass


class SumNotTwoPi(InputError):
    pass


class DegenerateForm(NumericError):
    pass


# --- decomposition ---

class NonPositiveChart(InputError):
    pass


class GluingInconsistent(NumericError):
    pass


class UnknownVertex(InputError):
    pass


# --- embedding ---

class DegenerateVertices(InputError):
    pass


class BoundsViolated(NumericError):
    pass


# --- moduli ---

class ZeroArea(InputError):
    pass


class MixedContext(InputError):
    pass


class NotTimelikeSeparated(NumericError):
    pass


class SameWall(InputError):
    pass


class NegativeCoordinate(InputError):
    pass


class NonPositiveLeadingCoordinate(NumericError):
    pass


# --- volume ---

class BadSampleCount(InputError):
    pass


class BadTruncation(InputError):
    pass
