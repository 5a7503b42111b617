"""Exception types shared across the package.

Every error raised for a violated precondition derives from RghwError so
the CLI can map the whole family to exit code 2 (except BudgetExceeded,
which gets exit code 3 when an oracle was requested).
"""

from __future__ import annotations


class RghwError(Exception):
    """Base class for all package errors."""


class NotAPrimePower(RghwError):
    """Field order q is not a prime power (or is out of the supported range)."""


class DivisionByZero(RghwError):
    """Multiplicative inverse of zero requested."""


class ShapeMismatch(RghwError):
    """Operands belong to different shapes/fields/grids, or a point/exponent
    falls outside the box."""


class InvalidBand(RghwError):
    """Degree band violates -1 <= u2 < u1 <= k (empty bands are rejected)."""


class RankOutOfRange(RghwError):
    """r outside 1..l for the band at hand."""


class DegreeTooHigh(RghwError):
    """Point degree exceeds the degree bound of the enclosing set."""


class SubsetTooLarge(RghwError):
    """Requested coordinate subset size exceeds the field order."""


class DuplicateElements(RghwError):
    """Coordinate subset contains repeated field elements."""


class DegreeOutOfRange(RghwError):
    """Code degree bound outside 0..k."""


class EmptyFamily(RghwError):
    """An operation on a family of polynomials received an empty list."""


class InvalidNesting(RghwError):
    """C2 is not a subcode of C1 on the same grid."""


class InvalidBudget(RghwError):
    """An oracle budget allows no state or a negative time."""


class BudgetExceeded(RghwError):
    """An oracle ran out of its state or wall-clock budget.

    Carries the number of states explored so far; callers must treat this
    as SKIPPED, never as an answer.
    """

    def __init__(self, message: str, states_explored: int):
        super().__init__(message)
        self.states_explored = states_explored
