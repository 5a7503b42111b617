"""The package's two exception types.

RghwError is any violated precondition, whatever the check (the CLI exits
2); its message names the check.  BudgetExceeded is an oracle's refusal
(exit 3 when an oracle was requested).  Anything else the package raises
is an internal error.
"""

from __future__ import annotations


class RghwError(Exception):
    """Bad input: a value outside what the function it was passed to accepts."""


class BudgetExceeded(RghwError):
    """An oracle ran out of its state or wall-clock budget.

    Carries the number of states explored so far, max_states + 1 on a
    state refusal; callers must treat this as SKIPPED, never as an answer.
    """

    def __init__(self, message: str, states_explored: int):
        super().__init__(message)
        self.states_explored = states_explored
