"""The package's two exception types, and the one int rule.

RghwError is any violated precondition (the CLI exits 2); its message
names the check.  BudgetExceeded is an oracle's refusal (exit 3 when an
oracle was requested).  Anything else raised is an internal error.
`check_int` checks each scalar input; `shown` prints each value a message shows.
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


def shown(value) -> str:
    """repr(value), or a stand-in where that raises (sys.get_int_max_str_digits)."""
    try:
        return repr(value)
    except ValueError:
        return "<too many digits to print>"


def check_int(value, lo: int, hi: int | None, template: str, *context) -> None:
    """Raises RghwError unless value is an int exactly in lo..hi (hi None: no upper
    end), with `template` filled by value, context, {lo} and {hi}, each shown."""
    if type(value) is not int or value < lo or hi is not None and value > hi:
        raise RghwError(template.format(shown(value), *map(shown, context), lo=shown(lo), hi=shown(hi)))
