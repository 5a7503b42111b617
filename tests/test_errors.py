"""One int rule for every scalar input, and every refused value printed.

`errors.check_int` refuses anything but an int exactly inside its range,
and `errors.shown` prints the refused value, so an int of more digits
than str() prints (10**5000 against the default limit of 4300) is bad
input like any other: RghwError, never the ValueError that str() raises.
"""

import sys

import pytest

from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    iter_band,
    lex_rank_in_leq,
    nth_band_element,
    shadow,
)
from rghw.codes import CartesianCode, CartesianGrid, MultiPoly, make_maximal_poly, maximal_family
from rghw import errors
from rghw.errors import RghwError
from rghw.gf import Field
from rghw.oracle import SupportOracle, oracle_rghw_window

H = 10**5000
STAND_IN = "<too many digits to print>"
# Python 3.10 before 3.10.7 has no digit limit, and a limit of 0 switches
# it off: there H prints in full
LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000


def printed(value) -> str:
    """How a refused value holding H shows in a message."""
    return STAND_IN if LIMITED else repr(value)


F3 = Field(3)
SHAPE = BoxShape((2, 3))
GRID = CartesianGrid(F3, (2, 3))
BAND = DegreeBand(-1, 3)
C1 = CartesianCode(GRID, 2)


def rank_message(size: int, u1: int) -> str:
    return f"r = {{}} outside 1..{size} for band DegreeBand(u2=-1, u1={u1}) in box (2, 3)"


# (id, call, the refused value as printed, message with {} where it shows)
REFUSED = [
    ("band u2", lambda: DegreeBand(-H, 1), printed(-H), "u2 = {} < -1"),
    ("box side", lambda: BoxShape((-H,)), printed(-H), "box side {} is not a positive int"),
    ("field q", lambda: Field(H), printed(H), "q = {} outside supported range 2..65536"),
    ("code degree", lambda: CartesianCode(GRID, H), printed(H), "degree bound {} outside 0..3"),
    ("grid size", lambda: CartesianGrid(F3, [H]), printed(H), "d_m = {} > q = 3"),
    ("grid element", lambda: CartesianGrid(F3, [2], [[0, H]]), printed(H), "element {} is not a GF(3) encoding"),
    ("grid repeats", lambda: CartesianGrid(F3, [2], [[H, H]]), printed((H, H)), "subset 0 repeats elements: {}"),
    ("grid policy", lambda: CartesianGrid(F3, [2], None, H), printed(H), "unknown subset policy {}"),
    ("poly exponent", lambda: MultiPoly(F3, SHAPE, {(H, 0): 1}), printed((H, 0)), "exponent {} outside box (2, 3)"),
    (
        "poly coefficient",
        lambda: MultiPoly(F3, SHAPE, {(1, 0): H}),
        printed(H),
        "coefficient {} is not a canonical GF(3) encoding",
    ),
    ("maximal poly", lambda: make_maximal_poly(GRID, (H, 0)), printed((H, 0)), "point {} outside box (2, 3)"),
    ("weight query", lambda: WeightQuery(SHAPE, BAND, H), printed(H), rank_message(6, 3)),
    ("nth band element", lambda: nth_band_element(SHAPE, BAND, H), printed(H), rank_message(6, 3)),
    ("maximal family", lambda: maximal_family(GRID, BAND, H), printed(H), rank_message(6, 3)),
    ("support rank", lambda: SupportOracle(C1, None).rank(H), printed(H), rank_message(5, 2)),
    ("window rank", lambda: oracle_rghw_window(C1, None, H), printed(H), rank_message(5, 2)),
    ("band walk", lambda: next(iter_band(SHAPE, DegreeBand(-1, H))), printed(H), "u1 = {} > k = 3 for box (2, 3)"),
    ("lex rank u1", lambda: lex_rank_in_leq(SHAPE, -H, (0, 0)), printed(-H), "deg(0, 0) = 0 > u1 = {}"),
    ("lex rank u1 float", lambda: lex_rank_in_leq(SHAPE, 1.5, (0, 0)), "1.5", "deg(0, 0) = 0 > u1 = {}"),
    ("shadow", lambda: shadow(SHAPE, [(H, 0)]), printed((H, 0)), "point {} outside box (2, 3)"),
    # grid elements are ints exactly: a float or a bool is no GF(q) encoding
    ("float element", lambda: CartesianGrid(F3, [2], [[0, 1.0]]), "1.0", "element {} is not a GF(3) encoding"),
    ("bool element", lambda: CartesianGrid(F3, [2], [[0, True]]), "True", "element {} is not a GF(3) encoding"),
]


@pytest.mark.parametrize(
    "call, value, message", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
)
def test_every_scalar_input_is_refused_as_bad_input(call, value, message):
    with pytest.raises(RghwError) as refused:
        call()
    assert str(refused.value) == message.format(value)


def test_check_int_takes_an_int_exactly_inside_its_range():
    for value in (1, 3):
        errors.check_int(value, 1, 3, "unused {}")
    errors.check_int(H, 1, None, "unused {}")  # no upper end
    for value in (0, 4, True, 2.0, "2", None):
        with pytest.raises(RghwError) as refused:
            errors.check_int(value, 1, 3, "r = {} outside {lo}..{hi}")
        assert str(refused.value) == f"r = {value!r} outside 1..3"


def test_check_int_shows_its_context_and_range_too():
    with pytest.raises(RghwError) as refused:
        errors.check_int(0, 1, None, "{} is below {lo} for {}", H)
    assert str(refused.value) == f"0 is below 1 for {printed(H)}"
    with pytest.raises(RghwError) as refused:
        errors.check_int(-1, 0, H, "{} outside {lo}..{hi}")
    assert str(refused.value) == f"-1 outside 0..{printed(H)}"
    with pytest.raises(RghwError) as refused:
        DegreeBand(H, H)
    assert str(refused.value) == f"empty band: u2 = {printed(H)} >= u1 = {printed(H)}"


def test_shown_is_the_repr_or_one_stand_in():
    assert errors.shown((1, "a")) == "(1, 'a')"
    assert errors.shown(-H) == printed(-H)
    assert errors.shown([0, H]) == printed([0, H])
