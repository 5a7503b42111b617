import itertools
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from brute import (
    cmp_lex,
    footprint_slice,
    lex_prefix_of_slice,
    shadow_card_of_leq_prefix,
    shadow_slice,
)
from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    band_size,
    check_band,
    footprint,
    iter_band,
    lex_rank_in_leq,
    nth_band_element,
    shadow,
)
from rghw.codes import CartesianGrid
from rghw.errors import RghwError
from rghw.gf import Field

F4 = Field(4)
SHAPES = [BoxShape(s) for s in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4))]


def all_bands(shape):
    return [
        DegreeBand(u2, u1)
        for u2 in range(-1, shape.k)
        for u1 in range(u2 + 1, shape.k + 1)
    ]


def test_shape_normalization():
    # the shape holds the sorted sides; the grid holds the order they came in
    s = BoxShape((3, 2))
    assert s.d == (2, 3)
    assert CartesianGrid(F4, (3, 2)).permutation == (1, 0)
    assert s.m == 2 and s.n == 6 and s.k == 3
    t = BoxShape((4, 2, 3, 2))
    assert t.d == (2, 2, 3, 4)
    permutation = CartesianGrid(F4, (4, 2, 3, 2)).permutation
    assert permutation == (1, 3, 2, 0)
    assert [t.d[i] for i in range(4)] == [(4, 2, 3, 2)[p] for p in permutation]


def test_shape_is_immutable_and_hashable():
    s = BoxShape((2, 3))
    with pytest.raises(AttributeError):
        s.d = (3, 3)
    with pytest.raises(AttributeError):
        s.permutation = (0, 1)
    assert s == BoxShape((3, 2))
    assert hash(s) == hash(BoxShape((2, 3)))
    assert s != BoxShape((2, 2))
    assert repr(BoxShape((3, 2))) == "BoxShape(2, 3)"


def test_shape_rejects_bad_sizes():
    messages = {
        (): "a box needs at least one coordinate",
        (0,): "box side 0 is not a positive int",
        (2, -1): "box side -1 is not a positive int",
        (2, 2.5): "box side 2.5 is not a positive int",
    }
    for bad, message in messages.items():
        with pytest.raises(RghwError) as raised:
            BoxShape(bad)
        assert str(raised.value) == message


def test_shape_replace_and_make_sort_and_check_as_the_constructor():
    # _replace builds through _make, which goes through __new__
    s = BoxShape((2, 3))
    assert s._replace(d=(3, 2)).d == (2, 3)
    assert BoxShape._make([(4, 2, 3)]).d == (2, 3, 4)
    with pytest.raises(RghwError, match="box side 0 is not a positive int"):
        s._replace(d=(0, 2))
    with pytest.raises(RghwError, match="a box needs at least one coordinate"):
        BoxShape._make([()])


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_encode_decode_roundtrip(shape):
    pts = list(shape.points())
    assert len(pts) == shape.n
    # encode numbers the box 0..n-1 in points() order: indexing pts decodes
    for idx, a in enumerate(pts):
        assert shape.encode(a) == idx


def test_contains_and_require():
    s = BoxShape((2, 3))
    assert s.contains((1, 2))
    assert not s.contains((2, 0))
    assert not s.contains((0, 0, 0))
    with pytest.raises(RghwError, match=r"point \(0, 3\) outside box"):
        s.require_point((0, 3))


def test_cmp_lex_and_partial():
    assert cmp_lex((0, 2), (1, 0)) == -1
    assert cmp_lex((1, 1), (1, 1)) == 0
    assert cmp_lex((1, 0), (0, 2)) == 1
    assert not brute.dominates((1, 0), (0, 1)) and not brute.dominates((0, 1), (1, 0))
    assert brute.dominates((1, 0), (1, 1)) and not brute.dominates((1, 1), (1, 0))
    assert brute.dominates((0, 1), (1, 1))
    assert brute.dominates((2, 2), (2, 2))
    with pytest.raises(RghwError, match="have different arity"):
        cmp_lex((1, 0), (1, 0, 0))


@pytest.mark.parametrize(
    "shape",
    [BoxShape(s) for s in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (4, 8, 8))],
    ids=str,
)
def test_partial_order_refines_degree_then_lex(shape):
    # a strictly below b coordinatewise forces deg(a) < deg(b) and a <lex b.
    pts = list(shape.points())
    for a in pts:
        for b in pts:
            if brute.dominates(a, b) and a != b:
                assert sum(a) < sum(b)
                assert cmp_lex(a, b) == -1


def test_band_validation():
    with pytest.raises(RghwError, match="u2 = -2 < -1"):
        DegreeBand(-2, 1)
    with pytest.raises(RghwError, match="empty band: u2 = 1 >= u1 = 1"):
        DegreeBand(1, 1)
    with pytest.raises(RghwError, match="empty band: u2 = 3 >= u1 = 1"):
        DegreeBand(3, 1)
    with pytest.raises(RghwError, match="u1 = 3 > k = 2 for box"):
        check_band(BoxShape((2, 2)), DegreeBand(0, 3))
    check_band(BoxShape((2, 2)), DegreeBand(-1, 2))


def test_band_replace_and_make_check_as_the_constructor():
    band = DegreeBand(0, 2)
    assert band._replace(u2=-1) == DegreeBand(-1, 2)
    with pytest.raises(RghwError, match="empty band: u2 = 0 >= u1 = 0"):
        band._replace(u1=0)
    with pytest.raises(RghwError, match="u2 = -2 < -1"):
        band._replace(u2=-2)
    with pytest.raises(RghwError, match="empty band: u2 = 3 >= u1 = 1"):
        DegreeBand._make((3, 1))


def test_enumerate_band_frozen_examples():
    assert list(iter_band(BoxShape((2, 2)), DegreeBand(-1, 1))) == [
        (1, 0),
        (0, 1),
        (0, 0),
    ]
    assert list(iter_band(BoxShape((2, 3)), DegreeBand(0, 2))) == [
        (1, 1),
        (1, 0),
        (0, 2),
        (0, 1),
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_band_enumeration_matches_brute(shape):
    for band in all_bands(shape):
        members = list(iter_band(shape, band))
        assert members == brute.brute_band(shape.d, band.u2, band.u1)
        assert band_size(shape, band) == len(members)


def test_band_walk_starts_at_once_on_huge_boxes():
    # the walk never touches the whole box: its first points on a box of
    # 10^9 points are the first ranks, and a short band ends by itself
    shape = BoxShape((31623, 31623))
    top = DegreeBand(-1, shape.k)
    walk = iter_band(shape, top)
    assert [next(walk) for _ in range(4)] == [nth_band_element(shape, top, r) for r in range(1, 5)]
    sliver = DegreeBand(5, 6)
    assert list(iter_band(shape, sliver)) == [
        nth_band_element(shape, sliver, r) for r in range(1, 8)
    ]
    with pytest.raises(RghwError, match="u1 = 63245 > k = 63244 for box"):
        next(iter_band(shape, DegreeBand(0, shape.k + 1)))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_unranking_inverts_enumeration(shape):
    for band in all_bands(shape):
        members = list(iter_band(shape, band))
        for r, a in enumerate(members, start=1):
            assert nth_band_element(shape, band, r) == a
        with pytest.raises(RghwError, match=r"r = 0 outside 1\.\."):
            nth_band_element(shape, band, 0)
        with pytest.raises(RghwError, match=rf"r = {len(members) + 1} outside 1\.\.{len(members)} "):
            nth_band_element(shape, band, len(members) + 1)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_lex_rank_matches_enumeration(shape):
    for u1 in range(0, shape.k + 1):
        members = list(iter_band(shape, DegreeBand(-1, u1)))
        for i, a in enumerate(members):
            assert lex_rank_in_leq(shape, u1, a) == i + 1


def test_lex_rank_frozen_example():
    assert lex_rank_in_leq(BoxShape((2, 3)), 2, (0, 2)) == 3


def test_lex_rank_rejects_high_degree():
    with pytest.raises(RghwError, match=r"deg\(1, 1\) = 2 > u1 = 1"):
        lex_rank_in_leq(BoxShape((2, 3)), 1, (1, 1))
    with pytest.raises(RghwError, match=r"point \(0, 5\) outside box"):
        lex_rank_in_leq(BoxShape((2, 3)), 2, (0, 5))


def test_shadow_frozen_example():
    s = BoxShape((2, 3))
    assert shadow(s, [(1, 1)]) == {(1, 1), (1, 2)}
    assert shadow_slice(s, [(1, 0), (0, 2)], 2) == {(1, 1), (0, 2)}
    assert shadow_slice(s, [(0, 0)], 9) == set()
    assert footprint_slice(s, [(1, 1)], 2) == {(0, 2)}
    assert footprint_slice(s, [(1, 1)], -1) == set()


@pytest.mark.parametrize("shape", [BoxShape((2, 3)), BoxShape((2, 2, 2))], ids=str)
def test_shadow_matches_brute_all_subsets(shape):
    pts = list(shape.points())
    for mask in range(1 << len(pts)):
        subset = [pts[i] for i in range(len(pts)) if mask >> i & 1]
        expected = brute.brute_shadow(shape.d, subset)
        assert shadow(shape, subset) == expected
        assert footprint(shape, subset) == set(pts) - expected


def test_shadow_matches_brute_sampled_3x3():
    shape = BoxShape((3, 3))
    pts = list(shape.points())
    subsets = [[p] for p in pts]
    subsets += [list(c) for c in itertools.combinations(pts, 2)]
    subsets += [pts, []]
    for subset in subsets:
        assert shadow(shape, subset) == brute.brute_shadow(shape.d, subset)


def test_shadow_rejects_outside_points():
    with pytest.raises(RghwError, match=r"point \(0, 2\) outside box"):
        shadow(BoxShape((2, 2)), [(0, 2)])


def test_lex_prefix_of_slice():
    assert lex_prefix_of_slice(BoxShape((3, 3)), 2, 2) == [(2, 0), (1, 1)]
    assert lex_prefix_of_slice(BoxShape((3, 3)), 0, 1) == [(0, 0)]
    assert lex_prefix_of_slice(BoxShape((3, 3)), 2, 0) == []
    with pytest.raises(RghwError, match=r"count = 4 outside 0\.\.3"):
        lex_prefix_of_slice(BoxShape((3, 3)), 2, 4)
    with pytest.raises(RghwError, match=r"count = -1 outside 0\.\.3"):
        lex_prefix_of_slice(BoxShape((3, 3)), 2, -1)


def test_shadow_cards_frozen_example():
    s = BoxShape((3, 3))
    assert shadow(s, lex_prefix_of_slice(s, 2, 2)) == {
        (2, 0),
        (2, 1),
        (2, 2),
        (1, 1),
        (1, 2),
    }
    assert shadow(s, [(2, 0), (0, 2)]) == {(2, 0), (2, 1), (2, 2), (1, 2), (0, 2)}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_prefix_shadow_is_lex_tail(shape):
    # Shadow of the first r elements of {deg <= d} in descending lex order
    # is exactly the set of points lexicographically >= the r-th element,
    # with cardinality n - encode(a_r).
    for bound in range(0, shape.k + 1):
        members = list(iter_band(shape, DegreeBand(-1, bound)))
        for r in range(1, len(members) + 1):
            a_r = members[r - 1]
            shd = shadow(shape, members[:r])
            assert shd == {b for b in shape.points() if b >= a_r}
            card = shape.n - shape.encode(a_r)
            assert len(shd) == card
            assert shadow_card_of_leq_prefix(shape, bound, r) == card


def test_unranking_huge_box_without_enumeration():
    shape = BoxShape((31623, 31623))
    assert shape.n == 31623**2
    top = DegreeBand(-1, shape.k)
    assert band_size(shape, top) == shape.n
    assert nth_band_element(shape, top, 1) == (31622, 31622)
    assert nth_band_element(shape, top, 2) == (31622, 31621)
    assert nth_band_element(shape, top, shape.n) == (0, 0)
    assert lex_rank_in_leq(shape, shape.k, (31622, 31622)) == 1
    assert lex_rank_in_leq(shape, shape.k, (0, 0)) == shape.n
    assert shadow_card_of_leq_prefix(shape, shape.k, 1) == 1
    assert shadow_card_of_leq_prefix(shape, shape.k, 2) == 2
    sliver = DegreeBand(5, 6)
    assert band_size(shape, sliver) == 7
    assert nth_band_element(shape, sliver, 1) == (6, 0)
    assert nth_band_element(shape, sliver, 7) == (0, 6)


# every box with sides <= 5 at m <= 3 and with sides <= 3 at m = 4, each once
SMALL_BOXES = [
    BoxShape(sizes)
    for m, top in ((1, 5), (2, 5), (3, 5), (4, 3))
    for sizes in itertools.combinations_with_replacement(range(1, top + 1), m)
]


def unrank_branches(shape, band, a):
    """The branches that unranking a takes, read off a alone: a digit at or
    below the lower cut left for it is found by the fallback bisection of F;
    any other digit v is hi - t for the least t with S(t) >= target, found in
    the table unless t is past the table's top index, one more than the top
    degree of the box after the digit."""
    lo, hi, taken = band.u2, band.u1, set()
    for i, v in enumerate(a):
        top = sum(shape.d[i + 1 :]) - (shape.m - i - 1) + 1
        taken.add("fallback" if v <= lo else "past the top" if hi - v > top else "table")
        lo, hi = lo - v, hi - v
    return taken


def test_unranking_matches_the_walk_on_every_small_band():
    taken = Counter()
    for shape in SMALL_BOXES:
        for band in all_bands(shape):
            for r, a in enumerate(iter_band(shape, band), start=1):
                assert nth_band_element(shape, band, r) == a, (shape, band, r)
                taken.update(unrank_branches(shape, band, a))
    assert set(taken) == {"fallback", "table", "past the top"}, taken


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
def test_rank_and_unrank_round_trip_on_every_band(sizes):
    shape = BoxShape(sizes)
    points = sorted(shape.points(), reverse=True)
    for u1 in range(shape.k + 1):
        leq = [a for a in points if sum(a) <= u1]
        for s, a in enumerate(leq, start=1):
            assert lex_rank_in_leq(shape, u1, a) == s
        for u2 in range(-1, u1):
            band = DegreeBand(u2, u1)
            members = [a for a in leq if sum(a) > u2]
            assert members == list(iter_band(shape, band))
            assert band_size(shape, band) == len(members)
            for r, a in enumerate(members, start=1):
                assert nth_band_element(shape, band, r) == a


# huge boxes, each with a few seeded bands (u2, u1]
IE_SHAPES = [(31623, 31623), (1000, 1000, 1000), (2,) * 40, (7, 13, 101, 997)]


@pytest.mark.parametrize("sizes", IE_SHAPES, ids=["31623^2", "1000^3", "2^40", "7x13x101x997"])
def test_ranks_on_huge_boxes_match_inclusion_exclusion(sizes):
    shape = BoxShape(sizes)
    rng = Random(repr(sizes))
    for _ in range(8):
        u2 = rng.randrange(-1, shape.k)
        u1 = rng.randrange(u2 + 1, shape.k + 1)
        band = DegreeBand(u2, u1)
        size = brute.ie_count_leq(shape.d, u1) - brute.ie_count_leq(shape.d, u2)
        assert band_size(shape, band) == size
        for r in (1, size, rng.randint(1, size), rng.randint(1, size)):
            a = nth_band_element(shape, band, r)
            assert shape.contains(a) and u2 < sum(a) <= u1
            assert brute.ie_rank(shape.d, u2, u1, a) == r
            assert lex_rank_in_leq(shape, u1, a) == brute.ie_rank(shape.d, -1, u1, a)
