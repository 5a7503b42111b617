"""Combinatorics of the exponent box F = {0..d_1-1} x ... x {0..d_m-1}.

A BoxShape holds the sides sorted, d_1 <= ... <= d_m, as the paper states
every weight; the order they were given in is `CartesianGrid.permutation`.
Points are plain int tuples, under the coordinatewise partial order (a <= b
in every coordinate) and the lexicographic order.  deg(a) = a_1 + ... + a_m;
the degree band (u2, u1] is the set of box points with u2 < deg(a) <= u1,
where -1 <= u2 < u1 <= k = sum(d_i - 1).

The shadow of a set S is its upward closure under the partial order;
the footprint is the complement of the shadow in the box.  A band is
walked in descending-lex order by successor, O(m) a point.  Ranking, in
O(m), and unranking count digit by digit against one cached table per
shape of second-order degree sums, never enumerating the box: a digit is
unranked by one C-level bisection of the table, and by a key bisection
over [0, v] only where it is at or below the lower cut left for it.

For the nested pair with degree bounds u1 > u2 (u2 = -1: the zero
subcode, i.e. generalized Hamming weights), the r-th relative weight is

    M_r = d_1*...*d_m - encode(a_r) - s + r

where a_r is the r-th element of the band (u2, u1] in descending lex
order, encode(a) = sum(a_i * prod(d_j, j > i)), the mixed-radix encoding,
and s is the 1-based descending-lex rank of a_r among all box points of
degree <= u1.  For u2 = -1 the band is all of {deg <= u1}, so s = r and
M_r = n - encode(a_r): only a relative band looks s up.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .errors import RghwError, as_tuple, check_int, shown

BoxPoint = tuple  # int tuples; validated against a BoxShape at API boundaries


class BoxShape(NamedTuple("BoxShape", [("d", tuple)])):
    """The sides d of the exponent box, sorted ascending from `sizes`."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace calls it

    def __new__(cls, sizes: Iterable[int]):
        sizes = as_tuple(sizes, "box sides")
        if not sizes:
            raise RghwError("a box needs at least one coordinate")
        for s in sizes:
            check_int(s, 1, None, "box side {} is not a positive int")
        return super().__new__(cls, tuple(sorted(sizes)))

    @property
    def m(self) -> int:
        return len(self.d)

    @property
    def n(self) -> int:
        return prod(self.d)

    @property
    def k(self) -> int:
        return sum(self.d) - self.m

    def contains(self, a: BoxPoint) -> bool:
        shaped = type(a) is tuple and len(a) == len(self.d)
        return shaped and all(type(x) is int and 0 <= x < s for x, s in zip(a, self.d))

    def require_point(self, a: BoxPoint, what: str = "point") -> None:
        if not self.contains(a):
            raise RghwError(f"{what} {shown(a)} outside box {self.d}")

    def encode(self, a: BoxPoint) -> int:
        """Mixed-radix encoding sum(a_i * prod(d_j, j>i)); the same sum the
        closed weight formula subtracts."""
        out = 0
        for s, x in zip(self.d, a):
            out = out * s + x
        return out

    def points(self) -> Iterator[BoxPoint]:
        """All box points, mixed-radix ascending (last coordinate fastest)."""
        return itertools.product(*(range(s) for s in self.d))

    def __repr__(self) -> str:
        return f"BoxShape{self.d}"


class DegreeBand(NamedTuple("DegreeBand", [("u2", int), ("u1", int)])):
    """Half-open degree window (u2, u1]; u2 = -1 means no lower cut."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace calls it

    def __new__(cls, u2: int, u1: int):
        if type(u2) is not int or type(u1) is not int:
            raise RghwError(f"band bounds u2 = {shown(u2)}, u1 = {shown(u1)} are not both ints")
        check_int(u2, -1, None, "u2 = {} < -1")
        check_int(u2, -1, u1 - 1, "empty band: u2 = {} >= u1 = {}", u1)
        return super().__new__(cls, u2, u1)


def check_band(shape: BoxShape, band: DegreeBand) -> None:
    check_int(band.u1, 0, shape.k, "u1 = {} > k = {hi} for box {}", shape.d)


# -- degree counting ------------------------------------------------------------


@lru_cache(maxsize=None)
def _sum_tables(d: tuple) -> tuple:
    """Second-order degree sums of the box over d[i+1:], for each i: with
    C(t) that box's number of points of degree <= t, the tuple S with S[t] =
    C(0) + ... + C(t) up to one past its top degree, past which S goes on
    linearly (`_sum`).  C(t) = S'(t) - S'(t - d_i) on the table S' of the box
    after it, so building costs O(m * k)."""
    tables = [(1, 2)]  # the empty box: C(t) = 1 for every t >= 0
    for side in reversed(d[1:]):
        prev = tables[-1]
        step = prev[-1] - prev[-2]
        ext = list(prev) + [prev[-1] + j * step for j in range(1, side)]
        cum = [ext[t] - (ext[t - side] if t >= side else 0) for t in range(len(ext))]
        tables.append(tuple(itertools.accumulate(cum)))
    return tuple(reversed(tables))


def _sum(tab: tuple, t: int) -> int:
    """S(t) of one table: 0 below degree 0, linear past the table's end."""
    if t < 0:
        return 0
    top = len(tab) - 1
    if t <= top:
        return tab[t]
    return tab[top] + (t - top) * (tab[top] - tab[top - 1])


def band_size(shape: BoxShape, band: DegreeBand) -> int:
    check_band(shape, band)
    tab, side = _sum_tables(shape.d)[0], shape.d[0]
    return (
        _sum(tab, band.u1) - _sum(tab, band.u1 - side)
        - _sum(tab, band.u2) + _sum(tab, band.u2 - side)
    )


def check_rank(shape: BoxShape, band: DegreeBand, r: int) -> None:
    """Raises RghwError unless r is an int in 1..band_size(shape, band)."""
    size = band_size(shape, band)
    check_int(r, 1, size, "r = {} outside 1..{hi} for band {} in box {}", band, shape.d)


def iter_band(shape: BoxShape, band: DegreeBand) -> Iterator[BoxPoint]:
    """Band members in descending lexicographic order, one at a time, by
    successor in O(m): the rightmost digit whose drop by one can still leave
    degree above u2 drops, and the digits after it refill greedily up to u1."""
    check_band(shape, band)
    d, u2, u1 = shape.d, band.u2, band.u1
    top_degree_after = [sum(d[i + 1 :]) - len(d[i + 1 :]) for i in range(len(d))]
    a = [0] * len(d)
    i, prefix = -1, 0
    while True:
        for j in range(i + 1, len(d)):
            a[j] = min(d[j] - 1, u1 - prefix)
            prefix += a[j]
        yield tuple(a)
        for i in range(len(d) - 1, -1, -1):
            prefix -= a[i]
            if a[i] and prefix + a[i] - 1 + top_degree_after[i] > u2:
                break
        else:
            return
        a[i] -= 1
        prefix += a[i]


def nth_band_element(shape: BoxShape, band: DegreeBand, r: int) -> BoxPoint:
    """The r-th member (1-based) of the band in descending lexicographic
    order.  With the prefix fixed and (lo, hi] the degrees left for the rest,
    the band points whose next digit is >= v number F(v) - F(d_i), where
    F(v) = S(hi - v) - S(lo - v) on the table of the box after the digit.
    The digit is the largest v with F(v) >= target = r + F(d_i).  S(lo - v)
    is 0 for v > lo, so v = hi - min{t : S(t) >= target} there: one bisection
    of the table.  Else F, which does not increase with v, is bisected on [0, v]."""
    check_rank(shape, band, r)
    return _nth_band_element(shape.d, band, r)


def _nth_band_element(d: tuple, band: DegreeBand, r: int) -> BoxPoint:
    """`nth_band_element` of a rank the caller has checked."""
    lo, hi = band.u2, band.u1
    out = []
    for tab, side in zip(_sum_tables(d), d):
        target = r + _sum(tab, hi - side) - _sum(tab, lo - side)
        t = bisect_left(tab, target)
        if t == len(tab):  # past the top, S goes up by tab[-1] - tab[-2] a degree
            t -= 1 + (tab[-1] - target) // (tab[-1] - tab[-2])
        v = hi - t
        if v <= lo:
            v = bisect_right(range(v + 1), -target, key=lambda v: _sum(tab, lo - v) - _sum(tab, hi - v)) - 1
        r = target - _sum(tab, hi - v - 1) + _sum(tab, lo - v - 1)
        out.append(v)
        lo, hi = lo - v, hi - v
    return tuple(out)


def lex_rank_in_leq(shape: BoxShape, u1: int, a: BoxPoint) -> int:
    """1-based rank of a within {deg <= u1} in descending lexicographic
    order, in O(m): the points above a that share its first i digits and
    exceed it at digit i are two lookups in the table after digit i."""
    shape.require_point(a)
    check_int(u1, sum(a), None, "deg{1} = {lo} > u1 = {0}", a)
    return _rank_in_leq(shape.d, u1, a)


def _rank_in_leq(d: tuple, u1: int, a: BoxPoint) -> int:
    """`lex_rank_in_leq` of a point the caller knows is in the box and of degree <= u1."""
    above = 0
    for tab, side, x in zip(_sum_tables(d), d, a):
        if x + 1 < side:
            above += _sum(tab, u1 - x - 1) - _sum(tab, u1 - side)
        u1 -= x
    return above + 1


# -- shadows and footprints ------------------------------------------------------


def shadow(shape: BoxShape, points: Iterable[BoxPoint]) -> set:
    """Upward closure of `points` in the box under the partial order."""
    seen = set()
    stack = []
    for a in as_tuple(points, "points"):
        shape.require_point(a)
        if a not in seen:
            seen.add(a)
            stack.append(a)
    while stack:
        a = stack.pop()
        for i in range(shape.m):
            if a[i] + 1 < shape.d[i]:
                b = a[:i] + (a[i] + 1,) + a[i + 1 :]
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
    return seen


def footprint(shape: BoxShape, points: Iterable[BoxPoint]) -> set:
    """Box points not dominating any member of `points`."""
    shd = shadow(shape, points)
    return {a for a in shape.points() if a not in shd}


# -- weight formula --------------------------------------------------------------


class WeightQuery(NamedTuple("WeightQuery", [("shape", BoxShape), ("band", DegreeBand), ("r", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace calls it

    def __new__(cls, shape: BoxShape, band: DegreeBand, r: int):
        check_rank(shape, band, r)
        return super().__new__(cls, shape, band, r)


class WeightRecord(NamedTuple):
    """One hierarchy row: rank, band element, its rank s among deg <= u1,
    the weight, and n - weight (the attained maximum of common zeros).
    `oracle` is None until an oracle confirmation is attached."""

    r: int
    a_r: tuple
    s: int
    m_r: int
    max_zeros: int
    oracle: int | None = None


class WeightReport(NamedTuple):
    shape: BoxShape
    band: DegreeBand
    records: tuple


def _records(shape: BoxShape, band: DegreeBand, ranked) -> Iterator[WeightRecord]:
    """The record of each (r, a_r) of `ranked`, O(m) each."""
    n, d, u1, encode = shape.n, shape.d, band.u1, shape.encode
    ghw = band.u2 == -1
    for r, a_r in ranked:
        s = r if ghw else _rank_in_leq(d, u1, a_r)
        m_r = n - encode(a_r) - s + r
        yield WeightRecord(r, a_r, s, m_r, n - m_r)


def rghw(query: WeightQuery) -> WeightRecord:
    shape, band, r = query.shape, query.band, query.r
    return next(_records(shape, band, [(r, _nth_band_element(shape.d, band, r))]))


def iter_hierarchy(shape: BoxShape, band: DegreeBand) -> Iterator[WeightRecord]:
    """The records r = 1, 2, ..., l one at a time, holding none of them."""
    return _records(shape, band, enumerate(iter_band(shape, band), 1))


def hierarchy(shape: BoxShape, band: DegreeBand) -> WeightReport:
    """All l = band_size records, r = 1..l."""
    return WeightReport(shape=shape, band=band, records=tuple(iter_hierarchy(shape, band)))
