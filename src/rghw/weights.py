"""Closed-form relative generalized Hamming weights of nested Cartesian codes.

For the nested pair with degree bounds u1 > u2 (u2 = -1 meaning the zero
subcode, i.e. plain generalized Hamming weights), the r-th relative
weight over the box d_1 <= ... <= d_m is

    M_r = d_1*...*d_m - encode(a_r) - s + r

where a_r is the r-th element of the degree band (u2, u1] in descending
lexicographic order, encode is the mixed-radix encoding sum(a_i *
prod(d_j, j > i)), and s is the 1-based descending-lex rank of a_r among
all box points of degree <= u1.  Everything here is pure box
combinatorics: no field, no grid, no enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boxcomb import (
    BoxShape,
    DegreeBand,
    _rank_in_leq,
    band_size,
    check_band,
    nth_band_element,
)
from .errors import RankOutOfRange


@dataclass(frozen=True)
class WeightQuery:
    shape: BoxShape
    band: DegreeBand
    r: int

    def __post_init__(self):
        size = band_size(self.shape, self.band)
        if not 1 <= self.r <= size:
            raise RankOutOfRange(
                f"r = {self.r} outside 1..{size} for band {self.band} in box {self.shape.d}"
            )


@dataclass(frozen=True)
class WeightRecord:
    """One hierarchy row: rank, band element, its rank s among deg <= u1,
    the weight, and n - weight (the attained maximum of common zeros).
    `oracle` is None until an oracle confirmation is attached."""

    r: int
    a_r: tuple
    s: int
    m_r: int
    max_zeros: int
    oracle: int | None = None


@dataclass(frozen=True)
class WeightReport:
    shape: BoxShape
    band: DegreeBand
    records: tuple


def _record(shape: BoxShape, u1: int, r: int, a_r: tuple) -> WeightRecord:
    s = _rank_in_leq(shape.d, u1, a_r)
    n = shape.n
    m_r = n - shape.encode(a_r) - s + r
    return WeightRecord(r=r, a_r=a_r, s=s, m_r=m_r, max_zeros=n - m_r)


def rghw(query: WeightQuery) -> WeightRecord:
    shape, band, r = query.shape, query.band, query.r
    return _record(shape, band.u1, r, nth_band_element(shape, band, r))


def max_zeros(query: WeightQuery) -> int:
    return rghw(query).max_zeros


def iter_hierarchy(shape: BoxShape, band: DegreeBand) -> Iterator[WeightRecord]:
    """The records r = 1, 2, ..., l one at a time, holding none of them.

    The band is walked in descending lexicographic order by successor:
    the rightmost digit that can drop by one and still leave degree
    above u2 for the digits after it drops, and those digits refill
    greedily up to u1.  A step costs O(m), and so does each rank s.
    """
    check_band(shape, band)
    d, u2, u1 = shape.d, band.u2, band.u1
    top_degree_after = [sum(d[i + 1 :]) - len(d[i + 1 :]) for i in range(len(d))]
    a = [0] * len(d)
    i, prefix, r = -1, 0, 1
    while True:
        for j in range(i + 1, len(d)):
            a[j] = min(d[j] - 1, u1 - prefix)
            prefix += a[j]
        yield _record(shape, u1, r, tuple(a))
        for i in range(len(d) - 1, -1, -1):
            prefix -= a[i]
            if a[i] and prefix + a[i] - 1 + top_degree_after[i] > u2:
                break
        else:
            return
        a[i] -= 1
        prefix += a[i]
        r += 1


def hierarchy(shape: BoxShape, band: DegreeBand) -> WeightReport:
    """All l = band_size records, r = 1..l."""
    return WeightReport(shape=shape, band=band, records=tuple(iter_hierarchy(shape, band)))
