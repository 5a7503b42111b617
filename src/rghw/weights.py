"""Closed-form relative generalized Hamming weights of nested Cartesian codes.

For the nested pair with degree bounds u1 > u2 (u2 = -1 meaning the zero
subcode, i.e. plain generalized Hamming weights), the r-th relative
weight over the box d_1 <= ... <= d_m is

    M_r = d_1*...*d_m - encode(a_r) - s + r

where a_r is the r-th element of the degree band (u2, u1] in descending
lexicographic order, encode is the mixed-radix encoding sum(a_i *
prod(d_j, j > i)), and s is the 1-based descending-lex rank of a_r among
all box points of degree <= u1.  For u2 = -1 the band is all of
{deg <= u1} in that same order, so s = r and M_r = n - encode(a_r): only
a relative band looks s up.  Everything here is pure box combinatorics:
no field, no grid, no enumeration.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .boxcomb import (
    BoxShape,
    DegreeBand,
    _nth_band_element,
    _rank_in_leq,
    check_rank,
    iter_band,
)


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
