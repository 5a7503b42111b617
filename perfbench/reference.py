"""The benchmark's own routes to the expected outputs.

Nothing here imports rghw.  Small boxes are enumerated outright; ranks in
huge boxes are counted in closed form by inclusion-exclusion over the box
sides, which shares no code or method with the suffix-histogram tables
that rghw.boxcomb ranks against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, prod


def box_points(sizes):
    return itertools.product(*(range(s) for s in sizes))


def brute_band(sizes, u2, u1):
    """Band members (u2, u1] of the box, in descending lexicographic order."""
    return sorted((a for a in box_points(sizes) if u2 < sum(a) <= u1), reverse=True)


def encode(sizes, a):
    out = 0
    for s, x in zip(sizes, a):
        out = out * s + x
    return out


def count_leq(sides, t):
    """Points of the box over `sides` with degree <= t.

    Points with degree <= t of the unbounded orthant number C(t + k, k);
    inclusion-exclusion removes those with some coordinate >= its side.
    Equal sides are grouped so that (2,)*40 costs 41 terms, not 2**40.
    """
    if t < 0:
        return 0
    sides = [s for s in sides if s != 1]  # a side of 1 adds no freedom
    k = len(sides)
    if k == 0:
        return 1
    groups = sorted(Counter(sides).items())
    total = 0
    for picks in itertools.product(*(range(mult + 1) for _, mult in groups)):
        cut = sum(j * side for j, (side, _) in zip(picks, groups))
        if cut > t:
            continue
        ways = prod(comb(mult, j) for j, (_, mult) in zip(picks, groups))
        sign = -1 if sum(picks) % 2 else 1
        total += sign * ways * comb(t - cut + k, k)
    return total


def count_band(sides, lo, hi):
    """Points of the box over `sides` with lo < degree <= hi."""
    return count_leq(sides, hi) - count_leq(sides, lo)


def count_lex_above(sizes, lo, hi, a):
    """Band points (lo, hi] of the box that are lexicographically above a.

    Such a point agrees with a before some coordinate i and exceeds a_i
    there; shifting that coordinate down by a_i + 1 turns each of these
    sets into a band of a smaller box.
    """
    total = 0
    prefix = 0
    for i, s in enumerate(sizes):
        if a[i] + 1 < s:
            shift = prefix + a[i] + 1
            sides = (s - a[i] - 1,) + tuple(sizes[i + 1 :])
            total += count_band(sides, lo - shift, hi - shift)
        prefix += a[i]
    return total


def weight_reference(sizes, u2, u1, a):
    """(r, s, M_r) of a band member a, counted without the library:
    r is its descending-lex rank in the band, s its rank among all points
    of degree <= u1, and M_r = n - enc(a) - s + r."""
    r = count_lex_above(sizes, u2, u1, a) + 1
    s = count_lex_above(sizes, -1, u1, a) + 1
    return r, s, prod(sizes) - encode(sizes, a) - s + r
