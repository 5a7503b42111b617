"""Independent brute-force helpers for the test suite.

Everything here recomputes expected values from definitions, sharing no
algorithmic shortcuts with the package: shadows by domination scans,
ranks by sorting full enumerations, subspace minima by enumerating all
coefficient matrices.  Slow on purpose; only run on tiny inputs.  Three
parts differ: the inclusion-exclusion band counts reach huge boxes in
closed form (and still share nothing with the package's rank tables);
the slice helpers, which the shadow-compression tests use, are built on
the package's own `shadow`, `iter_band` and `nth_band_element`; and the
families route at the end, the reference that checks the common-zeros
statement directly, is built on the package's coset enumeration
(`rghw.oracle._coset_masks`), digit expansion (`rghw.gf.digits`)
and budget.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, prod

from rghw.boxcomb import DegreeBand, iter_band, nth_band_element, shadow
from rghw.codes import MultiPoly
from rghw.errors import RghwError
from rghw.gf import PackedVectors, digits
from rghw.oracle import OracleBudget, OracleResult, _coset_masks, _Meter


def box_points(d):
    return list(itertools.product(*(range(s) for s in d)))


def dominates(a, b):
    """b dominates a coordinatewise."""
    return all(x <= y for x, y in zip(a, b))


def brute_shadow(d, pts):
    pts = list(pts)
    return {b for b in box_points(d) if any(dominates(a, b) for a in pts)}


def brute_footprint(d, pts):
    shd = brute_shadow(d, pts)
    return {b for b in box_points(d) if b not in shd}


def brute_band(d, u2, u1):
    """Band members in descending lexicographic order."""
    return sorted((a for a in box_points(d) if u2 < sum(a) <= u1), reverse=True)


# -- band counts by inclusion-exclusion -------------------------------------------


def ie_count_leq(sides, t):
    """Points of the box over `sides` with degree <= t.

    The orthant has C(t + m, m) points of degree <= t; inclusion-exclusion
    takes out those with some coordinate at or past its side.  Equal sides
    are grouped, so (2,)*40 costs 41 terms and not 2**40.
    """
    if t < 0:
        return 0
    m = len(sides)
    groups = sorted(Counter(sides).items())
    total = 0
    for picks in itertools.product(*(range(mult + 1) for _, mult in groups)):
        cut = sum(j * side for j, (side, _) in zip(picks, groups))
        if cut <= t:
            ways = prod(comb(mult, j) for j, (_, mult) in zip(picks, groups))
            total += (-1) ** sum(picks) * ways * comb(t - cut + m, m)
    return total


def ie_rank(sides, u2, u1, a):
    """1-based descending-lex rank of a among the points with u2 < deg <= u1.

    A point above a agrees with it before some coordinate i and exceeds a_i
    there; shifting coordinate i down by a_i + 1 makes each such set a
    band of the box (side_i - a_i - 1, sides after i)."""
    above = 0
    prefix = 0
    for i, (side, x) in enumerate(zip(sides, a)):
        shift = prefix + x + 1
        rest = (side - x - 1,) + tuple(sides[i + 1 :])
        above += ie_count_leq(rest, u1 - shift) - ie_count_leq(rest, u2 - shift)
        prefix += x
    return above + 1


def brute_eval(field, terms, point):
    total = 0
    for exp, c in terms.items():
        v = c
        for x, e in zip(point, exp):
            for _ in range(e):
                v = field.mul(v, x)
        total = field.add(total, v)
    return total


def rank_gf(rows, field):
    """Row rank by plain Gaussian elimination, written independently of
    the package's rref."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [field.mul(inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [
                    field.add(x, field.neg(field.mul(c, y))) for x, y in zip(work[i], work[rank])
                ]
        rank += 1
    return rank


def all_codewords(gen_rows, field):
    """Every linear combination of the generator rows."""
    words = [tuple([0] * len(gen_rows[0]))] if gen_rows else [()]
    for row in gen_rows:
        words = [
            tuple(field.add(w[i], field.mul(c, row[i])) for i in range(len(row)))
            for c in range(field.q)
            for w in words
        ]
    return words


def support_size(vectors):
    width = len(vectors[0])
    return sum(1 for i in range(width) if any(v[i] for v in vectors))


def brute_min_support_subspaces(gen_rows, field, r, forbidden_rows=()):
    """Min support over all r-dim subspaces of the span of gen_rows whose
    intersection with span(forbidden_rows) is trivial.  Enumerates every
    r-tuple of codewords; exponential, tiny inputs only."""
    words = [w for w in all_codewords(list(gen_rows), field) if any(w)]
    best = None
    forbidden = list(forbidden_rows)
    for combo in itertools.combinations(words, r):
        if rank_gf(list(combo), field) != r:
            continue
        if forbidden and rank_gf(list(combo) + forbidden, field) != r + rank_gf(forbidden, field):
            continue
        size = support_size(list(combo))
        if best is None or size < best:
            best = size
    return best


# -- GF(q) reference: base-p digit vectors, schoolbook arithmetic --------------------


def _digits(field, a):
    return [(a // field.p**i) % field.p for i in range(field.e)]


def _from_digits(field, digits):
    return sum(d * field.p**i for i, d in enumerate(digits))


def brute_pack(field, vec, w):
    """The int with digit j of coordinate i of `vec` in w-bit slot
    j * len(vec) + i, the layout of rghw.gf.PackedVectors."""
    n = len(vec)
    return sum(d << (j * n + i) * w for i, a in enumerate(vec) for j, d in enumerate(_digits(field, a)))


def field_add(field, a, b):
    """Digit-wise sum mod p of the two encodings."""
    return _from_digits(
        field, [(x + y) % field.p for x, y in zip(_digits(field, a), _digits(field, b))]
    )


def field_neg(field, a):
    return _from_digits(field, [(-x) % field.p for x in _digits(field, a)])


def field_mul(field, a, b):
    """Schoolbook product of the digit polynomials, then long division by
    field.modulus (monic, degree e; empty for a prime field, where the
    product has degree 0 and needs no division)."""
    p, e = field.p, field.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(field, a)):
        for j, y in enumerate(_digits(field, b)):
            prod[i + j] += x * y
    for top in range(2 * e - 2, e - 1, -1):
        c = prod[top] % p
        for j, m in enumerate(field.modulus):
            prod[top - e + j] -= c * m
    return _from_digits(field, [x % p for x in prod[:e]])


def field_pow(field, a, n):
    """a^n for n >= 0 by square and multiply on field_mul."""
    result = 1
    while n:
        if n & 1:
            result = field_mul(field, result, a)
        a = field_mul(field, a, a)
        n >>= 1
    return result


# -- slice helpers ------------------------------------------------------------------


def cmp_lex(a, b):
    """-1, 0 or 1 as a is lexicographically below, equal to, or above b."""
    if len(a) != len(b):
        raise RghwError(f"points {a!r} and {b!r} have different arity")
    if a == b:
        return 0
    return -1 if a < b else 1


def shadow_slice(shape, points, u):
    """Degree-u part of the shadow; empty beyond the box degrees."""
    return {a for a in shadow(shape, points) if sum(a) == u}


def footprint_slice(shape, points, u):
    if u < 0 or u > shape.k:
        return set()
    shd = shadow(shape, points)
    return {a for a in shape.points() if sum(a) == u and a not in shd}


def lex_prefix_of_slice(shape, u, count):
    """First `count` members of the degree-u slice, descending lexicographic."""
    members = list(iter_band(shape, DegreeBand(u - 1, u)))
    if count < 0 or count > len(members):
        raise RghwError(f"count = {count} outside 0..{len(members)} for slice deg = {u}")
    return members[:count]


def shadow_card_of_leq_prefix(shape, deg_bound, r):
    """|shadow of the first r elements of {deg <= deg_bound} desc-lex|,
    by the closed formula n - encode(a_r)."""
    a_r = nth_band_element(shape, DegreeBand(-1, deg_bound), r)
    return shape.n - shape.encode(a_r)


# -- families route ---------------------------------------------------------------


def _maximal_masks(masks: dict) -> list:
    """Drop masks strictly contained in another; supersets dominate when
    maximizing the popcount of an AND."""
    items = sorted(masks.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    kept: list = []
    for mask, enc in items:
        if any(mask | other == other for other, _ in kept):
            continue
        kept.append((mask, enc))
    return kept


def oracle_max_zeros_families(
    grid,
    band: DegreeBand,
    r: int,
    budget: OracleBudget | None = None,
    prune: bool = True,
) -> OracleResult:
    """Exact max of |common grid zeros| over families f_1..f_r of monic
    polynomials with distinct leading exponents of band degree (lower
    terms free).  n - value cross-checks the weight formula.  The slot of
    leading exponent t is the coset x^t + span(box monomials before t in
    graded lex), kept as {zero mask: first encoding reaching it}."""
    shape, field = grid.shape, grid.field
    members = list(iter_band(shape, band))
    if not 1 <= r <= len(members):
        raise RghwError(f"r = {r} outside 1..{len(members)}")
    meter = _Meter(budget or OracleBudget())
    glex = [
        e for t in range(shape.k + 1)
        for e in reversed(list(iter_band(shape, DegreeBand(t - 1, t))))
    ]
    glex_rank = {e: i for i, e in enumerate(glex)}
    packing = PackedVectors(field.p, field.e, shape.n)
    full = packing.full

    slots = []
    for t in members:
        gens = [grid.monomial_values(mu) for mu in glex[: glex_rank[t]]]
        base = grid.monomial_values(t)
        zero_masks: dict = {}  # in order of first encoding
        for enc, support in enumerate(_coset_masks(field, packing, base, gens, meter)):
            zero_masks.setdefault(full ^ support, enc)
        slots.append(_maximal_masks(zero_masks) if prune else list(zero_masks.items()))

    best = -1
    best_pick: list = []

    for combo in itertools.combinations(range(len(members)), r):
        pick: list = []

        def descend(depth: int, current: int) -> None:
            nonlocal best, best_pick
            for mask, enc in slots[combo[depth]]:
                meter.spend()
                if prune and mask.bit_count() <= best:
                    break
                merged = current & mask
                if prune and merged.bit_count() <= best:
                    continue
                pick.append((combo[depth], enc))
                if depth + 1 == r:
                    total = merged.bit_count()
                    if total > best:
                        best = total
                        best_pick = list(pick)
                else:
                    descend(depth + 1, merged)
                pick.pop()

        descend(0, full)

    witnesses = []
    for idx, enc in best_pick:
        t = members[idx]
        lower = glex[: glex_rank[t]]
        terms = {t: 1, **dict(zip(lower, digits(enc, field.q, len(lower))))}
        witnesses.append(MultiPoly(field, shape, terms))
    return OracleResult(
        value=best,
        witnesses=tuple(witnesses),
        states_explored=meter.states,
        method="families",
    )
