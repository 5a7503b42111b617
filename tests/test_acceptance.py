"""Acceptance battery: one test per release criterion, exact equalities only.

Each test prints a single `[acceptance] criterion N ...` line on success
(visible even under capture); a pytest failure is the fail line.  The
formula-vs-oracle sweep is computed once per session and shared.
"""

import itertools
import math
import random
import time
from operator import gt

import pytest

from brute import dominates, lex_prefix_of_slice, shadow_slice
from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    band_size,
    hierarchy,
    iter_band,
    iter_hierarchy,
    rghw,
    shadow,
)
from rghw.cli import run_footprint_sweep, run_verify_grid
from rghw.codes import build_code, build_grid, common_zero_count, maximal_family
from rghw.gf import Field
from rghw.oracle import oracle_rghw_support, oracle_rghw_window

ACCEPTANCE_QS = (2, 3, 4)
ACCEPTANCE_SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))
COMPRESSION_SHAPES = [BoxShape((2, 3)), BoxShape((3, 3)), BoxShape((2, 2, 2))]
SWEEP_SECONDS_CAP = 600
COMPRESSION_SECONDS_CAP = 300
WINDOW_SECONDS_CAP = 120
WEI_SECONDS_CAP = 60
M1_SECONDS_CAP = 60
ORDER_SECONDS_CAP = 60
FOOTPRINT_SEED = 20260816

# window-oracle grids beyond the sweep: (q, sizes, bands or None for all)
WINDOW_GRIDS = [
    (4, (3, 4), None),
    (4, (4, 4), None),
    (5, (4, 4), [DegreeBand(1, 4)]),
]

# Wei duality boxes: (sizes, the u to check, or None for every u)
WEI_BOXES = [
    ((2, 3), None),
    ((3, 3), None),
    ((4, 4), None),
    ((2, 2, 3), None),
    ((3, 5, 6), None),
    ((2,) * 12, None),
    ((100, 100), (0, 1, 50, 99, 100, 150, 197)),
]

# M_1 boxes beyond the random ones: n = 1.00001e9, m = 40 (n = 2^40) and k = 2997
M1_BOXES = [(31623, 31623), (2,) * 40, (1000, 1000, 1000)]
M1_RANDOM_BOXES = 100
M1_SEED = 20261020

# order-relation boxes of criterion 12: sides 1..6, m <= 4
ORDER_BOXES = 400
ORDER_SEED = 20261021

# attainment spot checks on grids beyond the oracle range, up to n = 10^4
ATTAINMENT_SPOTS = [
    (5, (4, 5), -1, 3, (1, 2, 3)),
    (5, (4, 5), 1, 5, (1, 2)),
    (8, (5, 8), 0, 4, (1, 3)),
    (9, (3, 9), 2, 6, (1, 2)),
    (4, (3, 4, 4), -1, 3, (1, 5)),
    (101, (100, 100), -1, 1, (1, 2, 3)),
    (101, (100, 100), 0, 3, (1, 2, 3)),
]


@pytest.fixture(scope="session")
def sweep():
    started = time.monotonic()
    rows, summary = run_verify_grid(ACCEPTANCE_QS, ACCEPTANCE_SHAPES)
    return rows, summary, time.monotonic() - started


@pytest.fixture
def report(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    return emit


def grid_n(row):
    n = 1
    for s in row["sizes"]:
        n *= s
    return n


def all_bands(shape):
    return [
        DegreeBand(u2, u1)
        for u1 in range(shape.k + 1)
        for u2 in range(-1, u1)
    ]


def slice_members(shape, u):
    return list(iter_band(shape, DegreeBand(u - 1, u)))


def subsets_of(items):
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


def test_criterion_1_formula_matches_support_oracle(sweep, report):
    rows, summary, elapsed = sweep
    assert rows, "empty sweep"
    assert summary["mismatch"] == 0
    for row in rows:
        if row["support"] is not None:
            assert row["support"] == row["formula"], row
        else:
            assert grid_n(row) > 8, f"oracle skipped on a small grid: {row}"
    assert elapsed < SWEEP_SECONDS_CAP
    confirmed = sum(1 for row in rows if row["support"] is not None)
    report(
        f"[acceptance] criterion 1 formula == support oracle: PASS "
        f"({confirmed}/{len(rows)} tuples confirmed, 0 mismatches, {elapsed:.1f}s)"
    )


def test_criterion_2_formula_matches_window_oracle(sweep, report):
    rows, _, _ = sweep
    checked = 0
    for row in rows:
        if grid_n(row) <= 9:
            assert row["window"] is not None, row
            assert row["window"] == row["formula"], row
            checked += 1
    assert checked
    report(
        f"[acceptance] criterion 2 formula == window oracle (n <= 9): PASS "
        f"({checked} tuples)"
    )


def test_criterion_3_maximal_families_attain_the_weight(sweep, report):
    rows, _, _ = sweep
    for row in rows:
        assert row["attainment"] == row["formula"], row
    spot_count = 0
    for q, sizes, u2, u1, ranks in ATTAINMENT_SPOTS:
        grid = build_grid(Field(q), sizes)
        shape = grid.shape
        band = DegreeBand(u2, u1)
        for r in ranks:
            family = maximal_family(grid, band, r)
            attained = shape.n - common_zero_count(family, grid)
            expected = rghw(WeightQuery(shape, band, r)).m_r
            assert attained == expected, (q, sizes, u2, u1, r)
            spot_count += 1
    report(
        f"[acceptance] criterion 3 maximal families attain M_r: PASS "
        f"({len(rows)} sweep tuples + {spot_count} spot checks up to n = 10000)"
    )


def test_criterion_4_shadow_compression_battery(report):
    started = time.monotonic()
    checks = 0

    for shape in COMPRESSION_SHAPES:
        k = shape.k

        # compressing a degree slice to its lex prefix shrinks shadows:
        # slice shadow of the prefix sits inside the prefix of the slice
        # shadow, degree by degree, and full shadows only lose points.
        for u in range(k + 1):
            fu = slice_members(shape, u)
            for S in subsets_of(fu):
                L = lex_prefix_of_slice(shape, u, len(S))
                for v in range(u, k + 1):
                    upstairs = shadow_slice(shape, S, v)
                    lhs = shadow_slice(shape, L, v)
                    rhs = set(lex_prefix_of_slice(shape, v, len(upstairs)))
                    assert lhs <= rhs, (shape, u, v, S)
                    assert len(lhs) <= len(upstairs)
                    checks += 1
                assert len(shadow(shape, L)) <= len(shadow(shape, S))

        # the lex-closest lower-degree point is dominated by the original
        for u in range(k):
            fu = slice_members(shape, u)
            for v in range(u + 1, k + 1):
                for y in slice_members(shape, v):
                    below = [f for f in fu if f <= y]
                    assert below, (shape, u, v, y)
                    assert dominates(max(below), y) and max(below) != y
                    checks += 1

        for band in all_bands(shape):
            members = list(iter_band(shape, band))
            for r in range(1, len(members) + 1):
                N = members[:r]
                N_top = [a for a in N if sum(a) == band.u1]

                # per-degree structure of the band prefix
                for u in range(band.u2 + 1, band.u1 + 1):
                    N_u = [a for a in N if sum(a) == u]
                    fu = slice_members(shape, u)
                    assert N_u == fu[: len(N_u)]  # slice part is a slice prefix
                    star = lex_prefix_of_slice(
                        shape, u, min(len(N_u) + 1, len(fu))
                    )
                    assert shadow_slice(shape, N_u, band.u1) <= set(N_top)
                    assert set(N_top) <= shadow_slice(shape, star, band.u1)
                    checks += 1

                # shadow size splits off the top-degree part
                if band.u2 < band.u1 - 1:
                    split = r - len(N_top) + len(shadow(shape, N_top))
                    assert len(shadow(shape, N)) == split
                    checks += 1

                # the band prefix minimizes shadows over all same-size subsets
                prefix_card = len(shadow(shape, N))
                cards = [
                    len(shadow(shape, S))
                    for S in itertools.combinations(members, r)
                ]
                assert all(prefix_card <= c for c in cards)
                assert shape.n - prefix_card == max(shape.n - c for c in cards)
                checks += len(cards)

    elapsed = time.monotonic() - started
    assert elapsed < COMPRESSION_SECONDS_CAP
    report(
        f"[acceptance] criterion 4 shadow compression battery: PASS "
        f"({checks} exhaustive checks on 3 shapes, {elapsed:.1f}s)"
    )


def test_criterion_5_footprint_bound_on_random_families(report):
    total = 0
    for q in (2, 3, 4):
        checked, violations = run_footprint_sweep(q, 1000, FOOTPRINT_SEED)
        assert checked == 1000
        assert violations == [], f"q={q}: {violations[:3]}"
        total += checked
    report(
        f"[acceptance] criterion 5 footprint bound on random families: PASS "
        f"({total} families, 0 violations)"
    )


def test_criterion_6_frozen_hierarchies(report):
    first = [
        rec.m_r
        for rec in hierarchy(BoxShape((2, 2)), DegreeBand(-1, 1)).records
    ]
    assert first == [2, 3, 4]
    second = [
        rec.m_r
        for rec in hierarchy(BoxShape((2, 3)), DegreeBand(0, 2)).records
    ]
    assert second == [2, 3, 4, 5]
    report(
        "[acceptance] criterion 6 frozen hierarchies: PASS "
        "((2,2) u1=1 u2=-1 -> 2,3,4; (2,3) u1=2 u2=0 -> 2,3,4,5)"
    )


def test_criterion_7_grid_choice_invariance(report):
    field = Field(4)
    shape = BoxShape((2, 3))
    grids = {
        policy: build_grid(field, (2, 3), policy=policy)
        for policy in ("first", "last")
    }
    assert grids["first"].subsets != grids["last"].subsets
    tuples = 0
    for band in all_bands(shape):
        values = {}
        for policy, grid in grids.items():
            c1 = build_code(grid, band.u1)
            c2 = build_code(grid, band.u2) if band.u2 >= 0 else None
            values[policy] = [
                oracle_rghw_support(c1, c2, r, None).value
                for r in range(1, band_size(shape, band) + 1)
            ]
        formula = [rec.m_r for rec in hierarchy(shape, band).records]
        assert values["first"] == values["last"] == formula, band
        tuples += len(formula)
    report(
        f"[acceptance] criterion 7 grid choice invariance on GF(4) (2,3): PASS "
        f"({tuples} ranks, first == last == formula)"
    )


def test_criterion_8_hierarchy_bounds_and_monotonicity(report):
    bands = 0
    for sizes in ACCEPTANCE_SHAPES:
        shape = BoxShape(sizes)
        for band in all_bands(shape):
            ws = [rec.m_r for rec in hierarchy(shape, band).records]
            assert ws[0] >= 1
            assert all(a < b for a, b in zip(ws, ws[1:]))
            assert ws[-1] <= shape.n
            if band.u2 == -1 and band.u1 == shape.k:
                assert ws[-1] == shape.n
            bands += 1
    report(
        f"[acceptance] criterion 8 strict hierarchy bounds: PASS "
        f"({bands} bands over {len(ACCEPTANCE_SHAPES)} shapes)"
    )


def test_criterion_9_formula_matches_window_oracle_beyond_the_sweep(report):
    started = time.monotonic()
    ranks = 0
    for q, sizes, bands in WINDOW_GRIDS:
        grid = build_grid(Field(q), sizes)
        shape = grid.shape
        codes = {u: build_code(grid, u) for u in range(shape.k + 1)}
        for band in bands or all_bands(shape):
            c2 = codes[band.u2] if band.u2 >= 0 else None
            for rec in hierarchy(shape, band).records:
                result = oracle_rghw_window(codes[band.u1], c2, rec.r)
                assert result.value == rec.m_r, (q, sizes, band, rec.r)
                ranks += 1
    assert ranks == 350
    elapsed = time.monotonic() - started
    assert elapsed < WINDOW_SECONDS_CAP
    report(
        f"[acceptance] criterion 9 formula == window oracle on GF(4) (3,4), "
        f"GF(4) (4,4) and GF(5) (4,4) band (1,4]: PASS ({ranks} ranks, {elapsed:.1f}s)"
    )


def test_criterion_10_wei_duality_partitions_the_positions(report):
    # C(u)^perp is a coordinate scaling of C(k-1-u), which keeps supports, and
    # Wei's duality (IEEE T-IT 1991) says {d_r(C)} and {n+1-d_r(C^perp)}
    # partition {1..n}: no oracle, so it reaches n = 10^4.
    started = time.monotonic()
    pairs = 0
    for sizes, us in WEI_BOXES:
        shape = BoxShape(sizes)
        for u in us or range(shape.k):
            primal = [rec.m_r for rec in iter_hierarchy(shape, DegreeBand(-1, u))]
            dual_band = DegreeBand(-1, shape.k - 1 - u)
            dual = [shape.n + 1 - rec.m_r for rec in iter_hierarchy(shape, dual_band)]
            assert sorted(primal + dual) == list(range(1, shape.n + 1)), (sizes, u)
            pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < WEI_SECONDS_CAP
    report(
        f"[acceptance] criterion 10 Wei duality partitions {{1..n}}: PASS "
        f"({pairs} (box, u) pairs on {len(WEI_BOXES)} boxes up to n = 10000, {elapsed:.1f}s)"
    )


def min_distance(sides, u):
    """d(C(u)) of the affine Cartesian code on a box, for 0 <= u <= k, from
    the sides alone (López, Rentería-Márquez, Villarreal, "Affine Cartesian
    codes", Des. Codes Cryptogr. 71, 2014): with d_1 <= ... <= d_m and
    u = (d_1 - 1) + ... + (d_s - 1) + l, 1 <= l <= d_{s+1} - 1, it is
    (d_{s+1} - l) d_{s+2} ... d_m, and n for u = 0, which is l = 0 here."""
    d = sorted(sides)
    for s, side in enumerate(d):
        if u < side:
            return (side - u) * math.prod(d[s + 1 :])
        u -= side - 1
    raise ValueError("u above the top degree")


def m1_bands(sides, rng):
    """(u2, u1) of criterion 11.  Every band when k <= 40.  Past that,
    u2 = -1, 0, u1 // 2 and u1 - 1 for each u1: every u1 up to k = 3000,
    and beyond it the degrees next to each turnover of s, 0, k and 500 at
    random."""
    d = sorted(sides)
    k = sum(d) - len(d)
    if k <= 3000:
        degrees = range(k + 1)
    else:
        degrees, base = {0, k}, 0
        for side in d:
            degrees |= {base + j for j in (-1, 0, 1, 2) if 0 <= base + j <= k}
            base += side - 1
        degrees = sorted(degrees | {rng.randint(0, k) for _ in range(500)})
    for u1 in degrees:
        lows = range(-1, u1) if k <= 40 else {-1, 0, u1 // 2, u1 - 1} - {u1}
        for u2 in sorted(lows):
            yield u2, u1


def test_criterion_11_first_relative_weight_is_the_minimum_distance(report):
    # A minimum-weight word of C(u1) is a product of linear factors of
    # degree u1 > u2, so it lies outside C(u2): M_1(C(u1), C(u2)) = d(C(u1))
    # on every band.  d comes from the sides alone, with no boxcomb call.
    started = time.monotonic()
    rng = random.Random(M1_SEED)
    boxes = [
        tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 6)))
        for _ in range(M1_RANDOM_BOXES)
    ] + M1_BOXES
    checks = 0
    for sides in boxes:
        shape = BoxShape(sides)
        for u2, u1 in m1_bands(sides, rng):
            m_1 = rghw(WeightQuery(shape, DegreeBand(u2, u1), 1)).m_r
            assert m_1 == min_distance(sides, u1), (sides, u2, u1)
            checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < M1_SECONDS_CAP
    report(
        f"[acceptance] criterion 11 M_1 == d(C(u1)): PASS "
        f"({checks} bands on {len(boxes)} boxes up to n = 2^40 and m = 40, {elapsed:.1f}s)"
    )


def leq_counts(sides):
    """dim C(u) for u = 0..k, the number of box points of degree <= u, from
    the sides alone: the degree counts are the coefficients of
    prod (1 + x + ... + x^(d_i - 1))."""
    counts = [1]
    for side in sides:
        counts = [
            sum(counts[t - j] for j in range(side) if 0 <= t - j < len(counts))
            for t in range(len(counts) + side - 1)
        ]
    return list(itertools.accumulate(counts))


def test_criterion_12_order_relations(report):
    # From the definition of M_r(C1, C2), the least support of an
    # r-dimensional subspace of C1 meeting C2 only in 0:
    #   (a) M_r(C1, C2) <= M_r(C1, C2') for C2 = C(u2) in C2' = C(u2 + 1);
    #   (b) M_r(C1', C2) <= M_r(C1, C2) for C1 = C(u1) in C1' = C(u1 + 1);
    #   (c) d_r(C1) = M_r(C1, 0) <= M_r(C1, C2), the u2 = -1 form against
    #       the relative one;
    #   (d) M_r(C1, C2) <= n - dim C1 + r, with dim C1 from the sides alone.
    # Steps of one degree cover every u2 < u2' and u1 < u1' by transitivity.
    started = time.monotonic()
    rng = random.Random(ORDER_SEED)
    checks = failed = 0
    first = None
    for _ in range(ORDER_BOXES):
        sides = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        shape = BoxShape(sides)
        n, k, dims = shape.n, shape.k, leq_counts(sides)
        weights = {
            (band.u2, band.u1): [rec.m_r for rec in iter_hierarchy(shape, band)]
            for band in all_bands(shape)
        }
        for (u2, u1), ws in weights.items():
            top = n - dims[u1]
            for check, lo, hi in (
                ("a", ws, weights.get((u2 + 1, u1), ())),
                ("b", weights.get((u2, u1 + 1), ()), ws),
                ("c", weights[-1, u1], ws),
                ("d", ws, range(top + 1, top + 1 + len(ws))),
            ):
                bad = sum(map(gt, lo, hi))  # lo <= hi for each r both bands reach
                checks += min(len(lo), len(hi))
                if bad and first is None:
                    first = (sides, u2, u1, check)
                failed += bad
    assert failed == 0, f"{failed} of {checks} order checks failed; first (sides, u2, u1, check) {first}"
    elapsed = time.monotonic() - started
    assert elapsed < ORDER_SECONDS_CAP
    report(
        f"[acceptance] criterion 12 order relations of M_r in u1 and u2, d_r <= M_r "
        f"<= n - dim C1 + r: PASS ({checks} checks on {ORDER_BOXES} boxes, {elapsed:.1f}s)"
    )
