import hashlib
import tracemalloc

import pytest

import brute
from rghw.boxcomb import BoxShape, DegreeBand, band_size, enumerate_band
from rghw.cli import DEFAULT_GRID_QS, DEFAULT_GRID_SHAPES
from rghw.codes import build_code, build_grid, membership, support_of_span
from rghw.errors import BudgetExceeded, InvalidNesting, RankOutOfRange
from rghw.gf import Field
from rghw.oracle import (
    OracleBudget,
    oracle_max_zeros_families,
    oracle_rghw_support,
    oracle_rghw_window,
)
from rghw.polynomials import common_zero_count
from rghw.weights import WeightQuery, rghw

F2 = Field(2)
F3 = Field(3)
F4 = Field(4)


def check_support_witness(result, c1, c2, r):
    """The returned rows must span a valid r-dim subspace of C1 meeting C2
    trivially, with support of the claimed size."""
    rows = list(result.witnesses)
    assert len(rows) == r
    for row in rows:
        assert membership(c1, row)
    field = c1.grid.field
    assert brute.rank_gf(rows, field) == r
    if c2 is not None:
        stacked = rows + list(c2.G)
        assert brute.rank_gf(stacked, field) == r + c2.dim
    assert len(support_of_span(rows)) == result.value


def check_window_witness(result, c1, c2, r):
    window = set(i - 1 for i in result.witnesses)
    assert len(window) == result.value
    field = c1.grid.field

    def window_dim(code):
        if code is None:
            return 0
        outside = [j for j in range(code.length) if j not in window]
        if not outside:
            return code.dim
        projected = [tuple(row[j] for j in outside) for row in code.G]
        return code.dim - brute.rank_gf(projected, field)

    assert window_dim(c1) - window_dim(c2) == r


def check_families_witness(result, grid, band, r):
    fams = list(result.witnesses)
    assert len(fams) == r
    exps = [f.leading_term().exponent for f in fams]
    assert len(set(exps)) == r
    members = set(enumerate_band(grid.shape, band))
    for f in fams:
        lt = f.leading_term()
        assert lt.coefficient == 1
        assert lt.exponent in members
    assert common_zero_count(fams, grid) == result.value


def test_support_frozen_example():
    grid = build_grid(F2, (2, 2))
    result = oracle_rghw_support(build_code(grid, 2), build_code(grid, 1), 1)
    assert result.value == 1
    assert result.witnesses == ((0, 0, 0, 1),)
    assert result.method == "support"
    assert result.states_explored > 0


def test_window_frozen_example():
    grid = build_grid(F2, (2, 2))
    c1 = build_code(grid, 1)
    assert oracle_rghw_window(c1, None, 1).value == 2
    assert oracle_rghw_window(c1, None, 3).value == 4


def test_oracles_agree_with_formula_small():
    for field, sizes in ((F2, (2, 2)), (F3, (2, 3))):
        grid = build_grid(field, sizes)
        shape = grid.shape
        for u2 in range(-1, shape.k):
            for u1 in range(u2 + 1, shape.k + 1):
                band = DegreeBand(u2, u1)
                c1 = build_code(grid, u1)
                c2 = build_code(grid, u2) if u2 >= 0 else None
                for r in range(1, band_size(shape, band) + 1):
                    expected = rghw(WeightQuery(shape, band, r)).m_r
                    sup = oracle_rghw_support(c1, c2, r)
                    win = oracle_rghw_window(c1, c2, r)
                    fam = oracle_max_zeros_families(grid, band, r)
                    assert sup.value == expected
                    assert win.value == expected
                    assert shape.n - fam.value == expected
                    check_support_witness(sup, c1, c2, r)
                    check_window_witness(win, c1, c2, r)
                    check_families_witness(fam, grid, band, r)


def test_support_matches_subspace_enumeration():
    # Definition-level cross-check: enumerate every r-tuple of codewords.
    grid = build_grid(F2, (2, 2))
    for u1, rs in ((1, (1, 2, 3)), (2, (1, 2, 3, 4))):
        c1 = build_code(grid, u1)
        for r in rs:
            expected = brute.brute_min_support_subspaces(c1.G, F2, r)
            assert oracle_rghw_support(c1, None, r).value == expected
    grid3 = build_grid(F3, (2, 3))
    c1 = build_code(grid3, 2)
    c2 = build_code(grid3, 0)
    for r in (1, 2):
        expected = brute.brute_min_support_subspaces(c1.G, F3, r, forbidden_rows=c2.G)
        assert oracle_rghw_support(c1, c2, r).value == expected


def default_grid_calls(max_n):
    """(key, c1, c2, r) for every tuple of the default verify grid's boxes
    with n <= max_n, in sweep order; key = (q, sizes, u1, u2, r)."""
    for q in DEFAULT_GRID_QS:
        field = Field(q)
        for sizes in DEFAULT_GRID_SHAPES:
            shape = BoxShape(sizes)
            if max(sizes) > q or shape.n > max_n:
                continue
            grid = build_grid(field, sizes)
            codes = {u: build_code(grid, u) for u in range(shape.k + 1)}
            for u1 in range(shape.k + 1):
                for u2 in range(-1, u1):
                    c2 = codes[u2] if u2 >= 0 else None
                    for r in range(1, band_size(shape, DegreeBand(u2, u1)) + 1):
                        yield (q, sizes, u1, u2, r), codes[u1], c2, r


# sha256 over repr((q, sizes, u1, u2, r, value, witnesses)) of every support
# call on the default verify grid's boxes with n <= 6, in sweep order
SUPPORT_SWEEP_DIGEST = "293fbae6f89b0ebb55747e8617572af47a194ee9d8a5cccd53a9ec9d83b87267"

# sha256 over repr((q, sizes, u1, u2, r, value, witnesses, states_explored))
# of every window call on the default verify grid's boxes with n <= 8, in
# sweep order, recorded on the per-window RREF implementation
WINDOW_SWEEP_DIGEST = "63c54bd7e58752c618f4c4df0e4a8a05fe90a6a4049abcab498b31e02c065d3f"


def test_support_witnesses_pinned():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(6):
        res = oracle_rghw_support(c1, c2, r)
        digest.update(repr(key + (res.value, res.witnesses)).encode())
        calls += 1
    assert calls == 138
    assert digest.hexdigest() == SUPPORT_SWEEP_DIGEST


def test_window_results_pinned():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(8):
        res = oracle_rghw_window(c1, c2, r)
        digest.update(repr(key + (res.value, res.witnesses, res.states_explored)).encode())
        calls += 1
    assert calls == 270
    assert digest.hexdigest() == WINDOW_SWEEP_DIGEST


def test_pruning_does_not_change_results():
    cases = [
        (F2, (2, 2), DegreeBand(-1, 1), 2),
        (F2, (2, 2), DegreeBand(1, 2), 1),
        (F3, (2, 3), DegreeBand(0, 2), 2),
    ]
    for field, sizes, band, r in cases:
        grid = build_grid(field, sizes)
        c1 = build_code(grid, band.u1)
        c2 = build_code(grid, band.u2) if band.u2 >= 0 else None
        fast = oracle_rghw_support(c1, c2, r, prune=True)
        slow = oracle_rghw_support(c1, c2, r, prune=False)
        assert fast.value == slow.value
        assert fast.witnesses == slow.witnesses
        ffast = oracle_max_zeros_families(grid, band, r, prune=True)
        fslow = oracle_max_zeros_families(grid, band, r, prune=False)
        assert ffast.value == fslow.value
        check_families_witness(ffast, grid, band, r)
        check_families_witness(fslow, grid, band, r)


def test_budget_states_exhausted():
    grid = build_grid(F3, (3, 3))
    c1 = build_code(grid, 4)
    with pytest.raises(BudgetExceeded) as err:
        oracle_rghw_support(c1, None, 2, budget=OracleBudget(max_states=10))
    assert err.value.states_explored > 10


def test_budget_bounds_memory():
    # the first pivot's coset holds 4**11 vectors: refused before any is built
    grid = build_grid(F4, (3, 4))
    c1 = build_code(grid, 5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            oracle_rghw_support(c1, None, 1, budget=OracleBudget(max_states=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_budget_refuses_huge_coset_with_printable_count():
    # 65521**899 lower-term choices: the charge is capped, since Python
    # will not print an int of more than 4300 digits
    grid = build_grid(Field(65521), (900,))
    with pytest.raises(BudgetExceeded) as err:
        oracle_max_zeros_families(
            grid, DegreeBand(898, 899), 1, budget=OracleBudget(max_states=1000)
        )
    assert err.value.states_explored == 1001
    assert "(1001 > 1000)" in str(err.value)


def test_budget_time_exhausted():
    grid = build_grid(F3, (3, 3))
    c1 = build_code(grid, 3)
    with pytest.raises(BudgetExceeded):
        oracle_rghw_support(
            c1, None, 2, budget=OracleBudget(time_cap=0), prune=False
        )


def test_budget_window_and_families():
    grid = build_grid(F3, (3, 3))
    with pytest.raises(BudgetExceeded):
        oracle_rghw_window(build_code(grid, 2), None, 2, budget=OracleBudget(max_states=5))
    with pytest.raises(BudgetExceeded):
        oracle_max_zeros_families(
            grid, DegreeBand(-1, 3), 2, budget=OracleBudget(max_states=20)
        )


def test_invalid_nesting():
    first = build_grid(F4, (2, 3))
    last = build_grid(F4, (2, 3), policy="last")
    with pytest.raises(InvalidNesting):
        oracle_rghw_support(build_code(first, 2), build_code(last, 1), 1)
    with pytest.raises(InvalidNesting):
        oracle_rghw_support(build_code(first, 1), build_code(first, 2), 1)
    with pytest.raises(InvalidNesting):
        oracle_rghw_window(build_code(first, 1), build_code(first, 1), 1)
    same = build_grid(F4, (2, 3))
    assert oracle_rghw_support(build_code(first, 1), build_code(same, 0), 1).value >= 1


def test_rank_bounds():
    grid = build_grid(F3, (2, 3))
    c1 = build_code(grid, 2)
    c2 = build_code(grid, 0)
    ell = c1.dim - c2.dim
    for bad in (0, ell + 1):
        with pytest.raises(RankOutOfRange):
            oracle_rghw_support(c1, c2, bad)
        with pytest.raises(RankOutOfRange):
            oracle_rghw_window(c1, c2, bad)
    with pytest.raises(RankOutOfRange):
        oracle_max_zeros_families(grid, DegreeBand(0, 2), 0)


def test_results_are_deterministic():
    grid = build_grid(F3, (2, 3))
    c1 = build_code(grid, 2)
    a = oracle_rghw_support(c1, None, 2)
    b = oracle_rghw_support(c1, None, 2)
    assert (a.value, a.witnesses) == (b.value, b.witnesses)
    # the second call reuses the cached set-up and is still charged for it
    assert a.states_explored == b.states_explored
    # the set-up (116 states) plus the 80 echelon-valid rows visited
    assert a.states_explored == 196
    fa = oracle_max_zeros_families(grid, DegreeBand(-1, 2), 2)
    fb = oracle_max_zeros_families(grid, DegreeBand(-1, 2), 2)
    assert fa.value == fb.value and fa.witnesses == fb.witnesses
    assert fa.states_explored == fb.states_explored
