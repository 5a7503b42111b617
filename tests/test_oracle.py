import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

import brute
from brute import oracle_max_zeros_families
from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    band_size,
    iter_band,
    nth_band_element,
    rghw,
)
from rghw.cli import DEFAULT_GRID_QS, DEFAULT_GRID_SHAPES
from rghw.codes import build_code, build_grid, common_zero_count, maximal_family
from rghw.errors import BudgetExceeded, RghwError
from rghw.gf import Field, PackedVectors
from rghw.oracle import (
    MAX_TIME_CAP,
    OracleBudget,
    SupportOracle,
    _coset_masks,
    _Meter,
    oracle_rghw_support,
    oracle_rghw_window,
)
from test_errors import H, printed
from test_gf import PRIME_POWERS

F2 = Field(2)
F3 = Field(3)
F4 = Field(4)


def check_support_witness(result, c1, c2, r):
    """The returned rows must span a valid r-dim subspace of C1 meeting C2
    trivially, with support of the claimed size."""
    rows = list(result.witnesses)
    assert len(rows) == r
    field = c1.grid.field
    assert brute.rank_gf(list(c1.G) + rows, field) == c1.dim  # every row lies in C1
    assert brute.rank_gf(rows, field) == r
    if c2 is not None:
        stacked = rows + list(c2.G)
        assert brute.rank_gf(stacked, field) == r + c2.dim
    assert brute.support_size(rows) == result.value


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
    members = set(iter_band(grid.shape, band))
    for f in fams:
        lt = f.leading_term()
        assert lt.coefficient == 1
        assert lt.exponent in members
    assert common_zero_count(fams, grid) == result.value


def test_support_frozen_example():
    grid = build_grid(F2, (2, 2))
    result = oracle_rghw_support(build_code(grid, 2), build_code(grid, 1), 1, None)
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
                    sup = oracle_rghw_support(c1, c2, r, None)
                    win = oracle_rghw_window(c1, c2, r)
                    fam = oracle_max_zeros_families(grid, band, r)
                    assert sup.value == expected
                    assert win.value == expected
                    assert shape.n - fam.value == expected
                    check_support_witness(sup, c1, c2, r)
                    check_window_witness(win, c1, c2, r)
                    check_families_witness(fam, grid, band, r)


SMALL_BAND_CASES = (
    (F2, (2, 2), DegreeBand(-1, 1), 2),
    (F2, (2, 2), DegreeBand(1, 2), 1),
    (F3, (2, 3), DegreeBand(0, 2), 2),
)


def test_support_matches_subspace_enumeration():
    # Definition-level cross-check: enumerate every r-tuple of codewords.
    grid = build_grid(F2, (2, 2))
    for u1, rs in ((1, (1, 2, 3)), (2, (1, 2, 3, 4))):
        c1 = build_code(grid, u1)
        for r in rs:
            expected = brute.brute_min_support_subspaces(c1.G, F2, r)
            assert oracle_rghw_support(c1, None, r, None).value == expected
    grid3 = build_grid(F3, (2, 3))
    c1 = build_code(grid3, 2)
    c2 = build_code(grid3, 0)
    for r in (1, 2):
        expected = brute.brute_min_support_subspaces(c1.G, F3, r, forbidden_rows=c2.G)
        assert oracle_rghw_support(c1, c2, r, None).value == expected
    # lone ranks on fresh pairs, with their witnesses
    for field, sizes, band, r in SMALL_BAND_CASES:
        grid = build_grid(field, sizes)
        c1 = build_code(grid, band.u1)
        c2 = build_code(grid, band.u2) if band.u2 >= 0 else None
        forbidden = c2.G if c2 is not None else ()
        expected = brute.brute_min_support_subspaces(c1.G, field, r, forbidden_rows=forbidden)
        result = oracle_rghw_support(c1, c2, r, None)
        assert result.value == expected
        check_support_witness(result, c1, c2, r)


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

# the same over the boxes with n <= 9 (408 calls), recorded on the search
# that answered each rank from scratch, before it became a rank chain
SUPPORT_SWEEP_DIGEST_9 = "dc34ad82b68bb91efcbeb9b92ac522179ba36e92e20e2384cee785235fe69be6"

# sha256 over repr((q, sizes, u1, u2, r, value, witnesses, states_explored))
# of every support call on the default verify grid's boxes with n <= 8, in
# sweep order, recorded on the search that kept one tuple per candidate
SUPPORT_STATES_DIGEST = "45f452a1c053e5e029b3fec483fe6faaf750a4217215c1c8de2808c888de704b"

# sha256 over repr((q, sizes, u1, u2, r, value, witnesses, states_explored))
# of every window call on the default verify grid's boxes with n <= 8, in
# sweep order, recorded on the per-window RREF implementation
WINDOW_SWEEP_DIGEST = "63c54bd7e58752c618f4c4df0e4a8a05fe90a6a4049abcab498b31e02c065d3f"


def test_support_witnesses_pinned():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(6):
        res = oracle_rghw_support(c1, c2, r, None)
        digest.update(repr(key + (res.value, res.witnesses)).encode())
        calls += 1
    assert calls == 138
    assert digest.hexdigest() == SUPPORT_SWEEP_DIGEST


def test_support_witnesses_pinned_to_nine_points():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(9):
        res = oracle_rghw_support(c1, c2, r, None)
        digest.update(repr(key + (res.value, res.witnesses)).encode())
        calls += 1
    assert calls == 408
    assert digest.hexdigest() == SUPPORT_SWEEP_DIGEST_9


def test_support_states_pinned():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(8):
        res = oracle_rghw_support(c1, c2, r, None)
        digest.update(repr(key + (res.value, res.witnesses, res.states_explored)).encode())
        calls += 1
    assert calls == 270
    assert digest.hexdigest() == SUPPORT_STATES_DIGEST


def test_window_results_pinned():
    digest = hashlib.sha256()
    calls = 0
    for key, c1, c2, r in default_grid_calls(8):
        res = oracle_rghw_window(c1, c2, r)
        digest.update(repr(key + (res.value, res.witnesses, res.states_explored)).encode())
        calls += 1
    assert calls == 270
    assert digest.hexdigest() == WINDOW_SWEEP_DIGEST


# sha256 over repr((q, sizes, u1, u2, r, prune, value, witnesses, states_explored))
# of every families call below, in this order on one grid per box, recorded
# while the route still kept its zero masks between calls
FAMILIES_DIGEST = "d7289a47dde3f72ccc438d36ee6f54baa9d886c7fd5f76e2b5d9e9a1758f192e"


def test_families_results_pinned():
    digest = hashlib.sha256()
    calls = 0
    for field, sizes, prunes in (
        (F2, (2, 2), (True, False)),
        (F4, (2, 2), (True, False)),
        (F3, (2, 3), (True,)),
        (F2, (2, 2, 2), (True,)),
    ):
        grid = build_grid(field, sizes)
        for u1 in range(grid.shape.k + 1):
            for u2 in range(-1, u1):
                band = DegreeBand(u2, u1)
                for r in range(1, band_size(grid.shape, band) + 1):
                    for prune in prunes:
                        res = oracle_max_zeros_families(grid, band, r, prune=prune)
                        key = (field.q, sizes, u1, u2, r, prune)
                        digest.update(
                            repr(key + (res.value, res.witnesses, res.states_explored)).encode()
                        )
                        calls += 1
    assert calls == 132
    assert digest.hexdigest() == FAMILIES_DIGEST


def test_pruning_does_not_change_results():
    # the families reference against its own unpruned search
    for field, sizes, band, r in SMALL_BAND_CASES:
        grid = build_grid(field, sizes)
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
    with pytest.raises(BudgetExceeded) as err:  # refused in the set-up's first coset
        oracle_rghw_support(c1, None, 2, budget=OracleBudget(time_cap=0))
    assert "time budget exhausted after 2186 states" in str(err.value)


def test_budget_window_and_families():
    grid = build_grid(F3, (3, 3))
    with pytest.raises(BudgetExceeded):
        oracle_rghw_window(build_code(grid, 2), None, 2, budget=OracleBudget(max_states=5))
    with pytest.raises(BudgetExceeded):
        oracle_max_zeros_families(
            grid, DegreeBand(-1, 3), 2, budget=OracleBudget(max_states=20)
        )


def test_budget_replace_and_make_check_as_the_constructor():
    budget = OracleBudget(max_states=10)
    assert budget._replace(time_cap=0) == OracleBudget(10, 0)
    with pytest.raises(RghwError, match="state budget 0 is below 1"):
        budget._replace(max_states=0)
    with pytest.raises(RghwError, match="time budget -1 s is negative"):
        OracleBudget._make((10, -1))


def test_budget_time_cap_has_a_maximum():
    assert OracleBudget(1, MAX_TIME_CAP).time_cap == MAX_TIME_CAP
    for cap in (MAX_TIME_CAP + 1, 10**400):
        with pytest.raises(RghwError, match=rf"^time budget is above {MAX_TIME_CAP} s$"):
            OracleBudget(1, cap)


def test_budget_too_long_to_print_is_bad_input():
    # a refused value with more digits than str() prints must not turn the
    # message into an internal ValueError; the stand-in takes its place
    for states, cap, message in (
        (-H, 1, f"state budget {printed(-H)} is below 1"),
        (1, -H, f"time budget {printed(-H)} s is negative"),
        (H, 0.5, f"budget {printed(H)} states, 0.5 s is not two ints"),
    ):
        with pytest.raises(RghwError) as refused:
            OracleBudget(states, cap)
        assert str(refused.value) == message


def test_invalid_nesting():
    first = build_grid(F4, (2, 3))
    last = build_grid(F4, (2, 3), policy="last")
    with pytest.raises(RghwError, match="C1 and C2 live on different grids"):
        oracle_rghw_support(build_code(first, 2), build_code(last, 1), 1, None)
    with pytest.raises(RghwError, match="u2 = 2 >= u1 = 1"):
        oracle_rghw_support(build_code(first, 1), build_code(first, 2), 1, None)
    with pytest.raises(RghwError, match="u2 = 1 >= u1 = 1"):
        oracle_rghw_window(build_code(first, 1), build_code(first, 1), 1)
    same = build_grid(F4, (2, 3))
    assert oracle_rghw_support(build_code(first, 1), build_code(same, 0), 1, None).value >= 1


def test_bad_pair_is_refused_when_the_oracle_is_built():
    first = build_grid(F4, (2, 3))
    last = build_grid(F4, (2, 3), policy="last")
    with pytest.raises(RghwError, match="^C1 and C2 live on different grids$"):
        SupportOracle(build_code(first, 2), build_code(last, 1))
    for u2, u1 in ((2, 1), (1, 1)):
        with pytest.raises(RghwError, match=rf"^empty band: u2 = {u2} >= u1 = {u1}$"):
            SupportOracle(build_code(first, u1), build_code(first, u2))


def refusal(call):
    with pytest.raises(RghwError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("field, sizes", [(F3, (2, 3)), (Field(5), (3, 4))], ids=str)
def test_one_refusal_for_one_bad_rank(field, sizes):
    # the formula and both oracles refuse a bad r of a pair with one message
    for grid, u1, u2, ell in chain_pairs(field, sizes):
        band = DegreeBand(u2, u1)
        for r in (0, -1, ell + 1, 1.0, True, None):
            c1, c2 = fresh_pair(grid, u1, u2)
            messages = {
                refusal(lambda: WeightQuery(grid.shape, band, r)),
                refusal(lambda: SupportOracle(c1, c2).rank(r)),
                refusal(lambda: oracle_rghw_window(c1, c2, r)),
                refusal(lambda: oracle_rghw_support(c1, c2, r, None)),
            }
            assert messages == {f"r = {r!r} outside 1..{ell} for band {band} in box {grid.shape.d}"}


def test_rank_bounds():
    grid = build_grid(F3, (2, 3))
    c1 = build_code(grid, 2)
    c2 = build_code(grid, 0)
    ell = c1.dim - c2.dim
    where = r" for band DegreeBand\(u2=0, u1=2\) in box \(2, 3\)$"
    for bad in (0, ell + 1):
        with pytest.raises(RghwError, match=rf"r = {bad} outside 1\.\.{ell}{where}"):
            oracle_rghw_support(c1, c2, bad, None)
        with pytest.raises(RghwError, match=rf"r = {bad} outside 1\.\.{ell}{where}"):
            oracle_rghw_window(c1, c2, bad)
    with pytest.raises(RghwError, match=r"r = 0 outside 1\.\."):
        oracle_max_zeros_families(grid, DegreeBand(0, 2), 0)


# a value that is not exactly an int (a float, a bool) where a count goes,
# with the check that refuses it; each was taken, or failed late, before
GRID_34 = build_grid(Field(5), (3, 4))
NOT_INTS = {
    "box side True": (lambda: BoxShape((True, 3)), "box side True is not a positive int"),
    "box side 2.0": (lambda: BoxShape((2.0, 3)), r"box side 2\.0 is not a positive int"),
    "band u1 2.5": (
        lambda: DegreeBand(-1, 2.5), r"band bounds u2 = -1, u1 = 2\.5 are not both ints"
    ),
    "band u2 False": (
        lambda: DegreeBand(False, 3), "band bounds u2 = False, u1 = 3 are not both ints"
    ),
    "query r 1.5": (
        lambda: WeightQuery(BoxShape((3, 4)), DegreeBand(-1, 3), 1.5),
        r"r = 1\.5 outside 1\.\.9 ",
    ),
    "unrank r True": (
        lambda: nth_band_element(BoxShape((3, 4)), DegreeBand(-1, 3), True),
        r"r = True outside 1\.\.9 ",
    ),
    "family r 2.0": (
        lambda: maximal_family(GRID_34, DegreeBand(0, 2), 2.0), r"r = 2\.0 outside 1\.\.5 "
    ),
    "budget 2.5, 0.5": (
        lambda: OracleBudget(2.5, 0.5), r"budget 2\.5 states, 0\.5 s is not two ints"
    ),
    "budget time True": (
        lambda: OracleBudget(time_cap=True), "budget 100000000 states, True s is not two ints"
    ),
    "support r 1.0": (
        lambda: oracle_rghw_support(build_code(GRID_34, 1), None, 1.0, None),
        r"r = 1\.0 outside 1\.\.3 for band DegreeBand\(u2=-1, u1=1\) in box \(3, 4\)$",
    ),
    "window r True": (
        lambda: oracle_rghw_window(build_code(GRID_34, 2), build_code(GRID_34, 0), True),
        r"r = True outside 1\.\.5 for band DegreeBand\(u2=0, u1=2\) in box \(3, 4\)$",
    ),
}


@pytest.mark.parametrize("case", list(NOT_INTS))
def test_counts_must_be_ints(case):
    call, message = NOT_INTS[case]
    with pytest.raises(RghwError, match=message):
        call()


def test_results_are_deterministic():
    grid = build_grid(F3, (2, 3))
    c1 = build_code(grid, 2)
    a = oracle_rghw_support(c1, None, 2, None)
    b = oracle_rghw_support(c1, None, 2, None)
    assert (a.value, a.witnesses) == (b.value, b.witnesses)
    # the second call reuses the held set-up, is charged for it, and searches
    # rank 2 again under the same bound
    assert a.states_explored == b.states_explored
    # the set-up (116 states) plus the 80 echelon-valid rows visited
    assert a.states_explored == 196
    fa = oracle_max_zeros_families(grid, DegreeBand(-1, 2), 2)
    fb = oracle_max_zeros_families(grid, DegreeBand(-1, 2), 2)
    assert fa.value == fb.value and fa.witnesses == fb.witnesses
    assert fa.states_explored == fb.states_explored



def test_lower_rank_bounds_the_next_frozen():
    c1 = build_code(build_grid(F3, (2, 3)), 2)
    # the set-up (116 states) plus the 5 rows rank 1 visits to reach M_1 = 2
    assert oracle_rghw_support(c1, None, 1, None).states_explored == 121
    # rank 2 after rank 1 stops at once: its warm start has M_1 + 1 = 3 points
    chained = oracle_rghw_support(c1, None, 2, None)
    assert (chained.value, chained.states_explored) == (3, 116)
    # alone, rank 2 has only the bound 2 and visits 80 rows
    assert oracle_rghw_support(build_code(c1.grid, 2), None, 2, None).states_explored == 196

def test_invalid_call_keeps_the_held_pair():
    # the wrapper checks a call before it replaces its held object, so a
    # refused call on another pair leaves the held pair's answers in place
    c1 = build_code(build_grid(F3, (2, 3)), 2)
    other = build_code(build_grid(F2, (2,)), 1)
    oracle_rghw_support(c1, None, 1, None)
    refusal = r"r = 5 outside 1\.\.2 for band DegreeBand\(u2=-1, u1=1\) in box \(2,\)$"
    with pytest.raises(RghwError, match=refusal):
        oracle_rghw_support(other, None, 5, None)
    # rank 2 is still bounded by M_1 + 1 = 3: 116 states, not a cold 196
    assert oracle_rghw_support(c1, None, 2, None).states_explored == 116


def packed_support(packing, mask, n):
    """Coordinates whose bit is set in a PackedVectors support mask."""
    assert mask & ~packing.full == 0
    return {i for i in range(n) if mask >> i * packing.w + packing.w - 1 & 1}


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 64] + [81, 243, 256, 65521, 65536])
def test_coset_masks_match_field_arithmetic(q):
    # GF(8) and GF(27) have three digits a coordinate, GF(16) and GF(64) more:
    # a coordinate's digit slots must not leak into the next coordinate
    field = Field(q)
    rng = random.Random(q)
    n = 5 if q <= 64 else 3

    def vector():
        return tuple(rng.choice((0, 0, 1, rng.randrange(q))) for _ in range(n))

    packing = PackedVectors(field.p, field.e, n)
    trials = 3 if q <= 64 else 1
    for _ in range(trials):
        # q <= 64: every vector of a 2-generator coset; above: the
        # translates by one generator that zero a coordinate, and a sample
        base, gens = vector(), [vector() for _ in range(2 if q <= 64 else 1)]
        masks = _coset_masks(field, packing, base, gens, _Meter(OracleBudget()))
        assert len(masks) == q ** len(gens)
        encs = range(len(masks))
        if q > 64:
            encs = [field.mul(field.neg(a), field.inv(b)) for a, b in zip(base, gens[0]) if b]
            encs += rng.sample(range(q), min(q, 256))
        for enc in encs:
            mask = masks[enc]
            vec = base
            for j, g in enumerate(gens):
                c = enc // q**j % q
                vec = tuple(field.add(a, field.mul(c, b)) for a, b in zip(vec, g))
            assert packed_support(packing, mask, n) == {i for i, a in enumerate(vec) if a}


def chain_pairs(field, sizes):
    grid = build_grid(field, sizes)
    shape = grid.shape
    for u1 in range(shape.k + 1):
        for u2 in range(-1, u1):
            yield grid, u1, u2, band_size(shape, DegreeBand(u2, u1))


def fresh_pair(grid, u1, u2):
    return build_code(grid, u1), build_code(grid, u2) if u2 >= 0 else None


def ascending(c1, c2, r, budget=None):
    """Rank r of a pair asked, under `budget`, after its ranks 1..r-1 were
    answered, as verify asks it."""
    for lower in range(1, r):
        oracle_rghw_support(c1, c2, lower, None)
    return oracle_rghw_support(c1, c2, r, budget)


@pytest.mark.parametrize("field, sizes", [(F3, (2, 3)), (F4, (2, 2, 2))], ids=str)
def test_rank_counts_repeat_cold_warm_and_after_eviction(field, sizes):
    # a lone rank and a rank asked after its lower ranks each report the
    # same count cold, warm and after another pair evicted the set-up; the
    # lower ranks' bound only ever shortens the search
    other = fresh_pair(build_grid(F2, (2,)), 1, -1)
    for grid, u1, u2, ell in chain_pairs(field, sizes):
        for r in range(1, ell + 1):
            c1, c2 = fresh_pair(grid, u1, u2)
            lone = oracle_rghw_support(c1, c2, r, None)
            assert oracle_rghw_support(c1, c2, r, None) == lone
            oracle_rghw_support(*other, 1, None)
            assert oracle_rghw_support(c1, c2, r, None) == lone
            c1, c2 = fresh_pair(grid, u1, u2)
            chained = ascending(c1, c2, r)
            assert oracle_rghw_support(c1, c2, r, None) == chained
            oracle_rghw_support(*other, 1, None)
            assert ascending(c1, c2, r) == chained
            assert (chained.value, chained.witnesses) == (lone.value, lone.witnesses)
            assert chained.states_explored <= lone.states_explored
            if r == 1:
                assert chained == lone


@pytest.mark.parametrize("field, sizes", [(F3, (2, 3)), (F4, (2, 2, 2))], ids=str)
def test_rank_answers_do_not_depend_on_order(field, sizes):
    # odd ranks first, then even ones: rank r is bounded through an answered
    # rank i < r - 1 as well as through r - 1; a cold rank has only r
    for grid, u1, u2, ell in chain_pairs(field, sizes):
        lone = [oracle_rghw_support(*fresh_pair(grid, u1, u2), r, None) for r in range(1, ell + 1)]
        c1, c2 = fresh_pair(grid, u1, u2)
        for r in list(range(1, ell + 1, 2)) + list(range(2, ell + 1, 2)):
            res = oracle_rghw_support(c1, c2, r, None)
            want = lone[r - 1]
            assert (res.value, res.witnesses) == (want.value, want.witnesses), (sizes, u1, u2, r)


def test_reasked_rank_searches_again():
    # a re-asked rank is searched, not replayed: after rank 1 is answered,
    # rank 2 stops at M_1 + 1 = 3, which its cold search had to prove
    c1 = build_code(build_grid(F3, (2, 3)), 2)
    cold, one, again = (oracle_rghw_support(c1, None, r, None) for r in (2, 1, 2))
    assert [(res.value, res.states_explored) for res in (cold, one, again)] == [
        (3, 196),
        (2, 121),
        (3, 116),
    ]
    assert again.witnesses == cold.witnesses


@pytest.mark.parametrize("field, sizes", [(F3, (2, 3)), (F4, (2, 2))], ids=str)
def test_state_refusal_reports_one_past_the_cap(field, sizes):
    # however a route charges its states, in batches or one by one, a state
    # refusal reports max_states + 1, the state a one-by-one walk stops at
    for grid, u1, u2, ell in chain_pairs(field, sizes):
        for r in range(1, ell + 1):
            routes = (
                lambda c1, c2, budget=None: SupportOracle(c1, c2).rank(r, budget),
                lambda c1, c2, budget=None: oracle_rghw_window(c1, c2, r, budget),
            )
            for route in routes:
                states = route(*fresh_pair(grid, u1, u2)).states_explored
                caps = sorted({1 + (states - 1) * i // 10 for i in range(10)})
                for cap in (cap for cap in caps if cap < states):
                    with pytest.raises(BudgetExceeded) as err:
                        route(*fresh_pair(grid, u1, u2), OracleBudget(max_states=cap))
                    assert err.value.states_explored == cap + 1, (sizes, u1, u2, r, cap)
                    assert f"({cap + 1} > {cap})" in str(err.value)


@pytest.mark.parametrize("field, sizes", [(F3, (2, 3)), (F4, (2, 2, 2))], ids=str)
def test_rank_budget_parity(field, sizes):
    # a cap admits a call cold, warm and after a refusal alike, or refuses
    # all; a cap that admits a lone rank admits it after its lower ranks
    def capped(ask, c1, c2, r, cap):
        try:
            return ask(c1, c2, r, OracleBudget(max_states=cap))
        except BudgetExceeded:
            return None

    for grid, u1, u2, ell in chain_pairs(field, sizes):
        for r in range(1, ell + 1):
            for ask in (oracle_rghw_support, ascending):
                c1, c2 = fresh_pair(grid, u1, u2)
                full = ask(c1, c2, r, None)
                states = full.states_explored
                caps = sorted({1, states // 2, states - 1, states} - {0})
                warm = [capped(ask, c1, c2, r, cap) for cap in caps]
                for cap, held in zip(caps, warm):
                    pair = fresh_pair(grid, u1, u2)
                    cold = capped(ask, *pair, r, cap)
                    again = capped(ask, *pair, r, cap)
                    assert cold == held == again, (sizes, u1, u2, r, cap)
                    assert cold == (full if cap >= states else None)
                    if ask is oracle_rghw_support and cold is not None:
                        assert capped(ascending, *fresh_pair(grid, u1, u2), r, cap) is not None


def test_support_set_up_is_released():
    # GF(4) (3,3), u1 = 4: 87,372 set-up states; a query on another pair must
    # free that set-up at once, so at most one is held.  The cyclic gc is off,
    # so a reference cycle that keeps the old set-up alive fails the test.
    big = build_code(build_grid(F4, (3, 3)), 4)
    small = build_code(build_grid(F2, (2,)), 1)
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle_rghw_support(big, None, 1, None)
        held = tracemalloc.get_traced_memory()[0] - start
        oracle_rghw_support(small, None, 1, None)
        after = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 2 * 2**20
    assert after < held // 20


def test_held_set_up_does_not_grow():
    # a search lists its rows for one combination of pivots and drops them,
    # so asking more ranks of a held pair adds no more than their answers
    c1 = build_code(build_grid(F4, (3, 3)), 4)
    gc.disable()
    tracemalloc.start()
    try:
        oracle_rghw_support(c1, None, 1, None)
        start = tracemalloc.get_traced_memory()[0]
        for r in range(2, 10):
            oracle_rghw_support(c1, None, r, None)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 4096


def test_alternated_oracles_keep_one_set_up_each():
    # two held objects asked rank by rank in turn: each keeps the set-up its
    # first rank built, and answers as the wrapper does for a rank asked after
    # its lower ranks; a fresh object's lone rank is the wrapper's lone rank
    pairs = [(build_grid(F3, (2, 3)), 2, -1), (build_grid(F4, (2, 2, 2)), 2, 0)]
    oracles = [SupportOracle(*fresh_pair(*pair)) for pair in pairs]
    for r in range(1, 5):
        for oracle, pair in zip(oracles, pairs):
            assert oracle.rank(r) == ascending(*fresh_pair(*pair), r)
            lone = SupportOracle(*fresh_pair(*pair)).rank(r)
            assert lone == oracle_rghw_support(*fresh_pair(*pair), r, None)
        if r == 1:
            masks = [oracle.masks for oracle in oracles]
        assert all(oracle.masks is held for oracle, held in zip(oracles, masks))


def test_refused_set_up_leaves_nothing_held():
    # GF(4) (3,3), u1 = 4 needs 87,372 set-up states, 65,535 of them in the
    # first pivot's coset: a cap of 80,000 refuses the set-up at the second
    # pivot, and the first pivot's masks and keys must go with the refusal
    c1 = build_code(build_grid(F4, (3, 3)), 4)
    oracle = SupportOracle(c1, None)
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        refused = False
        try:
            oracle.rank(1, OracleBudget(max_states=80_000))
        except BudgetExceeded:
            refused = True
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert refused
    assert held < 4096
    assert oracle.masks is None
    assert oracle.rank(1) == SupportOracle(build_code(c1.grid, 4), None).rank(1)


def test_dropped_oracle_frees_its_set_up():
    # the object is the only holder of its set-up: with the cyclic gc off,
    # dropping it returns the memory at once
    c1 = build_code(build_grid(F4, (3, 3)), 4)
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oracle = SupportOracle(c1, None)
        oracle.rank(1)
        held = tracemalloc.get_traced_memory()[0] - start
        del oracle
        after = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 2 * 2**20
    assert after < 4096


def test_window_call_leaves_no_cycle():
    # walk calls itself through its closure cell; the call must break that
    # cycle, so with the cyclic gc off nothing is left for it to collect
    c1 = build_code(build_grid(F3, (2, 3)), 2)
    gc.disable()
    try:
        gc.collect()
        oracle_rghw_window(c1, None, 2)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
