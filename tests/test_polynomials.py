import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from rghw.boxcomb import (
    BoxShape,
    DegreeBand,
    WeightQuery,
    band_size,
    footprint,
    iter_band,
    lex_rank_in_leq,
    nth_band_element,
    rghw,
)
from rghw.codes import (
    LeadingTerm,
    MultiPoly,
    build_grid,
    common_zero_count,
    make_maximal_poly,
    maximal_family,
    random_poly,
)
from rghw.errors import RghwError
from rghw.gf import Field

F2 = Field(2)
F3 = Field(3)
F4 = Field(4)


def test_terms_rejections_and_cleanup():
    shape = BoxShape((2, 3))
    f = MultiPoly(F3, shape, {(1, 2): 1, (0, 1): 0})
    assert f.terms == {(1, 2): 1}
    with pytest.raises(RghwError, match=r"exponent \(2, 0\) outside box"):
        MultiPoly(F3, shape, {(2, 0): 1})
    with pytest.raises(RghwError, match=r"coefficient 3 is not a canonical GF\(3\) encoding"):
        MultiPoly(F3, shape, {(1, 0): 3})
    with pytest.raises(RghwError, match=r"coefficient -1 is not a canonical GF\(3\) encoding"):
        MultiPoly(F3, shape, {(1, 0): -1})


# an exponent entry or a coefficient that is not exactly an int, with the
# check that refuses it; each was taken before
GRID_23 = build_grid(F3, (2, 3))
NOT_INTS = {
    "exponent (1.0, 0)": (
        lambda: MultiPoly(F3, GRID_23.shape, {(1.0, 0): 1}),
        r"exponent \(1\.0, 0\) outside box \(2, 3\)",
    ),
    "exponent (True, 0)": (
        lambda: MultiPoly(F3, GRID_23.shape, {(True, 0): 1}),
        r"exponent \(True, 0\) outside box \(2, 3\)",
    ),
    "coefficient 1.0": (
        lambda: MultiPoly(F3, GRID_23.shape, {(1, 0): 1.0}),
        r"coefficient 1\.0 is not a canonical GF\(3\) encoding",
    ),
    "coefficient True": (
        lambda: MultiPoly(F3, GRID_23.shape, {(1, 0): True}),
        r"coefficient True is not a canonical GF\(3\) encoding",
    ),
    "maximal (True, 0)": (
        lambda: make_maximal_poly(GRID_23, (True, 0)),
        r"point \(True, 0\) outside box \(2, 3\)",
    ),
    "lex rank (0, False)": (
        lambda: lex_rank_in_leq(GRID_23.shape, 2, (0, False)),
        r"point \(0, False\) outside box \(2, 3\)",
    ),
}


@pytest.mark.parametrize("case", list(NOT_INTS))
def test_exponents_and_coefficients_must_be_ints(case):
    build, message = NOT_INTS[case]
    with pytest.raises(RghwError, match=message):
        build()


def test_zero_polynomial():
    f = MultiPoly(F3, BoxShape((2, 3)), {})
    assert f.terms == {}
    assert f.leading_term() is None
    assert f.render() == "0"


def test_leading_term_graded_lex():
    shape = BoxShape((3, 3))
    f = MultiPoly(F3, shape, {(1, 2): 1, (2, 1): 2, (2, 0): 1})
    assert max(map(sum, f.terms)) == 3
    assert f.leading_term() == LeadingTerm((2, 1), 2)


def test_render():
    shape = BoxShape((2, 3))
    f = MultiPoly(F3, shape, {(1, 2): 1, (1, 1): 2})
    assert f.render() == "x1*x2^2 + 2*x1*x2"
    g = MultiPoly(F3, shape, {(0, 0): 2, (1, 0): 1})
    assert g.render() == "x1 + 2"


def test_equality_and_hash():
    shape = BoxShape((2, 2))
    f = MultiPoly(F2, shape, {(1, 1): 1})
    g = MultiPoly(F2, shape, {(1, 1): 1, (0, 0): 0})
    assert f == g and hash(f) == hash(g)
    assert f != MultiPoly(F2, shape, {(1, 0): 1})


@pytest.mark.parametrize(
    "q,sizes,policy",
    [(2, (2, 2), "first"), (3, (2, 3), "first"), (4, (3, 3), "last"), (4, (2, 2, 2), "first")],
)
def test_maximal_poly_leading_term_and_zero_set(q, sizes, policy):
    # f_b = prod_i prod_{j < b_i} (x_i - A_i[j]) must be monic with leading
    # exponent b and vanish exactly where the point's index fails to
    # dominate b coordinatewise.
    field = Field(q)
    grid = build_grid(field, sizes, policy=policy)
    shape = grid.shape
    for b in shape.points():
        f = make_maximal_poly(grid, b)
        lt = f.leading_term()
        assert lt.exponent == b and lt.coefficient == 1
        assert max(map(sum, f.terms)) == sum(b)
        values = grid.evaluate(f)
        for pos, idx in enumerate(shape.points()):
            if brute.dominates(b, idx):
                assert values[pos] != 0
            else:
                assert values[pos] == 0


def _schoolbook_maximal(grid, b):
    """prod_i prod_{j < b_i} (x_i - A_i[j]) multiplied out one linear factor
    at a time on the reference field arithmetic of brute.py."""
    field = grid.field
    terms = {(0,) * len(b): 1}
    for i, bi in enumerate(b):
        for gamma in grid.subsets[i][:bi]:
            neg_gamma = brute.field_neg(field, gamma)
            out = {}
            for exp, c in terms.items():
                up = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                out[up] = brute.field_add(field, out.get(up, 0), c)
                lower = brute.field_mul(field, c, neg_gamma)
                out[exp] = brute.field_add(field, out.get(exp, 0), lower)
            terms = out
    return {exp: c for exp, c in terms.items() if c}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 101, 256, 1024])
def test_maximal_poly_matches_schoolbook_expansion(q):
    field = Field(q)
    rng = random.Random(q)
    for policy in ("first", "last", None):  # None: random explicit subsets
        sizes = [rng.randint(1, min(q, 5)) for _ in range(rng.randint(1, 3))]
        subsets = None if policy else [rng.sample(range(q), d) for d in sizes]
        grid = build_grid(field, sizes, subsets=subsets, policy=policy or "first")
        for b in itertools.product(*map(range, grid.shape.d)):
            assert make_maximal_poly(grid, b).terms == _schoolbook_maximal(grid, b), (
                grid.subsets, b
            )


def test_evaluation_matches_brute():
    grid = build_grid(F4, (2, 3))
    rng = random.Random(7)
    for _ in range(25):
        f = random_poly(F4, grid.shape, rng)
        values = grid.evaluate(f)
        for pos, point in enumerate(itertools.product(*grid.subsets)):
            assert values[pos] == brute.brute_eval(F4, f.terms, point)


def test_evaluate_rejects_wrong_grid():
    f = MultiPoly(F3, BoxShape((2, 3)), {(1, 1): 1})
    with pytest.raises(RghwError, match="polynomial and grid disagree"):
        common_zero_count([f], build_grid(F3, (3, 3)))
    with pytest.raises(RghwError, match="polynomial and grid disagree"):
        common_zero_count([f], build_grid(F4, (2, 3)))


def test_common_zero_count_example():
    grid = build_grid(F3, (2, 3))
    f = MultiPoly(F3, grid.shape, {(1, 1): 1})
    assert f.render() == "x1*x2"
    assert common_zero_count([f], grid) == 4
    g = MultiPoly(F3, grid.shape, {(1, 0): 1})
    assert common_zero_count([f, g], grid) == 3
    with pytest.raises(RghwError, match="needs at least one polynomial"):
        common_zero_count([], grid)


def test_common_zero_count_checks_every_member_before_evaluating():
    # the constant 1 leaves no common zero, which must not hide a member
    # that does not live on the grid, in either order
    grid = build_grid(F3, (2, 3))
    one = MultiPoly(F3, grid.shape, {(0, 0): 1})
    bad = MultiPoly(F4, BoxShape((3, 3)), {(1, 1): 1})
    assert common_zero_count([one], grid) == 0
    for family in ([one, bad], [bad, one]):
        with pytest.raises(RghwError, match="polynomial and grid disagree"):
            common_zero_count(family, grid)


def test_footprint_matches_brute():
    shape = BoxShape((2, 3))
    assert footprint(shape, []) == set(shape.points())
    assert footprint(shape, [(0, 0)]) == set()
    pts = list(shape.points())
    for mask in range(1 << len(pts)):
        subset = [pts[i] for i in range(len(pts)) if mask >> i & 1]
        assert footprint(shape, subset) == brute.brute_footprint(shape.d, subset)


def test_maximal_family_leading_exponents():
    grid = build_grid(F3, (2, 3))
    band = DegreeBand(0, 2)
    members = list(iter_band(grid.shape, band))
    fam = maximal_family(grid, band, len(members))
    assert [f.leading_term().exponent for f in fam] == members
    assert all(f.leading_term().coefficient == 1 for f in fam)
    assert fam[0].render() == "x1*x2"
    with pytest.raises(RghwError, match=r"r = 0 outside 1\.\.4 "):
        maximal_family(grid, band, 0)
    with pytest.raises(RghwError, match=rf"r = {len(members) + 1} outside 1\.\.{len(members)} "):
        maximal_family(grid, band, len(members) + 1)


@pytest.mark.parametrize("sizes", [(2, 3), (3, 3, 3), (4, 5)])
def test_maximal_family_equals_the_unranked_family(sizes):
    # one band walk gives the same members as unranking each r separately
    field = Field(5)
    grid = build_grid(field, sizes)
    k = grid.shape.k
    for u1 in range(k + 1):
        for u2 in range(-1, u1):
            band = DegreeBand(u2, u1)
            size = band_size(grid.shape, band)
            for r in range(1, size + 1):
                expected = [make_maximal_poly(grid, nth_band_element(grid.shape, band, i)) for i in range(1, r + 1)]
                assert maximal_family(grid, band, r) == expected, (sizes, band, r)
            with pytest.raises(RghwError, match=rf"r = {size + 1} outside 1\.\.{size} "):
                maximal_family(grid, band, size + 1)


def test_random_poly_seeded_and_valid():
    shape = BoxShape((2, 2, 2))
    rng_a, rng_b = random.Random(11), random.Random(11)
    a = [random_poly(F4, shape, rng_a) for _ in range(5)]
    b = [random_poly(F4, shape, rng_b) for _ in range(5)]
    assert a == b
    for f in a:
        assert 1 <= len(f.terms) <= 4
        for exp, c in f.terms.items():
            assert shape.contains(exp)
            assert 1 <= c < 4


def random_grid(field, sizes, rng):
    """Grid over `sizes` on random subsets, so the points are not just the
    lowest encodings."""
    return build_grid(field, sizes, subsets=[rng.sample(range(field.q), s) for s in sizes])


@pytest.mark.parametrize("q", [2, 3, 5, 101, 257, 4, 8, 9, 27, 256, 1024])
def test_grid_evaluation_matches_brute_on_dense_polynomials(q):
    # every box exponent is a term with probability 0.6; sides of 1 and the
    # zero polynomial included
    field = Field(q)
    rng = random.Random(q)
    for m in (1, 2, 3):
        for sizes in ([1] * m, [rng.randint(1, min(q, 5)) for _ in range(m)]):
            grid = random_grid(field, sizes, rng)
            points = list(itertools.product(*grid.subsets))
            box = brute.box_points(grid.shape.d)
            terms = {e: rng.randrange(1, q) for e in box if rng.random() < 0.6}
            for f in (MultiPoly(field, grid.shape, terms), MultiPoly(field, grid.shape, {})):
                values = grid.evaluate(f)
                assert values == tuple(brute.brute_eval(field, f.terms, x) for x in points)
            for e in box:
                assert grid.monomial_values(e) == tuple(brute.brute_eval(field, {e: 1}, x) for x in points)


def test_common_zero_count_matches_brute_count():
    rng = random.Random(3)
    for q, sizes in ((2, (2, 2)), (3, (3, 2)), (4, (2, 2, 2)), (9, (3, 4)), (27, (2, 3, 4))):
        field = Field(q)
        grid = random_grid(field, sizes, rng)
        points = list(itertools.product(*grid.subsets))
        for _ in range(10):
            fs = [random_poly(field, grid.shape, rng) for _ in range(rng.randint(1, 3))]
            zeros = sum(all(brute.brute_eval(field, f.terms, x) == 0 for f in fs) for x in points)
            assert common_zero_count(fs, grid) == zeros


def grid_with_zero(field, sizes, rng):
    """Grid over `sizes` on random subsets that all contain 0."""
    return build_grid(field, sizes, subsets=[[0] + rng.sample(range(1, field.q), s - 1) for s in sizes])


@pytest.mark.parametrize("q", [101, 256, 1024])
def test_grid_evaluation_matches_brute_at_families_scale(q):
    # sides 20-60 as in `rghw maximal` on large fields; sampled points, half
    # of them with a zero coordinate
    field = Field(q)
    rng = random.Random(q + 12)
    for sizes in ((rng.randint(20, 60), rng.randint(20, 60)), (20, 21, 22)):
        grid = grid_with_zero(field, sizes, rng)
        shape = grid.shape
        zero_at = [sub.index(0) for sub in grid.subsets]
        samples = []
        for t in range(120):
            idx = [rng.randrange(d) for d in shape.d]
            if t % 2:
                i = rng.randrange(shape.m)
                idx[i] = zero_at[i]
            samples.append(tuple(idx))
        band = DegreeBand(rng.randint(-1, 2), 6)
        polys = [random_poly(field, shape, rng) for _ in range(8)] + maximal_family(grid, band, 5)
        for f in polys:
            values = grid.evaluate(f)
            assert len(values) == shape.n
            for idx in samples:
                point = tuple(sub[j] for sub, j in zip(grid.subsets, idx))
                assert values[shape.encode(idx)] == brute.brute_eval(field, f.terms, point), (q, sizes, idx)


def pinned_families():
    """30 seeded (q, sizes, subsets, band, r) families on grids of 400 to
    3,600 points over the families-scale fields, each with its grid."""
    rng = random.Random(1207)
    for q in (101, 243, 256, 257, 1024):
        field = Field(q)
        for m, sides, u1 in ((2, (20, 60), 6), (3, (7, 12), 5), (2, (20, 60), 6)):
            sizes = tuple(rng.randint(*sides) for _ in range(m))
            subsets = [[0] + rng.sample(range(1, q), s - 1) for s in sizes]
            grid = build_grid(field, sizes, subsets=subsets)
            for _ in range(2):
                band = DegreeBand(rng.randint(-1, 2), u1)
                yield q, sizes, subsets, band, rng.randint(1, 5), grid


# sha256 over repr((q, sizes, subsets, u2, u1, r, member values, common zeros))
# of every family above, recorded while the grid was evaluated one scalar
# product at a time
EVALUATION_DIGEST = "9a9e2c079906405a8aa9fd64eee696acc5852fba355766689e0becff872013f6"


def test_family_evaluations_pinned():
    digest = hashlib.sha256()
    count = 0
    for q, sizes, subsets, band, r, grid in pinned_families():
        family = maximal_family(grid, band, r)
        values = [grid.evaluate(f) for f in family]
        zeros = common_zero_count(family, grid)
        digest.update(repr((q, sizes, subsets, band.u2, band.u1, r, values, zeros)).encode())
        count += 1
    assert count == 30
    assert digest.hexdigest() == EVALUATION_DIGEST


@pytest.mark.parametrize("q,sizes", [(256, (30, 40)), (1024, (10, 10))])
def test_maximal_family_attains_weight_at_large_scale(q, sizes):
    grid = build_grid(Field(q), sizes)
    band = DegreeBand(-1, 6)
    for r in range(1, 6):
        zeros = common_zero_count(maximal_family(grid, band, r), grid)
        assert grid.shape.n - zeros == rghw(WeightQuery(grid.shape, band, r)).m_r


@pytest.mark.parametrize("q,sizes", [(101, (20, 30)), (256, (7, 10, 15))])
def test_common_zero_count_of_maximal_families_matches_brute_at_families_scale(q, sizes):
    # every point evaluated by brute.brute_eval, on random subsets that
    # contain 0, for bands as `rghw maximal` asks them and every rank up to 5
    field = Field(q)
    rng = random.Random(q)
    grid = grid_with_zero(field, sizes, rng)
    points = list(itertools.product(*grid.subsets))
    for band in (DegreeBand(-1, 6), DegreeBand(2, 5), DegreeBand(4, 7), DegreeBand(6, 10)):
        for r in range(1, 6):
            family = maximal_family(grid, band, r)
            zeros = sum(all(brute.brute_eval(field, f.terms, x) == 0 for f in family) for x in points)
            assert common_zero_count(family, grid) == zeros, (band, r)


@st.composite
def attainment_queries(draw):
    """(grid, band, r): q in {2, 3, 4, 5, 7, 8, 9}, sides 1..q in any order
    with n <= 64, explicit random subsets or either policy, any band of the
    box and any rank of it."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    field = Field(q)
    sizes = []
    n = 1
    for _ in range(draw(st.integers(1, 6))):
        sizes.append(draw(st.integers(1, min(q, 64 // n))))
        n *= sizes[-1]
    points = draw(st.sampled_from(("first", "last", "explicit")))
    if points == "explicit":
        subsets = [draw(st.permutations(range(q)))[:s] for s in sizes]
        grid = build_grid(field, sizes, subsets=subsets)
    else:
        grid = build_grid(field, sizes, policy=points)
    k = grid.shape.k
    u1 = draw(st.integers(0, k))
    band = DegreeBand(draw(st.integers(-1, u1 - 1)), u1)
    r = draw(st.integers(1, band_size(grid.shape, band)))
    return grid, band, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(attainment_queries())
def test_maximal_family_attains_weight_on_random_grids(query):
    grid, band, r = query
    zeros = common_zero_count(maximal_family(grid, band, r), grid)
    assert grid.shape.n - zeros == rghw(WeightQuery(grid.shape, band, r)).m_r


@st.composite
def sub_grid_families(draw):
    """(grid, family): a grid as in `attainment_queries` with n <= 48 and
    1..4 members, each a constant, a polynomial in x_1 alone, one in the
    first t coordinates (x_{t+1}..x_m at exponent 0), one in all of them, a
    maximal polynomial, or the zero polynomial."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    field = Field(q)
    sizes = []
    n = 1
    for _ in range(draw(st.integers(1, 4))):
        sizes.append(draw(st.integers(1, min(q, 48 // n))))
        n *= sizes[-1]
    points = draw(st.sampled_from(("first", "last", "explicit")))
    if points == "explicit":
        grid = build_grid(field, sizes, subsets=[draw(st.permutations(range(q)))[:s] for s in sizes])
    else:
        grid = build_grid(field, sizes, policy=points)
    d = grid.shape.d
    family = []
    kinds = st.sampled_from(("constant", "x1", "leading", "all", "maximal", "zero"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "maximal":
            family.append(make_maximal_poly(grid, tuple(draw(st.integers(0, s - 1)) for s in d)))
            continue
        used = {"constant": 0, "x1": 1, "leading": draw(st.integers(1, len(d))), "all": len(d), "zero": 0}[kind]
        terms = {}
        for _ in range(draw(st.integers(1, 4)) if kind != "zero" else 0):
            exp = tuple(draw(st.integers(0, s - 1)) if i < used else 0 for i, s in enumerate(d))
            terms[exp] = draw(st.integers(0, q - 1))
        family.append(MultiPoly(field, grid.shape, terms))
    return grid, family


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sub_grid_families())
def test_common_zero_count_matches_scalar_count_on_sub_grid_members(query):
    # each member, evaluated on the sub-grid of the coordinates it uses,
    # against every point evaluated by scalar Field.mul and Field.add
    grid, family = query
    field = grid.field
    points = list(itertools.product(*grid.subsets))
    scalar = [tuple(brute.brute_eval(field, f.terms, x) for x in points) for f in family]
    for f, values in zip(family, scalar):
        assert grid.evaluate(f) == values
    zeros = sum(not any(values[i] for values in scalar) for i in range(len(points)))
    assert common_zero_count(family, grid) == zeros
