import itertools
import random
import re
import sys
import tracemalloc

import pytest

import brute
from rghw import codes
from rghw.boxcomb import BoxShape, DegreeBand, band_size, iter_band
from rghw.cli import DEFAULT_GRID_QS, DEFAULT_GRID_SHAPES
from rghw.cli import main
from rghw.codes import CartesianCode, CartesianGrid, MultiPoly, build_code, build_grid, rref
from rghw.errors import RghwError
from rghw.gf import Field

F2 = Field(2)
F3 = Field(3)
F4 = Field(4)


def in_code(code, v):
    """v lies in the code: appending it to G leaves the rank at dim."""
    return brute.rank_gf(list(code.G) + [tuple(v)], code.grid.field) == code.dim


def test_grid_point_order_and_position_map():
    grid = build_grid(F3, (2, 3))
    points = list(itertools.product(*grid.subsets))
    assert points == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # position of a grid point == mixed-radix encoding of its index tuple
    for pos, (point, idx) in enumerate(zip(points, brute.box_points(grid.shape.d))):
        assert grid.shape.encode(idx) == pos
        assert point == tuple(grid.subsets[i][idx[i]] for i in range(grid.shape.m))


def test_grid_policies():
    first = build_grid(F4, (2, 3))
    last = build_grid(F4, (2, 3), policy="last")
    assert first.subsets == ((0, 1), (0, 1, 2))
    assert last.subsets == ((2, 3), (1, 2, 3))
    with pytest.raises(RghwError, match="unknown subset policy \'middle\'"):
        build_grid(F4, (2, 3), policy="middle")


def test_grid_explicit_subsets_follow_sort_permutation():
    grid = CartesianGrid(F3, (3, 2), subsets=[(0, 1, 2), (0, 2)])
    assert grid.shape.d == (2, 3)
    assert grid.permutation == (1, 0)
    assert grid.subsets == ((0, 2), (0, 1, 2))


def count_grids(monkeypatch) -> list:
    """The argument tuples of every CartesianGrid built from here on."""
    built, init = [], CartesianGrid.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CartesianGrid, "__init__", counted)
    return built


def test_grid_has_one_constructor_that_checks_once(monkeypatch, capsys):
    assert build_grid is CartesianGrid
    assert build_code is CartesianCode
    assert not hasattr(codes, "check_sizes")  # the constructor is the check
    built = count_grids(monkeypatch)
    query = ("--q", "4", "--sizes", "2,3", "--u1", "2", "--u2", "-1")
    for command in (("hierarchy",), ("hierarchy", "--oracle"), ("maximal", "--r", "2")):
        built.clear()
        assert main([*command, *query]) == 0, capsys.readouterr().err
        assert built == [(F4, [2, 3], None, "first")], command


def test_grid_on_a_huge_box_builds_no_power_table():
    field = Field(31627)
    tracemalloc.start()
    try:
        grid = CartesianGrid(field, (31623, 31623))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape.n == 31623**2
    # the two subsets, 31,623 ints each, take 2.4 MB; all power columns
    # would be 2 * 31623**2 entries
    assert peak < 3 * 2**20


def test_grid_builds_each_power_column_once_on_first_read(monkeypatch):
    built, powers = [], Field.powers

    def counted(self, xs, e):
        built.append((tuple(xs), e))
        return powers(self, xs, e)

    monkeypatch.setattr(Field, "powers", counted)
    grid = CartesianGrid(F4, (4, 3))
    assert built == []
    # the stages after the last coordinate that a term uses have every
    # exponent 0: they run no Kronecker product and build no x^0 column
    assert grid.monomial_values((2, 0)) == (0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3)
    assert built == [((0, 1, 2), 2)]
    assert grid.monomial_values((0, 0)) == (1,) * 12
    assert grid.evaluate(MultiPoly(F4, grid.shape, {(0, 0): 2}), 5) == (2,) * 8
    assert built == [((0, 1, 2), 2)]
    for d in range(grid.shape.k + 1):
        CartesianCode(grid, d)
    grid.evaluate(MultiPoly(F4, grid.shape, {(1, 3): 1, (2, 3): 1, (0, 1): 2}))
    # no evaluation above reads x_2^0: each x_2 stage that ran had a power above 0
    every = [(sub, e) for sub in grid.subsets for e in range(len(sub))]
    assert sorted(built) == sorted(set(every) - {((0, 1, 2, 3), 0)})
    grid.evaluate(MultiPoly(F4, grid.shape, {(1, 0): 1, (0, 2): 1}))  # x_2^0 beside x_2^2 reads it
    assert sorted(built) == sorted(every)


def test_grid_rejections():
    with pytest.raises(RghwError, match="d_m = 3 > q = 2") as err:
        build_grid(F2, (2, 3))
    assert "d_m = 3 > q = 2" in str(err.value)
    with pytest.raises(RghwError, match=r"subset 1 repeats elements: \(1, 1\)"):
        build_grid(F3, (2, 2), subsets=[(0, 1), (1, 1)])
    with pytest.raises(RghwError, match="subset 1 has size 3, box side is 2"):
        build_grid(F3, (2, 2), subsets=[(0, 1), (0, 1, 2)])
    with pytest.raises(RghwError, match=r"element 5 is not a GF\(3\) encoding"):
        build_grid(F3, (2, 2), subsets=[(0, 1), (0, 5)])
    with pytest.raises(RghwError, match="1 subsets for an m = 2 box"):
        build_grid(F3, (2, 2), subsets=[(0, 1)])
    with pytest.raises(RghwError, match="1 subsets for an m = 2 box"):
        CartesianGrid(F3, (2, 2), [(0, 1)])


def test_monomial_values_examples():
    grid = build_grid(F2, (2, 2))
    assert grid.monomial_values((1, 0)) == (0, 0, 1, 1)
    assert grid.monomial_values((1, 1)) == (0, 0, 0, 1)
    assert grid.monomial_values((0, 0)) == (1, 1, 1, 1)
    with pytest.raises(RghwError, match=r"exponent \(2, 0\) outside box \(2, 2\)"):
        grid.monomial_values((2, 0))


# exponents outside the (2, 3) box; the polynomial's constructor refuses each
OUTSIDE_THE_BOX = [(1, 0, 1), (1,), (-1, 0), (1, 5)]


@pytest.mark.parametrize("exp", OUTSIDE_THE_BOX)
def test_evaluate_rejects_exponents_outside_the_box(exp, monkeypatch):
    # a wrong length or a side's power past d_i - 1 (or below 0) is no
    # monomial of the box: neither x_1's values nor x_2^5 are an answer
    built, powers = [], Field.powers
    monkeypatch.setattr(Field, "powers", lambda self, xs, e: built.append(e) or powers(self, xs, e))
    grid = CartesianGrid(F4, (2, 3))
    message = re.escape(f"exponent {exp!r} outside box (2, 3)")
    for terms in ({exp: 1}, {(0, 1): 1, exp: 1}):
        with pytest.raises(RghwError, match=message):
            grid.evaluate(MultiPoly(F4, grid.shape, terms))
    with pytest.raises(RghwError, match=message):
        grid.monomial_values(exp)
    assert built == []  # nothing bad was kept
    assert grid.evaluate(MultiPoly(F4, grid.shape, {(1, 2): 1})) == (0, 0, 0, 0, 1, 3)


def test_evaluate_rejects_a_polynomial_of_another_grid(monkeypatch):
    # same m, another box; same box, another field: no power column is built
    built = []
    monkeypatch.setattr(Field, "powers", lambda self, xs, e: built.append(e))
    grid = CartesianGrid(F4, (2, 3))
    for f in (MultiPoly(F4, BoxShape((3, 3)), {(2, 1): 1}), MultiPoly(F3, grid.shape, {(1, 2): 1})):
        for count in (None, 3):
            with pytest.raises(RghwError, match="polynomial and grid disagree"):
                grid.evaluate(f, count)
    assert built == []


@pytest.mark.parametrize("q", [2, 3, 4, 9, 101, 256])
def test_evaluate_prefix_matches_full_evaluation(q):
    # a count keeps the points before it, rounded up to whole values of the
    # first coordinate: ceil(count / (n / d_1)) * (n / d_1) of them
    field = Field(q)
    rng = random.Random(q + 5)
    for m in (1, 2, 3):
        sizes = [rng.randint(1, min(q, 6)) for _ in range(m)]
        grid = build_grid(field, sizes, subsets=[rng.sample(range(q), s) for s in sizes])
        n, tail = grid.shape.n, grid.shape.n // grid.shape.d[0]
        for _ in range(6):
            terms = {
                tuple(rng.randrange(s) for s in grid.shape.d): rng.randrange(q)
                for _ in range(rng.randint(0, 5))
            }
            f = MultiPoly(field, grid.shape, terms)
            full = grid.evaluate(f)
            assert len(full) == n
            for count in (0, 1, tail, tail + 1, n):
                values = grid.evaluate(f, count)
                assert len(values) == min(n, -(-count // tail) * tail), (sizes, count)
                assert values == full[: len(values)], (sizes, terms, count)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 101])
def test_evaluate_prefix_of_constant_terms(q):
    # no stage runs for a constant or the zero polynomial, and one for a term
    # in x_1 alone: the values still fill ceil(count / (n / d_1)) * (n / d_1)
    # points
    field = Field(q)
    rng = random.Random(q + 17)
    for m in (1, 2, 3):
        sizes = [rng.randint(1, min(q, 5)) for _ in range(m)]
        grid = build_grid(field, sizes, policy=rng.choice(("first", "last")))
        n, tail = grid.shape.n, grid.shape.n // grid.shape.d[0]
        zero = (0,) * m
        c = rng.randrange(1, q)
        for terms, value in (({zero: c}, c), ({}, 0), ({zero: 0}, 0), ({(1,) + zero[1:]: 0}, 0)):
            if not grid.shape.contains(next(iter(terms), zero)):
                continue
            f = MultiPoly(field, grid.shape, terms)
            assert grid.evaluate(f) == (value,) * n
            for count in range(1, n + 1):
                assert grid.evaluate(f, count) == (value,) * (-(-count // tail) * tail), (sizes, count)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython blocks")
def test_rebuilding_grids_holds_no_memory():
    # tuples that CPython builds by resizing, as tuple(generator) and the
    # argument tuple of zip(*generator), pile up in its per-size tuple free
    # lists once freed, up to 2,000 a size: these 2,700 grids kept over 12,000
    # blocks with power rows built by tuple(generator), and 4,494 with power
    # columns transposed by zip(*generator), against 1,944 without either
    field = Field(19)
    for d in range(2, 20):
        build_grid(field, (d,))
    before = sys.getallocatedblocks()
    for d in range(2, 20):
        for _ in range(150):
            build_grid(field, (d,))
    assert sys.getallocatedblocks() - before < 3000


def test_code_dimensions_and_basis_order():
    for field, sizes in ((F2, (2, 2)), (F3, (2, 3)), (F4, (3, 3)), (F2, (2, 2, 2))):
        grid = build_grid(field, sizes)
        for d in range(grid.shape.k + 1):
            code = build_code(grid, d)
            assert code.length == grid.shape.n
            assert code.dim == band_size(grid.shape, DegreeBand(-1, d))
            assert list(code.basis) == list(iter_band(grid.shape, DegreeBand(-1, d)))
            for row, exp in zip(code.G, code.basis):
                assert row == grid.monomial_values(exp)


def test_parity_columns_check_every_default_grid_code():
    codes = 0
    for q in DEFAULT_GRID_QS:
        field = Field(q)
        for sizes in DEFAULT_GRID_SHAPES:
            if max(sizes) > q:
                continue
            grid = build_grid(field, sizes)
            n = grid.shape.n
            for d in range(grid.shape.k + 1):
                code = build_code(grid, d)
                cols = code.parity_columns
                assert len(cols) == n
                assert all(len(col) == n - code.dim for col in cols)
                H = [tuple(col[i] for col in cols) for i in range(n - code.dim)]
                for h in H:
                    for g in code.G:
                        total = 0
                        for a, b in zip(h, g):
                            total = field.add(total, field.mul(a, b))
                        assert total == 0, (q, sizes, d)
                assert brute.rank_gf(H, field) == n - code.dim
                codes += 1
    assert codes == 51


def test_code_degree_bounds():
    grid = build_grid(F3, (2, 3))
    with pytest.raises(RghwError, match=r"degree bound -1 outside 0\.\."):
        build_code(grid, -1)
    with pytest.raises(RghwError, match=r"degree bound 4 outside 0\.\.3"):
        build_code(grid, grid.shape.k + 1)
    assert build_code(grid, grid.shape.k).dim == grid.shape.n


def test_min_distance_by_codeword_enumeration():
    # [4,3] code on (2,2) over GF(2) with deg <= 1 has minimum distance 2.
    code = build_code(build_grid(F2, (2, 2)), 1)
    weights = [
        sum(1 for x in w if x)
        for w in brute.all_codewords(list(code.G), F2)
        if any(w)
    ]
    assert min(weights) == 2


def test_membership():
    grid = build_grid(F2, (2, 2))
    c1 = build_code(grid, 1)
    for row in c1.G:
        assert in_code(c1, row)
    assert in_code(c1, (0, 0, 0, 0))
    assert not in_code(c1, grid.monomial_values((1, 1)))
    assert in_code(build_code(grid, 2), grid.monomial_values((1, 1)))


def test_nested_codes():
    grid = build_grid(F3, (2, 3))
    for u2 in range(grid.shape.k):
        inner = build_code(grid, u2)
        for u1 in range(u2 + 1, grid.shape.k + 1):
            outer = build_code(grid, u1)
            for row in inner.G:
                assert in_code(outer, row)


def test_rref_properties():
    rows = [(1, 2, 0, 1), (2, 1, 1, 0), (0, 0, 0, 0), (1, 2, 0, 1)]
    reduced, pivots = rref(rows, F3)
    assert pivots == sorted(pivots)
    assert len(reduced) == len(pivots) == 2
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert row[p] == 1
        for j, other in enumerate(reduced):
            if i != j:
                assert other[p] == 0
    again, again_pivots = rref(reduced, F3)
    assert list(again) == list(reduced) and again_pivots == pivots
    assert len(pivots) == brute.rank_gf(rows, F3)
    assert rref([(0, 0)], F3) == ([], [])

