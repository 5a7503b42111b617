"""Affine Cartesian evaluation codes, the polynomials they evaluate, and
the small linear algebra they need.

A CartesianGrid is a product A_1 x ... x A_m of distinct-element subsets
of GF(q), with |A_i| = d_i ascending; its constructor (also named
`build_grid`, as CartesianCode's is `build_code`) is the one check of
sizes and explicit subsets.  Its shape holds the sorted sides, and the
grid the order they were given in (`permutation`).  Points are ordered
mixed-radix (last coordinate fastest), so a point's position is the
mixed-radix encoding of its index tuple, as in the box.

A MultiPoly is {exponent tuple: coefficient}, every exponent inside the
box (deg_{x_i} <= d_i - 1) and every coefficient a nonzero canonical field
encoding, each an int exactly; its constructor is the one check of an
exponent.  Its leading term is graded-lex: higher total degree wins, ties
broken lexicographically.  `make_maximal_poly(grid, b)` is the product
prod_i prod_{j < b_i} (x_i - A_i[j]), leading term x^b; those of the first
r band exponents attain the weight formula.

A grid evaluates a MultiPoly of its own shape and field one coordinate at
a time on whole rows: each stage is Kronecker products and sums of rows
with the power columns [a^e for a in A_i], through the Field's row
kernels (`Field.kron`, `Field.add_rows`).  The stages stop after the last
coordinate a term uses, since x^0 only repeats values.  It can stop at a
prefix of the points, whole values of x_1, which is all a common-zero
count needs past its first member.  A column is built when `evaluate`
first reads it, and kept, so a grid costs no more to build than its
subsets.

A CartesianCode of degree bound u evaluates every monomial x^a with
deg(a) <= u (exponents in the box) on the grid; rows of the generator
matrix follow descending lexicographic exponent order.  Evaluation is
injective on that monomial space, so dim = |{a : deg(a) <= u}|; this is
asserted by row reduction at construction, whose RREF also gives the
columns of a parity-check matrix (`parity_columns`).

Row reduction is plain RREF over the Field's int encodings, since every
matrix here is desk-scale; its row updates x - c*y go through the same
row kernels.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .boxcomb import BoxShape, DegreeBand, check_rank, iter_band
from .errors import RghwError, check_int, shown
from .gf import Field


def rref(rows: Iterable[Sequence[int]], field: Field):
    """Reduced row echelon form.  Returns (rows, pivot_columns); zero rows
    are dropped, pivots are 1 and alone in their column."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    reduced: list[list[int]] = []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pick = None
        for idx, row in enumerate(work):
            if row[col]:
                pick = idx
                break
        if pick is None:
            col += 1
            continue
        row = work.pop(pick)
        row = field.kron((field.inv(row[col]),), row)
        for other in chain(reduced, work):
            c = other[col]
            if c:  # other - c * row, from the pivot column on
                other[col:] = field.add_rows(other[col:], row[col:], field.neg(c))
        reduced.append(row)
        pivots.append(col)
        col += 1
    return [tuple(r) for r in reduced], pivots


class _Powers(dict):
    """{e: [a^e for a in A]} of one grid coordinate A; a column is built on first read."""

    __slots__ = ("field", "subset")

    def __init__(self, field: Field, subset):
        self.field, self.subset = field, subset

    def __missing__(self, e):
        column = self[e] = self.field.powers(self.subset, e)
        return column


class CartesianGrid:
    """Evaluation point set A_1 x ... x A_m; power columns built on first read.

    `sizes` are sorted ascending, equal ones keeping their order, with
    shape.d[i] == sizes[permutation[i]]; explicit `subsets` (one per size, in
    the order given, of that size, of distinct GF(q) encodings) go with them;
    without subsets, `policy` "first" takes the lowest d_i encodings of the
    field as A_i, and "last" the highest.

    The values of sum_e c_e x^e at the points are the Kronecker product of
    the per-coordinate Vandermonde maps [a^e for a in A_i] applied to the
    coefficients; `evaluate` applies them one coordinate at a time.
    """

    __slots__ = ("field", "shape", "permutation", "subsets", "_cols")

    def __init__(self, field: Field, sizes: Iterable[int], subsets=None, policy="first"):
        sizes = tuple(sizes)
        shape = BoxShape(sizes)
        order = tuple(sorted(range(len(sizes)), key=sizes.__getitem__))
        q = field.q
        check_int(shape.d[-1], 1, q, "d_m = {} > q = {hi}")
        if subsets is not None:
            if len(subsets) != shape.m:
                raise RghwError(f"{len(subsets)} subsets for an m = {shape.m} box")
            for i, (sub, size) in enumerate(zip(subsets, sizes)):
                if len(sub) != size:
                    raise RghwError(f"subset {i} has size {len(sub)}, box side is {size}")
                if len(set(sub)) != len(sub):
                    raise RghwError(f"subset {i} repeats elements: {shown(tuple(sub))}")
                for g in sub:
                    check_int(g, 0, q - 1, "element {} is not a GF({}) encoding", q)
            subsets = [subsets[i] for i in order]  # as the sizes, ascending
        elif policy == "first":
            subsets = [range(d) for d in shape.d]
        elif policy == "last":
            subsets = [range(q - d, q) for d in shape.d]
        else:
            raise RghwError(f"unknown subset policy {shown(policy)}")
        self.field = field
        self.shape = shape
        self.permutation = order
        self.subsets = tuple(tuple(s) for s in subsets)
        self._cols = tuple(_Powers(field, sub) for sub in self.subsets)

    def monomial_values(self, exp) -> tuple:
        """Values of x^exp at every grid point, in point order."""
        self.shape.require_point(exp, "exponent")  # before a list is made a dict key
        return self.evaluate(MultiPoly(self.field, self.shape, {exp: 1}))

    def evaluate(self, poly: MultiPoly, count=None) -> tuple:
        """Values of `poly` at the grid points before `count` (all n without
        it), rounded up to whole values of the first coordinate, in point
        order.  A polynomial of another shape or field raises RghwError; its
        exponents were checked when it was built.

        Stage i turns a table {(e_i, ..., e_m): row over the points of the
        first i - 1 coordinates} into one keyed by (e_{i+1}, ..., e_m), each
        row the sum of the Kronecker products of its rows with their power
        columns [a^(e_i) for a in A_i].  A stage costs (distinct keys) *
        (points of the first i coordinates) products and as many sums.
        Stage 1 reads the first ceil(count / (n / d_1)) entries of each
        column, and later stages keep that prefix, since x_1 varies slowest.
        The stages stop after x_t, the last coordinate a term uses: each
        value repeats over tail = d_{t+1}...d_m points (all kept ones, if t = 0).
        """
        if poly.shape != self.shape or poly.field != self.field:
            raise RghwError("polynomial and grid disagree on box shape or field")
        kron, add_rows = self.field.kron, self.field.add_rows
        n, d1 = self.shape.n, self.shape.d[0]
        head = d1 if count is None else min(d1, -(-count * d1 // n))  # values of x_1 kept
        cut = head < d1
        rows = {e: (c,) for e, c in poly.terms.items()}
        for cols in self._cols:
            if len(rows) < 2 and not any(next(iter(rows), ())):  # every exponent left is 0
                break
            step: dict = {}
            for exp, row in rows.items():
                rest = exp[1:]
                part = kron(row, cols[exp[0]][:head] if cut else cols[exp[0]])
                have = step.get(rest)
                step[rest] = part if have is None else add_rows(have, part)
            rows, cut = step, False
        row = next(iter(rows.values()), (0,))
        tail = head * (n // d1) // (len(row) or 1)  # the row is empty for count 0
        return tuple(row) if tail == 1 else tuple(chain.from_iterable(map(repeat, row, repeat(tail))))

    def __repr__(self) -> str:
        return f"CartesianGrid(GF({self.field.q}), {self.shape.d})"


build_grid = CartesianGrid


class CartesianCode:
    """Evaluation code of the monomials with deg <= d on a grid."""

    __slots__ = ("grid", "d", "basis", "G", "parity_columns")

    def __init__(self, grid: CartesianGrid, d: int):
        check_int(d, 0, grid.shape.k, "degree bound {} outside 0..{hi}")
        self.grid = grid
        self.d = d
        self.basis = tuple(iter_band(grid.shape, DegreeBand(-1, d)))
        self.G = tuple(grid.monomial_values(exp) for exp in self.basis)
        reduced, pivots = rref(self.G, grid.field)
        if len(pivots) != len(self.basis):
            raise AssertionError(
                f"evaluation not injective on degree <= {d}: "
                f"rank {len(pivots)} != {len(self.basis)} monomials"
            )
        # columns of the parity-check matrix H = [-A^T | I] read off the RREF
        # [I | A]: one check per non-pivot column j, 1 at j and -rref[i][j]
        # at pivot i; n - k entries per column
        field = grid.field
        taken = set(pivots)
        free = [j for j in range(self.length) if j not in taken]
        columns = [None] * self.length
        for t, j in enumerate(free):
            columns[j] = tuple(int(s == t) for s in range(len(free)))
        for row, p in zip(reduced, pivots):
            columns[p] = tuple(field.neg(row[j]) for j in free)
        self.parity_columns = tuple(columns)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def length(self) -> int:
        return self.grid.shape.n

    def __repr__(self) -> str:
        return (
            f"CartesianCode(GF({self.grid.field.q}), d={self.grid.shape.d}, "
            f"deg<={self.d}, [{self.length},{self.dim}])"
        )


build_code = CartesianCode


# -- polynomials on the grid ------------------------------------------------------


class LeadingTerm(NamedTuple):
    exponent: tuple
    coefficient: int


class MultiPoly:
    __slots__ = ("field", "shape", "terms")

    def __init__(self, field: Field, shape: BoxShape, terms: dict):
        clean = {}
        for exp, c in terms.items():
            if not shape.contains(exp):  # a bool test per term, and a call only to raise
                shape.require_point(exp, "exponent")
            check_int(c, 0, field.q - 1, "coefficient {} is not a canonical GF({}) encoding", field.q)
            if c:
                clean[exp] = c
        self.field = field
        self.shape = shape
        self.terms = clean

    def leading_term(self) -> LeadingTerm | None:
        if not self.terms:
            return None
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return LeadingTerm(exp, self.terms[exp])

    def render(self) -> str:
        """Human form like 'x1*x2^2 + 2*x1*x2'; coefficients are canonical ints."""
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            vars_ = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not vars_:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(vars_))
            else:
                pieces.append("*".join([str(c)] + vars_))
        return " + ".join(pieces)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.shape == self.shape
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.shape, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()!r} over GF({self.field.q}))"


def make_maximal_poly(grid: CartesianGrid, b) -> MultiPoly:
    """The canonical degree-|b| polynomial with leading exponent b that
    vanishes on every grid point whose index tuple does not dominate b.

    Each coordinate's factor prod_{j < b_i} (x - A_i[j]) is multiplied out
    as a coefficient list (lowest degree first); the product over the
    coordinates is their outer product."""
    shape = grid.shape
    shape.require_point(b)
    field = grid.field
    terms = {(): 1}
    for bi, subset in zip(b, grid.subsets):
        factor = [1]
        for gamma in subset[:bi]:  # factor *= (x - gamma): shifted up, plus -gamma times kept
            factor = field.add_rows([0] + factor, factor + [0], field.neg(gamma))
        terms = {
            exp + (e,): field.mul(c, fc)
            for exp, c in terms.items()
            for e, fc in enumerate(factor)
            if fc
        }
    return MultiPoly(field, shape, terms)


def common_zero_count(fs: Sequence[MultiPoly], grid: CartesianGrid) -> int:
    """Number of grid points where every polynomial of the family vanishes;
    each member is evaluated only up to the last common zero of those before
    it, and only over the coordinates up to the last one it uses (`evaluate`)."""
    if not fs:
        raise RghwError("common_zero_count needs at least one polynomial")
    if any(f.shape != grid.shape or f.field != grid.field for f in fs):
        raise RghwError("polynomial and grid disagree on box shape or field")
    alive = range(grid.shape.n)
    for f in fs:
        values = grid.evaluate(f, alive[-1] + 1)
        alive = [i for i in alive if not values[i]]
        if not alive:
            break
    return len(alive)


def maximal_family(grid: CartesianGrid, band: DegreeBand, r: int) -> list[MultiPoly]:
    """Canonical family for the first r band exponents, from one descending-lex band walk."""
    check_rank(grid.shape, band, r)
    return [make_maximal_poly(grid, b) for b in islice(iter_band(grid.shape, band), r)]


def random_poly(field: Field, shape: BoxShape, rng: Random) -> MultiPoly:
    """Nonzero polynomial with 1..4 random box exponents; for the seeded
    footprint-bound sweeps."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randrange(s) for s in shape.d)
        terms[exp] = rng.randint(1, field.q - 1)
    return MultiPoly(field, shape, terms)
