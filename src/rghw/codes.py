"""Affine Cartesian evaluation codes and the small linear algebra they need.

A CartesianGrid is a product A_1 x ... x A_m of distinct-element subsets
of GF(q), with |A_i| = d_i ascending; its constructor (also named
`build_grid`, as CartesianCode's is `build_code`) is the one check of
sizes and explicit subsets.  Its shape holds the sorted sides, and the
grid the order they were given in (`permutation`).  Points are ordered
mixed-radix (last coordinate fastest), so a point's position is the
mixed-radix encoding of its index tuple, as in the box.

A grid evaluates a polynomial one coordinate at a time on whole rows:
each stage is Kronecker products and sums of rows with the power columns
[a^e for a in A_i], through the Field's row kernels (`Field.kron`,
`Field.add_rows`).  The stages stop after the last coordinate a term
uses, since x^0 only repeats values.  It can stop at a prefix of the
points, whole values of x_1, which is all a common-zero count needs past
its first member.  A column is built when `evaluate` first reads it, and
kept, so a grid costs no more to build than its subsets.

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

from itertools import chain, repeat
from typing import Iterable, Sequence

from .boxcomb import BoxShape, DegreeBand, iter_band
from .errors import RghwError
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
        if not 0 <= e < len(self.subset):
            raise RghwError(f"exponent {e!r} outside 0..{len(self.subset) - 1} of a grid side")
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
        if shape.d[-1] > q:
            raise RghwError(f"d_m = {shape.d[-1]} > q = {q}")
        if subsets is not None:
            if len(subsets) != shape.m:
                raise RghwError(f"{len(subsets)} subsets for an m = {shape.m} box")
            for i, (sub, size) in enumerate(zip(subsets, sizes)):
                if len(sub) != size:
                    raise RghwError(f"subset {i} has size {len(sub)}, box side is {size}")
                if len(set(sub)) != len(sub):
                    raise RghwError(f"subset {i} repeats elements: {tuple(sub)}")
                for g in sub:
                    if not 0 <= g < q:
                        raise RghwError(f"element {g!r} is not a GF({q}) encoding")
            subsets = [subsets[i] for i in order]  # as the sizes, ascending
        elif policy == "first":
            subsets = [range(d) for d in shape.d]
        elif policy == "last":
            subsets = [range(q - d, q) for d in shape.d]
        else:
            raise RghwError(f"unknown subset policy {policy!r}")
        self.field = field
        self.shape = shape
        self.permutation = order
        self.subsets = tuple(tuple(s) for s in subsets)
        self._cols = tuple(_Powers(field, sub) for sub in self.subsets)

    def monomial_values(self, exp) -> tuple:
        """Values of x^exp at every grid point, in point order."""
        return self.evaluate({tuple(exp): 1})

    def evaluate(self, terms: dict, count=None) -> tuple:
        """Values of sum c_e x^e over `terms` = {e: c} at the grid points
        before `count` (all n without it), rounded up to whole values of the
        first coordinate, in point order.  An exponent outside the box raises
        RghwError: its length here, its entries when a stage reads them.

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
        kron, add_rows = self.field.kron, self.field.add_rows
        n, d1, m = self.shape.n, self.shape.d[0], len(self._cols)
        for e in terms:
            if len(e) != m:
                raise RghwError(f"exponent {e!r} has {len(e)} coordinates, the grid {m}")
        head = d1 if count is None else min(d1, -(-count * d1 // n))  # values of x_1 kept
        cut = head < d1
        rows = {e: (c,) for e, c in terms.items()}
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
        if not 0 <= d <= grid.shape.k:
            raise RghwError(f"degree bound {d} outside 0..{grid.shape.k}")
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
