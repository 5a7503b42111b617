"""Sparse multivariate polynomials reduced modulo the exponent box.

A MultiPoly stores {exponent tuple: coefficient} with every exponent
inside the box (deg_{x_i} <= d_i - 1) and every coefficient a nonzero
canonical field encoding.  The leading term is taken in graded
lexicographic order: higher total degree wins, ties broken
lexicographically on the exponent tuple.

`make_maximal_poly` builds the product
    prod_i prod_{j=1..b_i} (x_i - A_i[j-1])
whose leading term is exactly x^b and whose nonvanishing points are the
grid points whose coordinate indices dominate b; families of these for
the first r band exponents attain the weight formula, which is what the
attainment checks exercise.
"""

from __future__ import annotations

from itertools import islice
from random import Random
from typing import NamedTuple, Sequence

from .boxcomb import BoxShape, DegreeBand, check_rank, iter_band
from .codes import CartesianGrid
from .errors import RghwError
from .gf import Field


class LeadingTerm(NamedTuple):
    exponent: tuple
    coefficient: int


class MultiPoly:
    __slots__ = ("field", "shape", "terms")

    def __init__(self, field: Field, shape: BoxShape, terms: dict):
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if not shape.contains(exp):
                raise RghwError(f"exponent {exp!r} outside box {shape.d}")
            if not 0 <= c < field.q:
                raise RghwError(f"coefficient {c!r} is not a canonical GF({field.q}) encoding")
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
    b = tuple(b)
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
        values = grid.evaluate(f.terms, alive[-1] + 1)
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
