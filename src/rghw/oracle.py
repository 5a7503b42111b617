"""Independent brute-force oracles for the weight formula.

Two routes, deliberately not sharing logic with the closed formula or
with each other; `verify` runs both, and `hierarchy --oracle` the first:

* SupportOracle(c1, c2).rank(r) enumerates r-dimensional subspaces D of
  C1 with D intersecting C2 trivially, as graphs over the monomial
  complement W (C1 = C2 (+) W): reduced-echelon representatives of r-dim
  subspaces of W paired with arbitrary linear maps into C2, which covers
  every valid D exactly once.  It minimizes |supp(D)| = |union of
  generator supports| with branch-and-bound on the running support
  union, over echelon-valid rows only.  Candidate rows are built as
  packed-int cosets (gf.PackedVectors), so a translate is one XOR in
  characteristic 2 and, for odd p, one int add with a carry correction,
  and its support mask is read off the nonzero slots.  Relative weights
  strictly increase, M_i + r - i <= M_r for i < r (Luo, Mitrpant, Vinck,
  Chen, "Some new characters on the wire-tap channel of type II", IEEE
  Trans. Inf. Theory 51, 2005; M_0 = 0), so rank r stops at the first
  subspace reaching that bound for the highest rank i < r the object has
  answered, and i = 0 when there is none.  A full search keeps the first
  subspace of its optimum, and that optimum is at least the bound, so
  values and witnesses are those of a search with no bound.  The caller
  holds the object, and with it the set-up, while it asks ranks of the
  pair; verify holds one per band and asks its ranks in ascending order,
  so rank r gets the bound M_{r-1} + 1.  oracle_rghw_support(c1, c2, r,
  budget) holds the latest pair's object for callers that pass codes.

* oracle_rghw_window scans coordinate windows J by ascending size and
  returns the first with dim (C1)_J - dim (C2)_J = r, where (C)_J is the
  subcode supported inside J.  With H a parity-check matrix of C,
  dim C_J = |J| - rank(H_J); the windows of one size are walked depth
  first, with the parity-check columns of J pushed into semi-echelon
  bases incrementally and popped on backtrack (a state is one window).

A third route, which maximizes common grid zeros over families of
monic polynomials directly, is a test reference in tests/brute.py, built
on `_coset_masks` here and `gf.digits`.

All enumeration is deterministic (fixed candidate orders, ties broken by
ascending coefficient encoding), so two runs return identical witnesses.
Every oracle spends against an OracleBudget and raises BudgetExceeded --
a hard error, never a wrong answer.
"""

from __future__ import annotations

import time
from itertools import combinations, cycle, filterfalse, repeat
from math import comb
from operator import lshift, or_
from typing import NamedTuple

from .boxcomb import DegreeBand, check_rank
from .codes import CartesianCode
from .errors import BudgetExceeded, RghwError, check_int, shown
from .gf import PackedVectors, digits

DEFAULT_MAX_STATES = 10**8
DEFAULT_TIME_CAP = 300
MAX_TIME_CAP = 10**9  # about 32 years; time.monotonic() + the cap must stay a float


class OracleBudget(NamedTuple("OracleBudget", [("max_states", int), ("time_cap", int)])):
    """States and wall-clock seconds an oracle call may spend."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace calls it

    def __new__(cls, max_states: int = DEFAULT_MAX_STATES, time_cap: int = DEFAULT_TIME_CAP):
        if type(max_states) is not int or type(time_cap) is not int:
            raise RghwError(f"budget {shown(max_states)} states, {shown(time_cap)} s is not two ints")
        check_int(max_states, 1, None, "state budget {} is below 1")
        check_int(time_cap, 0, None, "time budget {} s is negative")
        if time_cap > MAX_TIME_CAP:  # unprinted: it may have more digits than str() allows
            raise RghwError(f"time budget is above {MAX_TIME_CAP} s")
        return super().__new__(cls, max_states, time_cap)


class OracleResult(NamedTuple):
    value: int
    witnesses: tuple
    states_explored: int
    method: str


class _Meter:
    """Budget bookkeeping; time is polled every 2048 states."""

    __slots__ = ("max_states", "deadline", "states", "_next_poll")

    def __init__(self, budget: OracleBudget):
        self.max_states = budget.max_states
        self.deadline = time.monotonic() + budget.time_cap
        self.states = 0
        self._next_poll = 2048

    def spend(self, k: int = 1) -> None:
        self.states += k
        if self.states > self.max_states:
            self.states = self.max_states + 1  # where a one-by-one walk would stop
            raise BudgetExceeded(
                f"state budget exhausted ({self.states} > {self.max_states})",
                self.states,
            )
        if self.states >= self._next_poll:
            self._next_poll = self.states + 2048
            if time.monotonic() > self.deadline:
                raise BudgetExceeded(
                    f"time budget exhausted after {self.states} states", self.states
                )


def _pair_band(c1: CartesianCode, c2: CartesianCode | None) -> DegreeBand:
    """The band (u2, u1] of C2 < C1 (None: the zero code), codes of one grid."""
    if c2 is not None and (c2.grid.field != c1.grid.field or c2.grid.subsets != c1.grid.subsets):
        raise RghwError("C1 and C2 live on different grids")
    return DegreeBand(-1 if c2 is None else c2.d, c1.d)


def _coset_masks(field, packing: PackedVectors, base, gens, meter: _Meter) -> list:
    """Support masks of base + span(gens), ordered so that the vector at
    index `enc` has generator coefficients equal to the base-q digits of
    enc (digit j = coefficient of gens[j]).  The q**len(gens) - 1 new
    vectors are charged before any is built, so a coset over budget
    allocates nothing."""
    meter.spend(field.q ** len(gens) - 1)
    vectors = [packing.pack(base)]
    for g in gens:
        block = vectors[:]
        for c in range(1, field.q):
            vectors += packing.translates(block, packing.pack(field.kron((c,), g)))
    return packing.supports(vectors)


# -- support route ----------------------------------------------------------------


class SupportOracle:
    """Relative weights of one pair C2 < C1 (C2 = None: the zero code) by
    the graph enumeration; the caller holds it for as long as it asks ranks
    of the pair, and dropping it frees the set-up.

    The first `rank` call builds the set-up.  wrows are the generator rows
    of C1 whose exponents have degree above u2 (the complement W, in
    descending-lex exponent order).  For each pivot p, masks[p] holds the
    support masks of w_p + span(wrows[p+1:], C2) by encoding, and
    candidates[p] one sorted int per codeword, support size << shift |
    encoding << ell | W mask; shift clears the first (largest) coset's
    encoding << ell | W mask, so the order is that of (support size,
    encoding).  W mask bit j is set when wrows[p+1+j] has a nonzero
    coefficient.  Under later pivots F the echelon-valid rows are those
    whose W mask misses F (key & F == 0), w_p + span(later non-pivot W
    rows, C2), and run() visits only those (one state each).  A
    combination of pivots lists a depth's rows when it first enters that
    depth, one list per pivot: never more keys than candidates holds, and
    dropped when the combination ends.  solved maps each answered rank to
    its value, which bounds the ranks above it from below (see `rank`).
    """

    masks = None  # set, with the rest of the set-up, by the first rank call

    def __init__(self, c1: CartesianCode, c2: CartesianCode | None):
        self.c1, self.c2 = c1, c2
        self.band = _pair_band(c1, c2)  # the pair is checked here, r by `rank`
        self.solved: dict = {}  # rank -> value

    def rank(self, r: int, budget: OracleBudget | None = None) -> OracleResult:
        """Exact min |supp(D)| over r-dim subspaces D of C1 with trivial
        intersection with C2, searched with the bound M_i + r - i of the
        highest answered rank i < r (M_0 = 0).  Its states are the set-up's
        (one per coset translate, charged again on every call) plus the
        rows it visited."""
        c1, c2 = self.c1, self.c2
        check_rank(c1.grid.shape, self.band, r)
        meter = _Meter(budget or OracleBudget())
        if self.masks is not None:
            meter.spend(self.setup_states)
        else:  # built into locals, so that a refused set-up leaves nothing held
            field = c1.grid.field
            u2 = self.band.u2
            wrows = tuple(row for exp, row in zip(c1.basis, c1.G) if sum(exp) > u2)
            g2rows = tuple(c2.G) if c2 is not None else ()
            ell = len(wrows)
            packing = PackedVectors(field.p, field.e, c1.length)
            shift = ((field.q ** (ell - 1 + len(g2rows)) - 1) << ell).bit_length()
            masks, candidates = [], []
            for p in range(ell):
                coset = _coset_masks(field, packing, wrows[p], wrows[p + 1 :] + g2rows, meter)
                wmasks = [0]  # W mask of each W-digit encoding
                for j in range(ell - p - 1):
                    wmasks += [m | 1 << j for m in wmasks] * (field.q - 1)
                codes = map(or_, map(lshift, range(len(coset)), repeat(ell)), cycle(wmasks))
                pops = map(lshift, map(int.bit_count, coset), repeat(shift))
                masks.append(coset)
                candidates.append(sorted(map(or_, pops, codes)))
            self.wrows, self.g2rows, self.ell, self.shift = wrows, g2rows, ell, shift
            self.masks, self.candidates, self.setup_states = masks, candidates, meter.states
        below = max((j for j in self.solved if j < r), default=0)
        value, rows = self.run(r, meter, self.solved.get(below, 0) + r - below)
        self.solved[r] = value
        witnesses = tuple(self.row_vector(p, enc) for p, enc in rows)
        return OracleResult(value, witnesses, states_explored=meter.states, method="support")

    def row_vector(self, p: int, enc: int):
        field = self.c1.grid.field
        vec = self.wrows[p]
        gens = self.wrows[p + 1 :] + self.g2rows
        for c, g in zip(digits(enc, field.q, len(gens)), gens):
            if c:
                vec = field.add_rows(vec, g, c)
        return tuple(vec)

    def run(self, r: int, meter: _Meter, floor: int):
        """Best (support size, [(pivot, encoding)]) of rank r, stopping at
        the first one of size `floor`."""
        # deterministic warm start: the r lowest-support W basis rows span a
        # valid D (identity echelon pattern, zero map into C2); masks[p][0],
        # encoding 0, is the support of w_p itself
        masks = self.masks
        order = sorted(range(self.ell), key=lambda i: (masks[i][0].bit_count(), i))
        start = sorted(order[:r])
        union = 0
        for p in start:
            union |= masks[p][0]
        best = union.bit_count()
        best_rows = [(p, 0) for p in start]
        if best == floor:
            return best, best_rows
        limit = best  # what a row must beat; 0 once best reaches floor, so every loop stops
        ell, shift, low = self.ell, self.shift, (1 << self.shift) - 1  # low: encoding, W mask

        for pivots in combinations(range(ell), r):
            chosen: list = []
            pivot_mask = sum(1 << p for p in pivots)  # >> p + 1: later pivots of p
            # each depth's rows, listed on first entry; the last pivot has no later one
            views = [None] * (r - 1) + [self.candidates[pivots[-1]]]

            def descend(depth: int, union_mask: int) -> None:
                nonlocal best, best_rows, limit
                p = pivots[depth]
                rows = views[depth]
                if rows is None:
                    rows = filterfalse((pivot_mask >> p + 1).__and__, self.candidates[p])
                    if depth:  # depth 0 is entered once per combination: filtered lazily
                        rows = views[depth] = list(rows)
                i = -1
                for i, key in enumerate(rows):
                    if key >> shift >= limit:
                        break
                    enc = (key & low) >> ell
                    merged = union_mask | masks[p][enc]
                    if merged.bit_count() >= limit:
                        continue
                    chosen.append((p, enc))
                    if depth + 1 == r:
                        total = merged.bit_count()
                        if total < limit:
                            best = total
                            best_rows = list(chosen)
                            limit = total if total > floor else 0
                    else:
                        descend(depth + 1, merged)
                    chosen.pop()
                meter.spend(i + 1)

            try:
                descend(0, 0)
            finally:  # descend calls itself through its cell: free that cycle now
                descend = None
            if not limit:
                break
        return best, best_rows


# the object of the latest pair asked through oracle_rghw_support, found again
# by the identity of its codes; replacing it frees the old set-up at once
_held = None


def oracle_rghw_support(
    c1: CartesianCode, c2: CartesianCode | None, r: int, budget: OracleBudget | None
) -> OracleResult:
    """`SupportOracle(c1, c2).rank(r, budget)` for callers that pass codes;
    calls on one pair in a row share an object, which a valid call on
    another pair replaces (so alternating pairs rebuilds every set-up)."""
    global _held
    if _held is None or _held.c1 is not c1 or _held.c2 is not c2:
        oracle = SupportOracle(c1, c2)
        check_rank(c1.grid.shape, oracle.band, r)  # an invalid call keeps the held pair
        _held = oracle
    return _held.rank(r, budget)


# -- window route -----------------------------------------------------------------


def oracle_rghw_window(
    c1: CartesianCode,
    c2: CartesianCode | None,
    r: int,
    budget: OracleBudget | None = None,
) -> OracleResult:
    """Smallest coordinate window J with dim (C1)_J - dim (C2)_J = r.

    Scans windows by ascending size, lexicographically within a size (one
    state each).  With H a parity-check matrix of C, dim C_J = |J| -
    rank(H_J), so the gap is rank(H2_J) - rank(H1_J), and rank(H2_J) = |J|
    for the zero code.  Each size is walked depth first, pushing the
    parity-check columns of each new coordinate into semi-echelon bases
    and popping them on backtrack, so a window costs O(1) reductions.  A
    coordinate raises the gap by at most 1, so a subtree that cannot reach
    r is charged its windows without reducing anything."""
    check_rank(c1.grid.shape, _pair_band(c1, c2), r)
    meter = _Meter(budget or OracleBudget())
    field = c1.grid.field
    add_rows, mul, neg, inv = field.add_rows, field.mul, field.neg, field.inv
    n = c1.length
    h1 = c1.parity_columns
    h2 = c2.parity_columns if c2 is not None else None
    # semi-echelon bases: (pivot p, row y with 0 at every earlier pivot, -1/y[p])
    b1: list = []
    b2: list = []
    window: list = []

    def reduce(basis: list, x):
        for p, y, m in basis:
            if x[p]:  # x - (x[p]/y[p]) y
                x = add_rows(x, y, mul(x[p], m))
        return x

    def push(basis: list, x) -> bool:
        x = reduce(basis, x)
        for p, c in enumerate(x):
            if c:
                basis.append((p, x, neg(inv(c))))
                return True
        return False

    def walk(start: int, left: int) -> bool:
        """Extends `window` by `left` >= 1 coordinates from `start` on, in
        lexicographic order; True (window kept) at the first gap of r."""
        base = (len(window) if h2 is None else len(b2)) - len(b1)
        if base + left < r:  # the gap grows by at most 1 a coordinate
            meter.spend(comb(n - start, left))  # the subtree's windows at once
            return False
        for j in range(start, n - left + 1):
            window.append(j)
            if left > 1:
                grew1 = push(b1, h1[j])
                grew2 = h2 is not None and push(b2, h2[j])
                if walk(j + 1, left - 1):
                    return True
                if grew1:
                    b1.pop()
                if grew2:
                    b2.pop()
            else:  # a window: each rank grows by 0 or 1
                meter.spend()
                grow2 = h2 is None or any(reduce(b2, h2[j]))
                if base + grow2 - any(reduce(b1, h1[j])) == r:
                    return True
            window.pop()
        return False

    meter.spend()  # the empty window, gap 0
    try:
        for size in range(1, n + 1):
            if walk(0, size):
                return OracleResult(
                    value=size,
                    witnesses=tuple(i + 1 for i in window),
                    states_explored=meter.states,
                    method="window",
                )
    finally:  # walk calls itself through its cell: free that cycle now
        walk = None
    raise AssertionError(f"no window with dimension gap {r}")  # unreachable for valid r
