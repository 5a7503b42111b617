"""The three benchmark workloads.

Each workload turns a seed into one round of requests.  A run repeats
that same round until its time is up, so every round does identical work
and its counters repeat exactly.  Requests go through the public calls
the matching `rghw` subcommand makes; each call is wrapped in a tracer
span named after the layer and function it enters.

A request returns (output, work).  `check` compares the output with a
route from `reference.py`, which shares no code with the layer under test.
"""

from __future__ import annotations

import json
from math import prod
from random import Random

from rghw import (
    BoxShape,
    BudgetExceeded,
    DegreeBand,
    Field,
    OracleBudget,
    WeightQuery,
    band_size,
    build_code,
    build_grid,
    common_zero_count,
    hierarchy,
    maximal_family,
    oracle_rghw_support,
    oracle_rghw_window,
    rghw,
)
from rghw.cli import hierarchy_json_obj

import reference


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _weight(shape, band, r):
    return rghw(WeightQuery(shape, band, r))


class Workload:
    """One round of requests.  FIELDS lists the q whose Field is built
    during set-up; `round` sends the requests through `runner`."""

    name = ""
    FIELDS: tuple = ()
    SHORT_FIELDS: tuple = ()

    @classmethod
    def fields_for(cls, short: bool) -> tuple:
        return cls.SHORT_FIELDS if short else cls.FIELDS

    def __init__(self, seed: int, short: bool, corrupt: bool = False):
        self.rng = Random(seed)
        # corrupt adds 1 to every expected value: a self-test that the
        # checks fail requests (see test_perfbench.py)
        self.offset = 1 if corrupt else 0
        self.seen_shapes: set = set()

    def first_on_shape(self, shape) -> str | None:
        """'first' for the first rghw call on a shape in this process, which
        pays the cold rank-table build."""
        if shape in self.seen_shapes:
            return None
        self.seen_shapes.add(shape)
        return "first"

    def check(self, key, output, outputs) -> None:
        raise NotImplementedError

    def check_round(self, outputs: dict, work: dict) -> list[str]:
        """Checks that span requests; returns problems."""
        return []


# -- verify-sweep -------------------------------------------------------------------


class VerifySweep(Workload):
    """`rghw verify --max-n 8`: the default fields and shapes up to eight
    points, every tuple confirmed by the formula, both oracles and the
    attaining family.

    The default grid's n = 9 boxes are left out: over GF(4) the (3, 3)
    box alone takes 20 s a pass, in single oracle calls of up to 7 s, and
    a step that long cannot be timed steadily on a shared host.  Without
    them a pass takes about 3 s and a run repeats every call many times."""

    name = "verify-sweep"
    QS = (2, 3, 4)
    SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))
    MAX_N, WINDOW_MAX_N = 8, 8
    FIELDS, SHORT_FIELDS = QS, (2, 3)

    def __init__(self, seed, short, corrupt=False):
        super().__init__(seed, short, corrupt)
        qs = self.fields_for(short)
        max_n = 4 if short else self.MAX_N
        self.grids = [
            (q, sizes)
            for q in qs
            for sizes in self.SHAPES
            if max(sizes) <= q and prod(sizes) <= max_n
        ]
        self.rng.shuffle(self.grids)  # the seed only orders the grids
        self.budget = OracleBudget()

    def expected_records(self) -> int:
        """Tuples in the sweep, counted by enumerating every band."""
        total = 0
        for _, sizes in self.grids:
            k = sum(s - 1 for s in sizes)
            for u1 in range(k + 1):
                for u2 in range(-1, u1):
                    total += len(reference.brute_band(sizes, u2, u1))
        return total

    def round(self, runner, tracer, fields):
        for q, sizes in self.grids:
            shape, grid, codes = runner.prepare(self._prepare, tracer, fields[q], sizes)
            for u1 in range(shape.k + 1):
                for u2 in range(-1, u1):
                    band = DegreeBand(u2, u1)
                    ell = runner.prepare(tracer.call, "boxcomb.band_size", band_size, shape, band)
                    c1 = codes[u1]
                    c2 = codes[u2] if u2 >= 0 else None
                    for r in range(1, ell + 1):
                        runner.request(
                            "verify",
                            (q, sizes, u1, u2, r),
                            self._verify,
                            tracer, shape, grid, band, c1, c2, r,
                        )

    @staticmethod
    def _prepare(tracer, field, sizes):
        shape = BoxShape(sizes)
        grid = tracer.call("codes.build_grid", build_grid, field, sizes)
        codes = {u: tracer.call("codes.build_code", build_code, grid, u) for u in range(shape.k + 1)}
        return shape, grid, codes

    def _verify(self, tracer, shape, grid, band, c1, c2, r):
        work = {"records": 1, "support_states": 0, "window_states": 0, "budget_exceeded": 0}
        formula = tracer.call("weights.rghw", _weight, shape, band, r, note=self.first_on_shape(shape)).m_r
        try:
            res = tracer.call(
                "oracle.support", oracle_rghw_support, c1, c2, r, self.budget,
                note="first" if r == 1 else None,
            )
            support = res.value
            work["support_states"] = res.states_explored
        except BudgetExceeded as exc:
            support = None  # SKIPPED, which the check fails
            work["support_states"] = exc.states_explored
            work["budget_exceeded"] += 1
        window = None
        if shape.n <= self.WINDOW_MAX_N:
            try:
                res = tracer.call("oracle.window", oracle_rghw_window, c1, c2, r, self.budget)
                window = res.value
                work["window_states"] = res.states_explored
            except BudgetExceeded as exc:
                window = "SKIPPED"
                work["window_states"] = exc.states_explored
                work["budget_exceeded"] += 1
        family = tracer.call("polynomials.maximal_family", maximal_family, grid, band, r)
        zeros = tracer.call("polynomials.common_zero_count", common_zero_count, family, grid)
        terms = sum(len(f.terms) for f in family)
        work["family_terms"] = terms
        work["term_evals"] = terms * shape.n
        return (formula, support, window, shape.n - zeros), work

    def check(self, key, output, outputs):
        q, sizes, u1, u2, r = key
        formula, support, window, attained = output
        expected = formula + self.offset
        require(support == expected, f"support oracle {support} != formula {expected}")
        if prod(sizes) <= self.WINDOW_MAX_N:
            require(window == expected, f"window oracle {window} != formula {expected}")
        require(attained == expected, f"attained {attained} != formula {expected}")

    def check_round(self, outputs, work):
        expected = self.expected_records()
        if work.get("records") != expected:
            return [f"{work.get('records')} records, brute enumeration of the bands gives {expected}"]
        return []


# -- formula-large ------------------------------------------------------------------


class FormulaLarge(Workload):
    """`rghw hierarchy --format json` on whole bands, and single-rank
    `rghw hierarchy --r` queries on huge boxes.  No field, no oracle.

    A round takes about a second, so a run repeats every request many
    times: the bands hold about 3*10^3 rows together, and (100, 100)
    enters through a narrow relative band rather than its 10^4-row full
    band, which alone would take a second."""

    name = "formula-large"

    def __init__(self, seed, short, corrupt=False):
        super().__init__(seed, short, corrupt)
        rng = self.rng
        if short:
            rel = 8 + rng.randrange(3)
            self.bands = [((10, 10), -1, 18, 11), ((10, 10), rel, rel + 4, 11),
                          ((3,) * 4, -1, 8, 3), ((2,) * 6, -1, 6, 2)]
            big, per_band, cross = 8, 2, 1
        else:
            rel = 75 + rng.randrange(10)
            self.bands = [((30, 30), -1, 58, 31), ((100, 100), rel, rel + 5, 101),
                          ((3,) * 6, -1, 12, 3), ((2,) * 10, -1, 10, 2)]
            # (31623, 31623) queries are the majority, so that the median
            # request is one of them and not a boundary between shapes
            big, per_band, cross = 36, 1, 1
        plan = [("band", i) for i in range(len(self.bands))]
        # A rank query costs time in proportion to how far a_r lies below the
        # top of the box, digit by digit.  On (31623, 31623) the ranks come
        # from points whose total distance is stratified: the seed picks the
        # points, not their spread of costs.
        top = 31622
        for i in range(big):
            dist = int((i + rng.random()) * 2 * top / big)
            x = rng.randint(max(0, dist - top), min(top, dist))
            r = reference.weight_reference((top + 1, top + 1), -1, 2 * top, (top - x, top - dist + x))[0]
            plan.append(("rank", (top + 1, top + 1), -1, 2 * top, r))
        groups = []
        for sizes in ((1000, 1000, 1000), (2,) * 40, (7, 13, 101, 997)):
            k = sum(s - 1 for s in sizes)
            u2 = rng.randrange(k // 4, k // 2)
            groups += [(sizes, -1, k, per_band), (sizes, u2, u2 + 1 + rng.randrange(k // 4), per_band)]
        groups += [(sizes, u2, u1, cross) for sizes, u2, u1, _ in self.bands]
        for sizes, u2, u1, count in groups:
            # one seeded rank in each of `count` equal slices of the band:
            # the ranks differ with the seed, their spread of costs does not
            ell = reference.count_band(sizes, u2, u1)
            plan += [("rank", sizes, u2, u1, 1 + int((i + rng.random()) * ell / count)) for i in range(count)]
        rng.shuffle(plan)
        self.plan = plan

    def round(self, runner, tracer, fields):
        for key in self.plan:
            if key[0] == "band":
                sizes, u2, u1, q = self.bands[key[1]]
                runner.request("hierarchy", key, self._band, tracer, q, BoxShape(sizes), DegreeBand(u2, u1))
            else:
                _, sizes, u2, u1, r = key
                runner.request("rank", key, self._rank, tracer, BoxShape(sizes), DegreeBand(u2, u1), r)

    @staticmethod
    def _band(tracer, q, shape, band):
        report = tracer.call("weights.hierarchy", hierarchy, shape, band)
        obj = tracer.call("cli.hierarchy_json_obj", hierarchy_json_obj, q, shape, band, report.records)
        text = json.dumps(obj, indent=2)
        n = len(report.records)
        return (report.records, text), {"records": n, "hierarchy_records": n}

    def _rank(self, tracer, shape, band, r):
        rec = tracer.call("weights.rghw", _weight, shape, band, r, note=self.first_on_shape(shape))
        return rec, {"records": 1}

    def check(self, key, output, outputs):
        if key[0] == "band":
            self._check_band(self.bands[key[1]], *output)
            return
        _, sizes, u2, u1, r = key
        rec = output
        n = prod(sizes)
        a = rec.a_r
        require(len(a) == len(sizes) and all(0 <= x < s for x, s in zip(a, sizes)), f"a_r {a} outside the box")
        require(u2 < sum(a) <= u1, f"a_r {a} outside the band ({u2}, {u1}]")
        exp_r, exp_s, exp_m = reference.weight_reference(sizes, u2, u1, a)
        require(exp_r + self.offset == r, f"a_r {a} has rank {exp_r}, not {r}")
        require((rec.s, rec.m_r) == (exp_s, exp_m), f"(s, M_r) = {(rec.s, rec.m_r)}, expected {(exp_s, exp_m)}")
        require(rec.max_zeros == n - rec.m_r, "max_zeros != n - M_r")
        for i, (bsizes, bu2, bu1, _) in enumerate(self.bands):
            if (bsizes, bu2, bu1) == (sizes, u2, u1):
                row = outputs[("band", i)][0][r - 1]
                require(row == rec, f"single rank {rec} != full-band row {row}")

    def _check_band(self, band, records, text):
        sizes, u2, u1, _ = band
        n = prod(sizes)
        members = reference.brute_band(sizes, u2, u1)
        leq = {a: i + 1 for i, a in enumerate(reference.brute_band(sizes, -1, u1))}
        require(len(records) == len(members), f"{len(records)} rows, band has {len(members)}")
        rendered = json.loads(text)["results"]
        require(len(rendered) == len(records), "JSON row count differs")
        prev = 0
        for r, (rec, a, row) in enumerate(zip(records, members, rendered), 1):
            s = leq[a]
            m = n - reference.encode(sizes, a) - s + r + self.offset
            require(rec.r == r and rec.a_r == a and rec.s == s, f"row {r}: {rec} != brute ({a}, s={s})")
            require(rec.m_r == m and rec.max_zeros == n - m, f"row {r}: M_r {rec.m_r} != {m}")
            require(rec.m_r > prev, f"M_r not strictly increasing at r = {r}")
            prev = rec.m_r
            require(
                row == {"r": r, "a_r": list(a), "s": s, "M_r": rec.m_r,
                        "max_zeros": rec.max_zeros, "oracle": None},
                f"JSON row {r} is {row}",
            )
        if u2 == -1:
            require(prev == n, f"M_l = {prev} != n = {n}")

    def check_round(self, outputs, work):
        """Single ranks of one band, sorted by r: M_r strictly increasing
        and a_r strictly descending in lex order."""
        groups: dict = {}
        for key, rec in outputs.items():
            if key[0] == "rank":
                groups.setdefault(key[1:4], []).append(rec)
        problems = []
        for group, recs in groups.items():
            recs.sort(key=lambda rec: rec.r)
            for lo, hi in zip(recs, recs[1:]):
                if lo.r < hi.r and not (lo.m_r < hi.m_r and lo.a_r > hi.a_r):
                    problems.append(f"{group}: ranks {lo.r} < {hi.r} not monotone")
        return problems


# -- families-large -----------------------------------------------------------------


class FamiliesLarge(Workload):
    """`rghw maximal` over large fields: grid, attaining family, common
    zeros, on grids of about 10^3 points."""

    name = "families-large"
    # 101 and 257: a prime table and the no-table prime path; 243 and 256:
    # extension tables; 1024: the no-table digit path
    FIELDS, SHORT_FIELDS = (101, 243, 256, 257, 1024), (101, 257)

    def __init__(self, seed, short, corrupt=False):
        super().__init__(seed, short, corrupt)
        rng = self.rng

        # Table fields get many requests on seeded boxes, so request costs
        # spread evenly and the median and tail fall inside that spread.
        # GF(1024) is some 25 times slower per point; its one fixed small box
        # keeps the round's cost from swinging with the seed.  Every side
        # exceeds u1, so the first five band members are the same on every
        # box.  Grids stay near 10^3 points so that a round takes about a
        # second and a run repeats every request many times.
        if short:
            n_slices, sides, ranks, box_1024 = ((216, 300), (300, 400)), {2: (8, 40), 3: (6, 8)}, range(1, 4), (7, 7)
        else:
            n_slices = tuple((lo, lo + 160) for lo in range(800, 1600, 160))
            sides, ranks, box_1024 = {2: (20, 80), 3: (7, 16)}, range(1, 6), (10, 10)

        def random_box(m, lo, hi):
            while True:
                box = tuple(sorted(rng.randint(*sides[m]) for _ in range(m)))
                if lo <= prod(box) < hi:
                    return box

        lower = (-1, 0, 1, 2)  # u2
        plan = []
        groups = 0
        for q in self.fields_for(short):
            if q == 1024:
                plan.extend((q, box_1024, rng.choice(lower), 6, r) for r in ranks)
                continue
            for m, u1 in ((2, 6), (3, 5)):
                # A request costs about (family terms, set by r) * (points).
                # The ranks of a group take their point counts from different
                # slices, paired with r by a fixed rotation: the seed picks
                # the boxes, not the spread of request costs.
                for r in ranks:
                    lo, hi = n_slices[(r + groups) % len(n_slices)]
                    plan.append((q, random_box(m, lo, hi), rng.choice(lower), u1, r))
                groups += 1
        rng.shuffle(plan)
        self.plan = plan

    def round(self, runner, tracer, fields):
        for key in self.plan:
            q, sizes, u2, u1, r = key
            runner.request("maximal", key, self._maximal, tracer, fields[q], sizes, DegreeBand(u2, u1), r)

    def _maximal(self, tracer, field, sizes, band, r):
        shape = BoxShape(sizes)
        rec = tracer.call("weights.rghw", _weight, shape, band, r, note=self.first_on_shape(shape))
        grid = tracer.call("codes.build_grid", build_grid, field, sizes)
        family = tracer.call("polynomials.maximal_family", maximal_family, grid, band, r)
        zeros = tracer.call("polynomials.common_zero_count", common_zero_count, family, grid)
        terms = sum(len(f.terms) for f in family)
        leading = tuple(f.leading_term().exponent for f in family)
        work = {"records": 1, "family_terms": terms, "term_evals": terms * shape.n}
        return (zeros, leading, rec.m_r), work

    def check(self, key, output, outputs):
        q, sizes, u2, u1, r = key
        zeros, leading, m_r = output
        members = tuple(reference.brute_band(sizes, u2, u1)[:r])
        require(leading == members, f"leading exponents {leading} != first band members {members}")
        _, _, expected = reference.weight_reference(sizes, u2, u1, members[-1])
        expected += self.offset
        require(prod(sizes) - zeros == expected, f"n - common zeros = {prod(sizes) - zeros} != M_r {expected}")
        require(m_r == expected, f"formula M_r {m_r} != {expected}")


WORKLOADS = {w.name: w for w in (VerifySweep, FormulaLarge, FamiliesLarge)}


def build_fields(qs, tracer) -> dict:
    return {q: tracer.call("gf.Field", Field, q) for q in qs}
