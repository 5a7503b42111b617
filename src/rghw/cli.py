"""Command line front end: hierarchy / maximal / verify.

All results go to stdout, diagnostics to stderr.  Every number printed
is an exact integer.  Exit codes: 0 success, 1 verification mismatch,
2 invalid input, 3 budget exhausted while an oracle was requested (or a
verify whose every tuple was SKIPPED), 4 internal error (any other
exception, reported on one line), 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from math import prod
from random import Random

from .boxcomb import BoxShape, DegreeBand, WeightQuery, check_band, footprint, iter_hierarchy, rghw
from .codes import CartesianCode, CartesianGrid, common_zero_count, maximal_family, random_poly
from .errors import BudgetExceeded, RghwError
from .gf import Field
from .oracle import OracleBudget, SupportOracle, oracle_rghw_window

DEFAULT_GRID_QS = (2, 3, 4)
DEFAULT_GRID_SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))
# one verify row: its JSON keys, CSV header and text fields, in this order
VERIFY_COLUMNS = (
    "q", "sizes", "u1", "u2", "r", "formula", "support", "window", "attainment", "status",
)
VERIFY_MAX_N = 9  # default largest grid of the verify sweep and of its window route
FOOTPRINT_MAX_N = 12  # largest grid of the footprint sweep


# -- small parsers ------------------------------------------------------------------


def parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",")] if text else []
    except ValueError:
        raise RghwError(f"cannot parse {what} from {text!r}") from None


def _budget(args) -> OracleBudget:
    return OracleBudget(max_states=args.budget_states, time_cap=args.budget_seconds)


def _code_query(args):
    """(grid, band) of the code options.  Checks --subsets beside --policy,
    then field, sizes, subsets and band, in this order; a reordering of the
    sizes is warned about on stderr."""
    if args.subsets is not None and args.policy:
        raise RghwError("--policy picks the subsets, so it cannot be given with --subsets")
    field = Field(args.q)
    sizes = parse_ints(args.sizes, "sizes")
    subsets = None
    if args.subsets is not None:
        subsets = [parse_ints(piece, "subset") for piece in args.subsets.split(";")]
    grid = CartesianGrid(field, sizes, subsets, args.policy or "first")
    shape = grid.shape
    if shape.d != tuple(sizes):
        moved = f"sorted ascending to {list(shape.d)} (permutation {list(grid.permutation)})"
        print(f"WARNING: sizes {sizes} {moved}", file=sys.stderr)
    band = DegreeBand(args.u2, args.u1)
    check_band(shape, band)
    return grid, band


# -- output helpers -----------------------------------------------------------------


def _emit_csv(header, rows) -> None:
    """Rows (lists) as they are yielded.  A tuple or list cell is written
    space separated, and None (by csv itself) as an empty cell; which
    columns hold tuples or lists is read off the first row."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    joined = None
    for row in rows:
        if joined is None:
            joined = [i for i, x in enumerate(row) if isinstance(x, (tuple, list))]
        for i in joined:
            row[i] = " ".join(map(str, row[i]))
        writer.writerow(row)


def _query_json(q: int, shape: BoxShape, band: DegreeBand) -> dict:
    return {"q": q, "sizes": list(shape.d), "u1": band.u1, "u2": band.u2}


def hierarchy_json_obj(q: int, shape: BoxShape, band: DegreeBand, records) -> dict:
    return {
        "query": _query_json(q, shape, band),
        "results": [
            {"r": r, "a_r": list(a_r), "s": s, "M_r": m_r, "max_zeros": max_zeros, "oracle": oracle}
            for r, a_r, s, m_r, max_zeros, oracle in records
        ],
    }


def _print_hierarchy(q, shape, band, records, fmt, oracle) -> None:
    """Text and CSV rows print as `records` yields them; JSON is built whole."""
    if fmt == "json":
        print(json.dumps(hierarchy_json_obj(q, shape, band, records), indent=2))
    elif fmt == "csv":
        _emit_csv(
            ["r", "a_r", "s", "M_r", "max_zeros", "oracle"],
            map(list, records),
        )
    else:
        print(f"q={q} sizes={list(shape.d)} u1={band.u1} u2={band.u2}")
        print("r a_r s M_r max_zeros" + (" oracle" if oracle else ""))
        for r, a_r, s, m_r, max_zeros, value in records:
            print(f"{r} {a_r} {s} {m_r} {max_zeros}" + (f" {value}" if oracle else ""))


# -- subcommands --------------------------------------------------------------------


def cmd_hierarchy(args) -> int:
    grid, band = _code_query(args)
    shape = grid.shape
    budget = _budget(args)  # checked with or without --oracle
    if args.r is not None:
        records = [rghw(WeightQuery(shape, band, args.r))]
    else:
        records = iter_hierarchy(shape, band)
    if args.oracle:
        c2 = CartesianCode(grid, band.u2) if band.u2 >= 0 else None
        support = SupportOracle(CartesianCode(grid, band.u1), c2)
        records = [rec._replace(oracle=support.rank(rec.r, budget).value) for rec in records]
    _print_hierarchy(grid.field.q, shape, band, records, args.format, args.oracle)
    return 0


def cmd_maximal(args) -> int:
    grid, band = _code_query(args)
    field, shape = grid.field, grid.shape
    record = rghw(WeightQuery(shape, band, args.r))
    family = maximal_family(grid, band, args.r)
    zeros = common_zero_count(family, grid)
    support = shape.n - zeros
    if args.format == "json":
        obj = {
            "query": {**_query_json(field.q, shape, band), "r": args.r},
            "family": [f.render() for f in family],
            "leading_exponents": [list(f.leading_term().exponent) for f in family],
            "common_zeros": zeros,
            "support": support,
            "M_r": record.m_r,
        }
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        _emit_csv(
            ["index", "polynomial", "leading_exponent", "common_zeros", "support", "M_r"],
            [
                [i + 1, f.render(), f.leading_term().exponent, zeros, support, record.m_r]
                for i, f in enumerate(family)
            ],
        )
    else:
        print(f"q={field.q} sizes={list(shape.d)} u1={band.u1} u2={band.u2} r={args.r}")
        for i, f in enumerate(family):
            print(f"f_{i + 1} = {f.render()}")
        print(f"common zeros = {zeros}")
        print(f"support = {support}")
        print(f"M_r = {record.m_r}")
    return 0


def run_verify_grid(
    qs,
    shapes,
    max_n: int = VERIFY_MAX_N,
    window_max_n: int = VERIFY_MAX_N,
    budget: OracleBudget | None = None,
):
    """Formula-vs-oracle sweep.  Returns (rows, summary); each row is a dict
    keyed by VERIFY_COLUMNS: the tuple parameters, the formula value, the
    oracle values that ran (None where skipped or not applicable), the
    attaining family's support and a status OK/MISMATCH/SKIPPED."""
    rows = []
    summary = {"ok": 0, "mismatch": 0, "skipped": 0}
    for q in qs:
        field = Field(q)
        for sizes in shapes:
            if max(sizes) > q or prod(sizes) > max_n:
                continue
            grid = CartesianGrid(field, sizes)
            shape = grid.shape
            codes = {u: CartesianCode(grid, u) for u in range(shape.k + 1)}
            for u1 in range(shape.k + 1):
                for u2 in range(-1, u1):
                    band = DegreeBand(u2, u1)
                    c1 = codes[u1]
                    c2 = codes[u2] if u2 >= 0 else None
                    oracle = SupportOracle(c1, c2)  # frees the last band's set-up
                    for rec in iter_hierarchy(shape, band):
                        r, formula = rec.r, rec.m_r
                        support = window = None
                        skipped = False
                        try:
                            support = oracle.rank(r, budget).value
                        except BudgetExceeded:
                            skipped = True
                        if shape.n <= window_max_n:
                            try:
                                window = oracle_rghw_window(c1, c2, r, budget).value
                            except BudgetExceeded:
                                skipped = True
                        family = maximal_family(grid, band, r)
                        attained = shape.n - common_zero_count(family, grid)
                        ran = [v for v in (support, window, attained) if v is not None]
                        if any(v != formula for v in ran):
                            status = "MISMATCH"
                        elif skipped:
                            status = "SKIPPED"
                        else:
                            status = "OK"
                        summary["ok" if status == "OK" else status.lower()] += 1
                        values = (q, list(shape.d), u1, u2, r, formula, support, window,
                                  attained, status)
                        rows.append(dict(zip(VERIFY_COLUMNS, values)))
    return rows, summary


def run_footprint_sweep(q: int, count: int, seed: int):
    """Seeded random families on grids of up to FOOTPRINT_MAX_N points;
    checks |common zeros| <= footprint bound of the leading exponents.
    Returns (checked, violations)."""
    field = Field(q)
    sides = range(2, min(q, FOOTPRINT_MAX_N) + 1)
    shapes = sorted(  # a box of m sides >= 2 has at least 2**m points
        sizes
        for m in range(1, FOOTPRINT_MAX_N.bit_length())
        for sizes in itertools.combinations_with_replacement(sides, m)
        if prod(sizes) <= FOOTPRINT_MAX_N
    )
    grids = {sizes: CartesianGrid(field, sizes) for sizes in shapes}
    rng = Random(seed)
    violations = []
    for _ in range(count):
        sizes = shapes[rng.randrange(len(shapes))]
        grid = grids[sizes]
        family = [random_poly(field, grid.shape, rng) for _ in range(rng.randint(1, 3))]
        zeros = common_zero_count(family, grid)
        bound = len(footprint(grid.shape, [f.leading_term().exponent for f in family]))
        if zeros > bound:
            violations.append((sizes, [f.terms for f in family], zeros, bound))
    return count, violations


def cmd_verify(args) -> int:
    qs = list(dict.fromkeys(parse_ints(args.q_list, "q list")))  # each field once
    boxes = (BoxShape(parse_ints(piece, "sizes")) for piece in args.shapes.split(";"))
    shapes = list(dict.fromkeys(box.d for box in boxes))  # each box once, sides sorted
    if args.footprint < 0:
        raise RghwError(f"footprint family count {args.footprint} is negative")
    if args.window_max_n < 0:  # 0 turns the window route off
        raise RghwError(f"window size bound {args.window_max_n} is negative")
    rows, summary = run_verify_grid(
        qs, shapes, max_n=args.max_n, window_max_n=args.window_max_n, budget=_budget(args)
    )
    footprint_lines = []
    if args.footprint:
        for q in qs:
            checked, violations = run_footprint_sweep(q, args.footprint, args.seed)
            footprint_lines.append(
                {"q": q, "families": checked, "violations": len(violations)}
            )
            if violations:
                summary["mismatch"] += len(violations)
    if not rows and not any(line["families"] > 0 for line in footprint_lines):
        raise RghwError("verify checked no tuple and no footprint family")
    if args.format == "json":
        obj = {"grid": rows, "footprint": footprint_lines, "summary": summary}
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        _emit_csv(VERIFY_COLUMNS, ([row[c] for c in VERIFY_COLUMNS] for row in rows))
    else:
        for row in rows:
            print(*(f"{c}={row[c]}" for c in VERIFY_COLUMNS[:-1]), row["status"])
        for line in footprint_lines:
            print(
                f"footprint q={line['q']} families={line['families']} "
                f"violations={line['violations']}"
            )
        print(
            f"summary: {summary['ok']} OK, {summary['mismatch']} MISMATCH, "
            f"{summary['skipped']} SKIPPED"
        )
    if summary["mismatch"]:
        return 1
    if summary["skipped"] and not summary["ok"]:
        print(f"error: no tuple OK: {summary['skipped']} SKIPPED", file=sys.stderr)
        return 3
    return 0


# -- parser -------------------------------------------------------------------------


def _add_code_options(sub) -> None:
    sub.add_argument("--q", type=int, required=True, help="field order (prime power)")
    sub.add_argument("--sizes", required=True, help="comma separated d_1,...,d_m")
    sub.add_argument("--u1", type=int, required=True)
    sub.add_argument("--u2", type=int, required=True, help="-1 for the zero subcode")
    sub.add_argument("--subsets", help="explicit A_i as semicolon separated int lists")
    sub.add_argument("--policy", choices=("first", "last"), help="A_i without --subsets (default first)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rghw",
        description="Relative generalized Hamming weights of affine Cartesian codes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    h = subs.add_parser("hierarchy", help="weight hierarchy from the closed formula")
    _add_code_options(h)
    h.add_argument("--r", type=int, help="single rank instead of the full hierarchy")
    h.add_argument("--oracle", action="store_true", help="confirm rows by brute force")
    h.set_defaults(func=cmd_hierarchy)

    m = subs.add_parser("maximal", help="maximal polynomial family attaining M_r")
    _add_code_options(m)
    m.add_argument("--r", type=int, required=True)
    m.set_defaults(func=cmd_maximal)

    v = subs.add_parser("verify", help="formula vs oracle sweep over a grid of codes")
    v.add_argument("--q-list", default=",".join(str(q) for q in DEFAULT_GRID_QS))
    v.add_argument(
        "--shapes",
        default=";".join(",".join(str(s) for s in sh) for sh in DEFAULT_GRID_SHAPES),
    )
    v.add_argument("--max-n", type=int, default=VERIFY_MAX_N)
    v.add_argument("--window-max-n", type=int, default=VERIFY_MAX_N)
    v.add_argument("--footprint", type=int, default=0, help="random families per field")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    for sub in (h, m, v):
        sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    for sub in (h, v):  # the subcommands that run an oracle
        sub.add_argument("--budget-states", type=int, default=OracleBudget().max_states)
        sub.add_argument("--budget-seconds", type=int, default=OracleBudget().time_cap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left (`| head`); 128 + SIGPIPE, as the shell reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        return 141
    except RghwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
