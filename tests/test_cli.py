import hashlib
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rghw
from rghw import boxcomb, cli, codes
from rghw.cli import main

pytestmark = pytest.mark.usefixtures("capsys")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hierarchy_text(capsys):
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", "2", "--sizes", "2,2", "--u1", "1", "--u2", "-1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q=2 sizes=[2, 2] u1=1 u2=-1"
    assert lines[1] == "r a_r s M_r max_zeros"
    assert lines[2] == "1 (1, 0) 1 2 2"
    assert lines[3] == "2 (0, 1) 2 3 1"
    assert lines[4] == "3 (0, 0) 3 4 0"
    assert err == ""


def test_hierarchy_json_schema_and_roundtrip(capsys):
    code, out, err = run_cli(
        capsys,
        "hierarchy", "--q", "3", "--sizes", "2,3", "--u1", "2", "--u2", "0",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == ["query", "results"]
    assert obj["query"] == {"q": 3, "sizes": [2, 3], "u1": 2, "u2": 0}
    assert [list(row.keys()) for row in obj["results"]] == [
        ["r", "a_r", "s", "M_r", "max_zeros", "oracle"]
    ] * 4
    assert [row["M_r"] for row in obj["results"]] == [2, 3, 4, 5]
    assert obj["results"][0]["a_r"] == [1, 1]
    assert all(row["oracle"] is None for row in obj["results"])
    # stable serialization: reserializing the parsed object reproduces stdout
    assert json.dumps(obj, indent=2) + "\n" == out


def test_hierarchy_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "hierarchy", "--q", "2", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "r,a_r,s,M_r,max_zeros,oracle",
        "1,1 0,1,2,2,",
        "2,0 1,2,3,1,",
        "3,0 0,3,4,0,",
    ]


def test_hierarchy_single_rank_with_oracle(capsys):
    code, out, err = run_cli(
        capsys,
        "hierarchy", "--q", "3", "--sizes", "2,3", "--u1", "2", "--u2", "0",
        "--r", "2", "--oracle", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 1
    assert rows[0]["r"] == 2 and rows[0]["M_r"] == 3 and rows[0]["oracle"] == 3


def test_hierarchy_oracle_text_column(capsys):
    code, out, err = run_cli(
        capsys,
        "hierarchy", "--q", "2", "--sizes", "2,2", "--u1", "2", "--u2", "1",
        "--oracle",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "r a_r s M_r max_zeros oracle"
    assert lines[2] == "1 (1, 1) 1 1 3 1"


# sha256 of stdout, recorded before text and CSV rows were streamed
HIERARCHY_STDOUT_SHA256 = {
    ("31", "30,30", "58", "-1"): {
        "text": "5887b0f7e9ee6d153a169159e2fa625873d6fb3691d01178dd05ba6624ef8d8b",
        "csv": "7856d0fbdace7361f0eda0c624f93b923d6bb327934d5a62359bae5d00ee16f7",
        "json": "7f55138559b4fa5c562f586e1f90a020fd41a69ef73be8d804789759e26b8222",
    },
    ("101", "100,100", "85", "79"): {
        "text": "43506495548036c66fc06bbabdeba23a682bcfc38174bc263d19dba7272cc013",
        "csv": "2610e03eac227b939a7eeae5dddd147d0940ce682cda052c4dc10fa1123f3716",
        "json": "11ff4c35fd691401778960a5da44cf9371e2bdb3e896f8f09bc925b99500d2d7",
    },
    ("5", "3,4,5", "6", "2"): {
        "text": "bec852be101fda883694f82a60e1a74e54527a9caf0177864aaa3b4984c30e2f",
        "csv": "1add01a47a2cee10b86d69e04ccbf19f36fe066d263f96a46374a6869dcd52d6",
        "json": "16660507be0fac9953746fd0532a6a958a4874fa850eb0891b45df7da95a40dd",
    },
}


@pytest.mark.parametrize("query", list(HIERARCHY_STDOUT_SHA256), ids=str)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_hierarchy_stdout_pinned(capsys, query, fmt):
    q, sizes, u1, u2 = query
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", q, "--sizes", sizes, "--u1", u1, "--u2", u2, "--format", fmt
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HIERARCHY_STDOUT_SHA256[query][fmt]


# sha256 of stdout, recorded before verify's columns came from one tuple and
# before CSV cells were joined in one place.  The first verify query leaves
# the window cells of n = 6 empty and adds footprint lines; the second
# skips rows on its state budget.  The second maximal query sorts its sizes
# and permutes its subsets along.
STDOUT_SHA256 = {
    ("verify", "--q-list", "2,3", "--shapes", "2,2;2,3", "--window-max-n", "4",
     "--footprint", "12", "--seed", "5"): {
        "text": "4bd0dee986d0e737e3e4a0e487fd2e5bc3a72d1c26f9904049f8be944884741a",
        "csv": "fe65673831d5300db8b61e4e6def4f35add8d66f9dc6e4f17ca8d1b397bcce6e",
        "json": "5a117aed72b146a78a85c49d63790123666ca1699eb5e32e14c898a14e621164",
    },
    ("verify", "--q-list", "3", "--shapes", "3;2,3", "--budget-states", "40"): {
        "text": "610b8cf201a01a398fe44b72fdb9f324b05abc3e3012a427247d29969bd8eec7",
        "csv": "42e58029fbd0c3a8a0b91489ea4396429e76fdaefedbe83eb0bd42594926b66e",
        "json": "a4e6ca35fd645261fe843868a34a96c12b7af3ef7af4fd18bed5a9a08b96a863",
    },
    ("maximal", "--q", "5", "--sizes", "3,4", "--u1", "4", "--u2", "1", "--r", "3"): {
        "text": "6ab3c6f3c472e02dd357397c01647d998850154bfc3deedacee564079afcc3dc",
        "csv": "d077b5396f5756f57fceee677f7ef18567bf48a505b3b15a40c2570b235f3cea",
        "json": "ce522f103bedb49f925db857518f562d1d8be52f658949445e3ce662582382d7",
    },
    ("maximal", "--q", "4", "--sizes", "3,2,2", "--u1", "3", "--u2", "-1", "--r", "5",
     "--subsets", "0,1,2;1,3;2,3"): {
        "text": "920aed828bfb0ec025f79a4c1794aaa62fdb6a3366debcfc5617123ddb93696c",
        "csv": "440ed8c7d3c8bddac7da242c1e6d70ba7a1b93bef84fa7fed7df927fac822220",
        "json": "8391e0eef192ba0fe3233a8a31fef48826513ef3a27bbcbea8767579a60e8528",
    },
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_and_maximal_stdout_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv][fmt]


def test_pinned_verify_queries_cover_empty_cells_and_skips(capsys):
    empty, skips = [argv for argv in STDOUT_SHA256 if argv[0] == "verify"]
    obj = json.loads(run_cli(capsys, *empty, "--format", "json")[1])
    assert any(row["window"] is None for row in obj["grid"]) and obj["footprint"]
    obj = json.loads(run_cli(capsys, *skips, "--format", "json")[1])
    assert obj["summary"]["skipped"] > 0


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_hierarchy_rows_are_printed_as_they_are_yielded(capsys, monkeypatch, fmt):
    def two_rows_then_fail(shape, band):
        yield from itertools.islice(boxcomb.iter_hierarchy(shape, band), 2)
        raise RuntimeError("walk stopped")

    monkeypatch.setattr(cli, "iter_hierarchy", two_rows_then_fail)
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", "31", "--sizes", "30,30", "--u1", "58", "--u2", "-1",
        "--format", fmt,
    )
    assert code == 4 and "walk stopped" in err
    header = 2 if fmt == "text" else 1
    assert len(out.splitlines()) == header + 2


def test_maximal_text(capsys):
    code, out, err = run_cli(
        capsys,
        "maximal", "--q", "3", "--sizes", "2,3", "--u1", "2", "--u2", "0", "--r", "1",
    )
    assert code == 0
    assert out.splitlines() == [
        "q=3 sizes=[2, 3] u1=2 u2=0 r=1",
        "f_1 = x1*x2",
        "common zeros = 4",
        "support = 2",
        "M_r = 2",
    ]


def test_maximal_json(capsys):
    code, out, err = run_cli(
        capsys,
        "maximal", "--q", "3", "--sizes", "2,3", "--u1", "2", "--u2", "0",
        "--r", "2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["query"] == {"q": 3, "sizes": [2, 3], "u1": 2, "u2": 0, "r": 2}
    assert obj["family"] == ["x1*x2", "x1"]
    assert obj["leading_exponents"] == [[1, 1], [1, 0]]
    assert obj["common_zeros"] == 3
    assert obj["support"] == 3
    assert obj["M_r"] == 3


def test_maximal_with_explicit_subsets(capsys):
    code, out, err = run_cli(
        capsys,
        "maximal", "--q", "4", "--sizes", "2,3", "--u1", "1", "--u2", "-1",
        "--r", "1", "--subsets", "2,3;1,2,3",
    )
    assert code == 0
    assert "M_r = 3" in out


def test_verify_small_grid_text(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--q-list", "2", "--shapes", "2,2", "--footprint", "25"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 14 OK, 0 MISMATCH, 0 SKIPPED"
    assert lines[-2] == "footprint q=2 families=25 violations=0"
    assert all(line.endswith(" OK") for line in lines[:-2])


def test_verify_json_schema(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--q-list", "2", "--shapes", "2,2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == ["grid", "footprint", "summary"]
    assert obj["summary"] == {"ok": 14, "mismatch": 0, "skipped": 0}
    row = obj["grid"][0]
    assert list(row.keys()) == [
        "q", "sizes", "u1", "u2", "r",
        "formula", "support", "window", "attainment", "status",
    ]
    assert all(r["status"] == "OK" for r in obj["grid"])


def test_verify_checks_each_field_and_box_once(capsys):
    # a repeated field, or a box repeated with its sides in another order,
    # is checked and counted once; so is the footprint sweep of the field
    code, out, err = run_cli(capsys, "verify", "--q-list", "2,2", "--shapes", "2", "--max-n", "4")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert out.splitlines()[-1] == "summary: 4 OK, 0 MISMATCH, 0 SKIPPED"
    code, out, err = run_cli(
        capsys, "verify", "--q-list", "3", "--shapes", "2,3;3,2", "--format", "csv"
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) > 1
    assert len(set(rows)) == len(rows)
    code, out, err = run_cli(
        capsys, "verify", "--q-list", "2,2", "--shapes", "2", "--footprint", "5"
    )
    assert code == 0
    assert out.count("footprint q=2 ") == 1


def test_verify_window_bound_zero_turns_the_route_off(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--q-list", "2", "--shapes", "2", "--window-max-n", "0"
    )
    assert code == 0
    rows = out.splitlines()[:-1]
    assert rows and all(" window=None " in row for row in rows)


def test_verify_corrupt_formula_fails(capsys, monkeypatch):
    def off_by_one(shape, band):
        for record in boxcomb.iter_hierarchy(shape, band):
            yield record._replace(m_r=record.m_r + 1)

    monkeypatch.setattr(cli, "iter_hierarchy", off_by_one)
    code, out, err = run_cli(capsys, "verify", "--q-list", "2", "--shapes", "2,2")
    assert code == 1
    *rows, summary = out.splitlines()
    assert rows and all(row.endswith(" MISMATCH") for row in rows)
    assert summary == f"summary: 0 OK, {len(rows)} MISMATCH, 0 SKIPPED"


def test_verify_footprint_violation_fails(capsys, monkeypatch):
    # an empty footprint bounds common zeros by 0, so each family with a
    # common zero is a violation, and each is counted as a MISMATCH
    monkeypatch.setattr(cli, "footprint", lambda shape, points: set())
    code, out, err = run_cli(
        capsys, "verify", "--q-list", "2", "--shapes", "2,2", "--footprint", "20"
    )
    assert code == 1
    *rows, line, summary = out.splitlines()
    assert rows and all(row.endswith(" OK") for row in rows)
    prefix = "footprint q=2 families=20 violations="
    assert line.startswith(prefix)
    violations = int(line[len(prefix):])
    assert violations > 0
    assert summary == f"summary: {len(rows)} OK, {violations} MISMATCH, 0 SKIPPED"


def test_verify_budget_skips_but_passes(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--q-list", "3", "--shapes", "2,3", "--budget-states", "40",
    )
    assert code == 0
    assert "SKIPPED" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_that_confirms_nothing_exits_3(capsys, fmt):
    # a state budget of 1 refuses every oracle call: no row is OK, so the
    # run must not report success, while stdout still lists every row
    argv = ("verify", "--q-list", "2,3", "--shapes", "2;3;2,2", "--budget-states", "1")
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 3
    assert err == "error: no tuple OK: 46 SKIPPED\n"
    if fmt == "json":
        assert json.loads(out)["summary"] == {"ok": 0, "mismatch": 0, "skipped": 46}
    else:
        assert out.splitlines()[-1] == "summary: 0 OK, 0 MISMATCH, 46 SKIPPED"


def test_hierarchy_oracle_budget_exhausted_exit_3(capsys):
    code, out, err = run_cli(
        capsys,
        "hierarchy", "--q", "4", "--sizes", "3,3", "--u1", "4", "--u2", "-1",
        "--oracle", "--budget-states", "5",
    )
    assert code == 3
    assert err.startswith("error:")


def test_sizes_exceeding_field_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", "2", "--sizes", "2,3", "--u1", "1", "--u2", "-1"
    )
    assert code == 2
    assert "d_m = 3 > q = 2" in err


def test_invalid_inputs_exit_2(capsys):
    bad_calls = [
        ("hierarchy", "--q", "6", "--sizes", "2,2", "--u1", "1", "--u2", "-1"),
        ("hierarchy", "--q", "3", "--sizes", "2,x", "--u1", "1", "--u2", "-1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "5", "--u2", "-1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1", "--r", "9"),
        ("maximal", "--q", "3", "--sizes", "2,3", "--u1", "2", "--u2", "0", "--r", "0"),
        ("maximal", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--r", "1", "--subsets", "0,1;1,1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--subsets", "0,1", "--oracle"),
        # --policy picks the subsets, so it cannot come with explicit ones
        ("maximal", "--q", "4", "--sizes", "2,3", "--u1", "2", "--u2", "-1", "--r", "2",
         "--subsets", "2,3;0,1,3", "--policy", "first"),
        ("hierarchy", "--q", "4", "--sizes", "2,3", "--u1", "2", "--u2", "-1",
         "--subsets", "2,3;0,1,3", "--policy", "last", "--oracle"),
        # an empty --subsets is given, not absent: checked alone and beside --policy
        ("maximal", "--q", "4", "--sizes", "2,3", "--u1", "2", "--u2", "-1", "--r", "2",
         "--subsets", ""),
        ("maximal", "--q", "4", "--sizes", "2,3", "--u1", "2", "--u2", "-1", "--r", "2",
         "--subsets", "", "--policy", "last"),
        # the subsets are checked without --oracle too
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--subsets", "0,0;0,1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--subsets", "0,1;0,5"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--subsets", "0;0,1,2"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--oracle", "--budget-seconds", "-1"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--oracle", "--budget-states", "-5"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--oracle", "--budget-states", "0"),
        # the budget is checked without --oracle too
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--budget-states", "-5", "--budget-seconds", "-9"),
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
         "--budget-seconds", "-1"),
        # an empty piece of a list is malformed, not skipped
        ("hierarchy", "--q", "3", "--sizes", "2,,3", "--u1", "1", "--u2", "-1"),
        ("hierarchy", "--q", "3", "--sizes", "2,3,", "--u1", "1", "--u2", "-1"),
        ("verify", "--q-list", "2,,3"),
        ("maximal", "--q", "3", "--sizes", "2,3", "--u1", "1", "--u2", "-1", "--r", "1",
         "--subsets", "0,1,;0,1,2"),
        ("verify", "--q-list", ""),
        ("verify", "--max-n", "-1"),
        ("verify", "--q-list", "2", "--shapes", "2", "--footprint", "-3"),
        ("verify", "--q-list", "2", "--shapes", "2", "--window-max-n", "-1"),
    ]
    for argv in bad_calls:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv
        assert len(err.splitlines()) == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("hierarchy", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1", "--oracle"),
        ("verify", "--q-list", "2", "--shapes", "2"),
    ],
    ids=["hierarchy", "verify"],
)
def test_huge_time_budget_is_bad_input(capsys, argv):
    # a cap past what a float deadline holds is refused up front, not an
    # OverflowError when the first oracle call starts its clock
    code, out, err = run_cli(capsys, *argv, "--budget-seconds", "1" + "0" * 400)
    assert (code, out, err) == (2, "", "error: time budget is above 1000000000 s\n")


@pytest.mark.parametrize("kind", [RuntimeError, ValueError])
def test_internal_error_exits_4(capsys, monkeypatch, kind):
    # only RghwError is bad input: a ValueError of the package's own code
    # (say, max() of an empty sequence) is a fault, as any other exception
    def broken(args):
        raise kind("table slot\n  out of range")

    monkeypatch.setattr(cli, "cmd_maximal", broken)
    code, out, err = run_cli(
        capsys, "maximal", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1", "--r", "1"
    )
    assert code == 4
    assert out == ""
    assert err == f"error: internal error: {kind.__name__}: table slot out of range\n"


def test_maximal_takes_no_budget_options(capsys):
    # maximal runs no oracle, so argparse refuses the budget options (exit 2)
    for option in ("--budget-states", "--budget-seconds"):
        with pytest.raises(SystemExit) as exc:
            main(["maximal", "--q", "3", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
                  "--r", "1", option, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unsorted_sizes_warns_and_normalizes(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", "4", "--sizes", "3,2", "--u1", "1", "--u2", "-1"
    )
    assert code == 0
    assert "WARNING" in err
    assert "sorted ascending to [2, 3]" in err
    assert "permutation [1, 0]" in err
    assert out.splitlines()[0] == "q=4 sizes=[2, 3] u1=1 u2=-1"
    # every command builds one grid, whose constructor is the one check of
    # the sizes, and warns once
    grids, init = [], codes.CartesianGrid.__init__

    def counted(self, *args):
        grids.append(args)
        init(self, *args)

    monkeypatch.setattr(codes.CartesianGrid, "__init__", counted)
    warning = "WARNING: sizes [3, 2] sorted ascending to [2, 3] (permutation [1, 0])\n"
    for command in (("hierarchy",), ("hierarchy", "--oracle"), ("maximal", "--r", "2")):
        grids.clear()
        code, out, err = run_cli(
            capsys, *command, "--q", "4", "--sizes", "3,2", "--u1", "1", "--u2", "-1"
        )
        assert code == 0
        assert err == warning
        assert len(grids) == 1, command


def test_hierarchy_single_rank_on_a_huge_box(capsys):
    # the query's grid has 10^9 points, and holds only its subsets
    code, out, err = run_cli(
        capsys, "hierarchy", "--q", "31627", "--sizes", "31623,31623",
        "--u1", "63244", "--u2", "-1", "--r", "2",
    )
    assert code == 0 and err == ""
    assert out == (
        "q=31627 sizes=[31623, 31623] u1=63244 u2=-1\n"
        "r a_r s M_r max_zeros\n"
        "2 (31622, 31621) 2 2 1000014127\n"
    )


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
VERIFY_CSV_ARGS = ("verify", "--q-list", "2", "--shapes", "2,2", "--format", "csv")
VERIFY_CSV_HEADER = "q,sizes,u1,u2,r,formula,support,window,attainment,status"


def checkout_env():
    """The environment with the checkout this test process imported first on
    PYTHONPATH, so that no other installed copy of rghw can answer in its place."""
    env = dict(os.environ)
    src = str(Path(rghw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_entry_point(*argv):
    return subprocess.run(argv, capture_output=True, text=True, env=checkout_env())


def declared_console_script():
    """The `rghw` entry of [project.scripts], e.g. "rghw.cli:main"."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["rghw"]


def test_module_and_script_entry_points():
    result = run_entry_point(
        sys.executable, "-m", "rghw",
        "hierarchy", "--q", "2", "--sizes", "2,2", "--u1", "1", "--u2", "-1",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2] == "1 (1, 0) 1 2 2"

    # The console script pip generates from [project.scripts] imports the
    # declared attribute and passes its return value to sys.exit; do the same.
    module, _, attr = declared_console_script().partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"[project.scripts] rghw = {module}:{attr} is not a callable"
    )
    result = run_entry_point(
        sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())",
        *VERIFY_CSV_ARGS,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == VERIFY_CSV_HEADER


@pytest.mark.skipif(shutil.which("rghw") is None, reason="rghw console script not on PATH")
def test_installed_console_script():
    result = run_entry_point(shutil.which("rghw"), *VERIFY_CSV_ARGS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == VERIFY_CSV_HEADER


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # the reader leaves after one line, as `| head -1` does, while a
    # million rows still stream; the shell reports 128 + SIGPIPE for that
    argv = [sys.executable, "-m", "rghw", "hierarchy", "--q", "1009", "--sizes", "1000,1000",
            "--u1", "1998", "--u2", "-1", "--format", "csv"]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(argv, env=checkout_env(), **pipes) as proc:
        assert proc.stdout.readline() == b"r,a_r,s,M_r,max_zeros,oracle\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
