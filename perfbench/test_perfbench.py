"""Smoke tests of the benchmark itself, on the short form of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, trace=0, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--short", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def saved_result(workload, trace=0):
    return json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_nothing_failed(workload, trace):
    done = bench(workload, trace=trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert saved_result(workload, trace)["info"]["failed_ratio"] == 0.0
    for m in spec:
        assert m["name"] in done.stdout.split("{")[0]  # the printed table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_for_a_seed(workload):
    counters = []
    for _ in range(2):
        assert bench(workload).returncode == 0
        counters.append(saved_result(workload)["work_per_round"])
    assert counters[0] == counters[1]
    assert counters[0]["records"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_counts_as_failed(workload):
    done = bench(workload, "--corrupt")
    assert done.returncode == 1
    result = last_json(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert saved_result(workload)["info"]["failed_ratio"] == 1.0


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("formula-large", script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
