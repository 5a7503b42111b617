"""Benchmark of the rghw library.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

or every workload, each in its own fresh interpreter, with one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* verify-sweep    `rghw verify --max-n 8`, every tuple confirmed by both
                  oracles and the attaining family;
* formula-large   `rghw hierarchy` bands rendered as JSON, and
                  single-rank queries on huge boxes;
* families-large  `rghw maximal` over GF(101), GF(243), GF(256), GF(257)
                  and GF(1024) on grids of about 10^3 points.

The seed fixes one round of requests; the run repeats that round, at
least twice, until `--seconds` of request time is measured, so work
counters per round repeat exactly.  Each timed step is scaled to a
reference host speed by a probe loop timed beside it, and counts with
the median of its repeats (see harness.py).  Every output is checked
(see workloads.py), and any failed request makes the run exit 1.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates traced and untraced rounds and reports per-layer metrics
from the spans of the traced ones, plus the tracing overhead.  `setup_s`
is the median over five fresh interpreters of the time from `import rghw`
through building every Field the workload uses, scaled the same way.

A table of every metric with its unit goes to stdout, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Full results (and spans,
when traced) are written under perfbench/results/.  `--short` shrinks
every workload for the smoke tests in test_perfbench.py.

The run is single process and single thread; the set-up samples run one
after another in child interpreters before the measurement starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("verify-sweep", "formula-large", "families-large")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for the smoke tests")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    """The library is built from the checkout's own source tree."""
    if not (SRC / "rghw" / "__init__.py").is_file():
        sys.exit(f"error: no rghw source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


def setup(name: str, short: bool, tracer=None):
    """Import rghw and build every Field the workload uses.  Returns
    ((scaled seconds, wall seconds), workloads module, fields).  The import
    and each Field build are scaled like request steps, by the probe timed
    between them (the median of five probes at each mark)."""
    from harness import HostGauge  # imports no part of rghw
    from tracing import Tracer

    gauge = HostGauge(repeats=5)
    stages = []  # (seconds, mark before)

    def stage(fn, *args):
        before = gauge.mark(force=True)
        t0 = perf_counter()
        out = fn(*args)
        stages.append((perf_counter() - t0, before))
        return out

    def load():
        import rghw
        import workloads

        return rghw, workloads

    rghw, workloads = stage(load)
    if tracer is None:
        tracer = Tracer()
    fields = {}
    for q in workloads.WORKLOADS[name].fields_for(short):
        fields.update(stage(workloads.build_fields, (q,), tracer))
    gauge.mark(force=True)
    if not Path(rghw.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported rghw from {rghw.__file__}, not from {SRC}")
    seconds = (sum(gauge.scale(t, i) for t, i in stages), sum(t for t, _ in stages))
    return seconds, workloads, fields


def setup_probe(name: str, short: bool) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"]
    if short:
        cmd.append("--short")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def environment() -> dict:
    loc = sum(p.read_text().count("\n") for p in sorted((SRC / "rghw").glob("*.py")))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "src_loc": loc,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure(runner, seconds: float, trace: bool) -> None:
    """Whole rounds, at least MIN_ROUNDS, until `seconds` of request time
    is measured.  Traced runs alternate traced and untraced rounds, traced
    first."""
    measured = 0.0
    while True:
        traced = trace and len(runner.rounds) % 2 == 0
        measured += runner.run_round(traced).busy
        if measured >= seconds and len(runner.rounds) >= MIN_ROUNDS:
            return


def run_one(args) -> int:
    require_source()
    if args.setup_probe:
        print(json.dumps(setup(args.workload, args.short)[0]))
        return 0
    from tracing import Tracer

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    setup_main, workloads, fields = setup(args.workload, args.short, tracer)
    tracer.enabled = False
    setup_samples = [setup_main] + [setup_probe(args.workload, args.short) for _ in range(SETUP_SAMPLES - 1)]

    from harness import Runner, end_to_end, per_layer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.short, args.corrupt)
    runner = Runner(workload, tracer, fields)
    measure(runner, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.finish()

    e2e, info = end_to_end(runner, statistics.median(x for x, _ in setup_samples), peak_rss_mb)
    if args.trace:
        traced = [sum(runner.scaled_steps(r)) for r in runner.rounds if r.traced]
        untraced = [sum(runner.scaled_steps(r)) for r in runner.rounds if not r.traced]
        # the first traced round also pays the cold start; leave it out of
        # the overhead when there is another
        warm = traced[1:] or traced
        metrics = per_layer(runner, statistics.fmean(warm) / statistics.fmean(untraced) - 1.0)
    else:
        metrics = e2e
    attempted = sum(r.attempted for r in runner.rounds)
    failed = sum(r.failed for r in runner.rounds)
    correct = failed == 0 and not runner.problems
    work = dict(runner.rounds[0].work, requests=runner.rounds[0].attempted)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": dict(info, setup_samples_s=[x for x, _ in setup_samples],
                     wall_setup_samples_s=[w for _, w in setup_samples], field_builds=len(fields), **environment()),
        "work_per_round": work,
        "problems": runner.problems,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print_table(args.workload, metrics, result["info"], work)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def print_table(workload, metrics, info, work) -> None:
    print(f"== {workload}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, value in info.items():
        print(f"  info  {name:<34} {value}")
    for name, value in sorted(work.items()):
        print(f"  work  {name:<34} {value} per round")


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    require_source()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.short:
            cmd.append("--short")
        if args.corrupt:
            cmd.append("--corrupt")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(combined, environment=environment()), indent=2) + "\n")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
