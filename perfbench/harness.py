"""Runs a workload's rounds, checks every output, and turns the timings,
work counters and spans into metrics.

On a shared host the speed of one pure-Python thread swings by up to 2x,
in phases from milliseconds to tens of seconds, as other tenants load the
same cores.  The runner therefore times a fixed probe loop between steps,
at most PROBE_GAP_S apart, and scales each step by the host speed the
probes on either side of it saw.  End-to-end times are these scaled times:
seconds on a host that runs the probe in PROBE_REF_S."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

from tracing import END, NAME, NOTE, PARENT, START, self_times

# every span the workloads record, by layer
SPANS = (
    "oracle.support",
    "oracle.window",
    "codes.build_code",
    "codes.build_grid",
    "gf.Field",
    "polynomials.maximal_family",
    "polynomials.common_zero_count",
    "weights.rghw",
    "weights.hierarchy",
    "boxcomb.band_size",
    "cli.hierarchy_json_obj",
)
# weights and boxcomb are one layer: weights.rghw is the only public way
# into the rank and unrank code.  gf has no layer share: Fields are built
# in set-up, and field arithmetic runs inside the codes and polynomials
# spans.
LAYERS = {"oracle": "oracle", "codes": "codes", "polynomials": "polynomials",
          "weights": "weights", "boxcomb": "weights", "cli": "cli"}

PROBE_GAP_S = 0.02
# the probe's time on an idle vCPU of the 2-vCPU x86-64 host (Python 3.11)
# the bounds were set on, so that scaled times read as wall time there
PROBE_REF_S = 0.00075


def probe() -> int:
    """Fixed pure-Python work, about 0.75 ms on an idle core: integer
    arithmetic, tuples and a dict, like the library's own loops."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + acc
    return len(table)


class HostGauge:
    """The probe's times, in the order run, and the scaling they give."""

    def __init__(self, repeats: int = 1):
        self.repeats = repeats  # each mark times the probe this often; the median counts
        self.probes: list[float] = []
        self._end = float("-inf")

    def mark(self, force: bool = False) -> int:
        """Time the probe unless it last ended less than PROBE_GAP_S ago;
        returns the latest mark's index."""
        if force or perf_counter() - self._end > PROBE_GAP_S:
            times = []
            for _ in range(self.repeats):
                start = perf_counter()
                probe()
                self._end = perf_counter()
                times.append(self._end - start)
            self.probes.append(statistics.median(times))
        return len(self.probes) - 1

    def scale(self, seconds: float, before: int) -> float:
        """`seconds`, timed after mark `before` and before the next mark,
        scaled to the reference host speed by the mean of the two."""
        return seconds * 2.0 * PROBE_REF_S / (self.probes[before] + self.probes[before + 1])


class Round:
    def __init__(self, traced: bool, first_span: int):
        self.traced = traced
        self.busy = 0.0  # seconds inside requests and their preparation
        # durations of the round's timed steps, in the order they ran; every
        # round runs the same steps.  request_steps indexes the requests.
        self.steps: list[float] = []
        self.request_steps: list[int] = []
        # per step, the index of the last probe before it; the next probe
        # follows it
        self.step_probes: list[int] = []
        self.work: dict = {}
        self.outputs: dict = {}
        self.failed = 0
        self.attempted = 0
        self.first_span = first_span
        self.last_span = first_span
        self.differing: set = set()  # keys whose output differs from round 1


class Runner:
    """Runs requests and times them.  Every round must reproduce the
    first round's outputs and work counters exactly; `finish` then checks
    the first round's outputs against the reference routes.  Checking at
    the end keeps the reference routes' memory out of the peak RSS."""

    def __init__(self, workload, tracer, fields):
        self.workload = workload
        self.tracer = tracer
        self.fields = fields
        self.rounds: list[Round] = []
        self.problems: list[str] = []
        self.first_outputs: dict = {}
        self._next_id = 0
        self.round: Round | None = None
        self.gauge = HostGauge()

    def scaled_steps(self, rnd: Round) -> list[float]:
        """The round's step times, scaled to the reference host speed."""
        return [self.gauge.scale(t, i) for t, i in zip(rnd.steps, rnd.step_probes)]

    def run_round(self, traced: bool) -> Round:
        self.tracer.enabled = traced
        rnd = self.round = Round(traced, len(self.tracer.spans))
        self.workload.round(self, self.tracer, self.fields)
        self.tracer.enabled = False
        self.gauge.mark(force=True)  # every step has a probe after it
        self.round = None
        rnd.last_span = len(self.tracer.spans)
        if not self.rounds:
            self.first_outputs = rnd.outputs
            if len(rnd.outputs) != rnd.attempted:
                self._problem(f"{rnd.attempted} requests but {len(rnd.outputs)} distinct keys")
        elif rnd.work != self.rounds[0].work:
            self._problem(f"work counters differ between rounds: {rnd.work} != {self.rounds[0].work}")
        self.rounds.append(rnd)
        return rnd

    def prepare(self, fn, *args):
        self._next_id += 1
        self.round.step_probes.append(self.gauge.mark())
        t0 = perf_counter()
        with self.tracer.request("prepare", self._next_id):
            out = fn(*args)
        elapsed = perf_counter() - t0
        self.round.busy += elapsed
        self.round.steps.append(elapsed)
        return out

    def request(self, kind, key, fn, *args):
        rnd = self.round
        self._next_id += 1
        rnd.attempted += 1
        rnd.step_probes.append(self.gauge.mark())
        t0 = perf_counter()
        try:
            with self.tracer.request(kind, self._next_id):
                out, work = fn(*args)
        except Exception as exc:  # a raising request is a failed request
            elapsed = perf_counter() - t0
            out = _Raised(f"{type(exc).__name__}: {exc}")
        else:
            elapsed = perf_counter() - t0
            for name, value in work.items():
                rnd.work[name] = rnd.work.get(name, 0) + value
        # later rounds compare and drop their outputs at once, so the peak
        # RSS does not depend on the order of requests
        if self.rounds:
            if out != self.first_outputs.get(key):
                rnd.differing.add(key)
        else:
            rnd.outputs[key] = out
        rnd.busy += elapsed
        rnd.request_steps.append(len(rnd.steps))
        rnd.steps.append(elapsed)

    def finish(self) -> None:
        """Check the first round and count each round's failed requests."""
        outputs = self.first_outputs
        bad = {key for key, out in outputs.items() if not self._check_one(key, out, outputs)}
        answered = {key: out for key, out in outputs.items() if not isinstance(out, _Raised)}
        for problem in self.workload.check_round(answered, self.rounds[0].work):
            self._problem(problem)
        self.rounds[0].failed = len(bad)
        for rnd in self.rounds[1:]:
            for key in sorted(rnd.differing - bad, key=repr):
                self._problem(f"{key}: output differs from the first round")
            rnd.failed = len(bad | rnd.differing)

    def _check_one(self, key, out, outputs) -> bool:
        if isinstance(out, _Raised):
            self._problem(f"{key}: raised {out.text}")
            return False
        try:
            self.workload.check(key, out, outputs)
        except Exception as exc:  # a failed or crashing check fails the request
            self._problem(f"{key}: {type(exc).__name__}: {exc}")
            return False
        return True

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("(further problems not shown)")


class _Raised:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return False


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    idx = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it (the
    median when there are too few samples for that)."""
    return max(50.0, 100.0 * (count - 10) / count)


def end_to_end(runner, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(metrics, info) from the untraced rounds.

    Every round repeats the same steps; each step counts with the median
    of its scaled times over the rounds.  Latency percentiles are over the
    requests of one round, so a request that is slow in every round stays
    slow.  The info keeps the same figures in unscaled wall time."""
    plain = [r for r in runner.rounds if not r.traced]
    steps = [statistics.median(c) for c in zip(*(runner.scaled_steps(r) for r in plain))]
    wall = [statistics.median(c) for c in zip(*(r.steps for r in plain))]
    lat = sorted(steps[i] for i in plain[0].request_steps)
    wall_lat = sorted(wall[i] for i in plain[0].request_steps)
    records = plain[0].work.get("records", 0)
    tail_p = tail_percentile(len(lat))
    metrics = {
        "records_per_s": (records / sum(steps), "1/s"),
        "request_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "request_tail_ms": (1e3 * percentile(lat, tail_p), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    attempted = sum(r.attempted for r in plain)
    failed = sum(r.failed for r in plain)
    info = {
        "failed_ratio": failed / attempted if attempted else 0.0,
        "tail_percentile": tail_p,
        "latency_samples": len(lat),
        "rounds": len(plain),
        "round_s": [r.busy for r in plain],
        "wall_records_per_s": records / sum(wall),
        "wall_request_p50_ms": 1e3 * percentile(wall_lat, 50),
        "wall_request_tail_ms": 1e3 * percentile(wall_lat, tail_p),
        "probes": len(runner.gauge.probes),
        "probe_median_s": statistics.median(runner.gauge.probes),
        "probe_fastest_s": min(runner.gauge.probes),
    }
    return metrics, info


def per_layer(runner, overhead_ratio: float) -> dict:
    """Per-round averages over the traced rounds, from their spans and the
    work counters.  Shares are of the traced request time."""
    traced = [r for r in runner.rounds if r.traced]
    rounds = len(traced)
    spans = [s for r in traced for s in runner.tracer.spans[r.first_span:r.last_span]]
    setup_spans = [s for s in runner.tracer.spans if s[NAME] == "gf.Field"]
    work = traced[0].work
    selfs = {name: t / rounds for name, t in self_times(spans).items()}
    request_s = sum(s[END] - s[START] for s in spans if s[PARENT] is None) / rounds
    uncovered = request_s - sum(selfs.get(name, 0.0) for name in SPANS)

    def durations(name, group=spans):
        return [s[END] - s[START] for s in group if s[NAME] == name]

    out: dict = {}
    for name in SPANS:
        if name == "gf.Field":  # set-up, not rounds
            out[f"{name}.calls"] = (len(setup_spans), "count")
            out[f"{name}.busy_s"] = (sum(durations(name, setup_spans)), "s")
            continue
        out[f"{name}.calls"] = (len(durations(name)) / rounds, "count")
        out[f"{name}.busy_s"] = (sum(durations(name)) / rounds, "s")
        out[f"{name}.self_share"] = (selfs.get(name, 0.0) / request_s, "ratio")
    layer_self: dict = {}
    for name in SPANS:
        layer = LAYERS.get(name.split(".")[0])
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs.get(name, 0.0)
    for layer in sorted(set(LAYERS.values())):
        out[f"layer.{layer}.self_share"] = (layer_self.get(layer, 0.0) / request_s, "ratio")

    def busy(name):
        return out[f"{name}.busy_s"][0]

    support_states = work.get("support_states", 0)
    window_states = work.get("window_states", 0)
    first_support = [s[END] - s[START] for s in spans if s[NAME] == "oracle.support" and s[NOTE] == "first"]
    out["oracle.support.states"] = (support_states, "count")
    out["oracle.support.states_per_s"] = (_ratio(support_states, busy("oracle.support")), "1/s")
    out["oracle.support.first_call_s"] = (sum(first_support) / rounds, "s")
    out["oracle.support.budget_exceeded"] = (work.get("budget_exceeded", 0), "count")
    out["oracle.window.states"] = (window_states, "count")
    out["oracle.window.hit_ratio"] = (_ratio(out["oracle.window.calls"][0], window_states), "ratio")
    out["polynomials.family_terms"] = (work.get("family_terms", 0), "count")
    out["polynomials.term_evals"] = (work.get("term_evals", 0), "count")
    out["polynomials.term_evals_per_s"] = (
        _ratio(work.get("term_evals", 0), busy("polynomials.common_zero_count")), "1/s")
    rghw_spans = [s for s in spans if s[NAME] == "weights.rghw"]
    first_rghw = [s[END] - s[START] for s in rghw_spans if s[NOTE] == "first"]
    warm_rghw = sorted(s[END] - s[START] for s in rghw_spans if s[NOTE] != "first")
    out["weights.rghw.first_call_ms"] = (1e3 * statistics.fmean(first_rghw) if first_rghw else 0.0, "ms")
    out["weights.rghw.warm_p50_us"] = (1e6 * percentile(warm_rghw, 50) if warm_rghw else 0.0, "us")
    hierarchy_records = work.get("hierarchy_records", 0)
    out["weights.hierarchy.records"] = (hierarchy_records, "count")
    out["weights.hierarchy.us_per_record"] = (
        1e6 * _ratio(busy("weights.hierarchy"), hierarchy_records), "us")
    out["trace.request_s"] = (request_s, "s")
    out["trace.uncovered_s"] = (uncovered, "s")
    out["trace.uncovered_share"] = (uncovered / request_s, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.spans"] = (len(spans) / rounds, "count")
    out["trace.rounds"] = (rounds, "count")
    out["work.requests"] = (traced[0].attempted, "count")
    out["work.records"] = (work.get("records", 0), "count")
    out["work.field_builds"] = (len(setup_spans), "count")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
