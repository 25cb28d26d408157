"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then traced, half of ``--seconds`` each, and prints
the per-layer metrics.  Every verdict is checked; any mismatch makes the
command exit with 1.  Times are in reference seconds (see ``refclock.py``).
See ``README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import bench_workloads  # noqa: E402  (needs the program on sys.path)
import refclock  # noqa: E402

#: ``setup_s`` is the median of at least this many set-ups ...
SETUP_MIN_REPEATS = 3
#: ... repeated until this much set-up time has passed (cheap set-ups repeat
#: many times, so their median is steady) ...
SETUP_MIN_SECONDS = 2.0
#: ... but never more often than this.
SETUP_MAX_REPEATS = 10_000

REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")


def measure(workload, state, seconds: float, clock, tracer=None):
    """Run passes back to back while the next one is expected to end within ``seconds`` of wall time."""
    results, walls = [], []
    started = time.perf_counter()
    while True:
        clock.calibrate()
        pass_started = time.perf_counter()
        if tracer is None:
            result = workload.run_pass(state, len(results), clock)
        else:
            with tracer.phase("pass"):
                result = workload.run_pass(state, len(results), clock, tracer)
        walls.append(time.perf_counter() - pass_started)
        results.append(result)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            clock.calibrate()
            return results


def timed_setups(workload, clock, repeats: int = SETUP_MAX_REPEATS):
    """Set up repeatedly; keep the last state, return it with the set-up spans."""
    spans, state = [], None
    started = time.perf_counter()
    while len(spans) < repeats and (len(spans) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_SECONDS):
        if state is not None:
            workload.teardown(state)
        clock.tick()
        setup_started = clock.now()
        state = workload.setup(clock)
        spans.append((setup_started, clock.now()))
    return state, spans


class Verdicts:
    """Counts checks: every cell against its expectation, every pass against the reference."""

    def __init__(self, workload: str, seed: int) -> None:
        self.attempted = 0
        self.failures = []
        with open(REFERENCE_PATH) as handle:
            self.reference = json.load(handle)[workload].get(str(seed))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_cells(self, checks) -> None:
        for c in checks:
            self.check(c.ok, f"{c.name}: observed {c.observed!r}")

    def check_passes(self, results) -> None:
        for index, result in enumerate(results):
            self.check_cells(result.checks)
            if self.reference:
                expected = self.reference[index % len(self.reference)]
                self.check(result.digest() == expected, f"pass {index}: verdict digest differs from the reference")


def percentile(values, q: float) -> float:
    """The ``q``-quantile by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def end_to_end(results, setup_spans, clock):
    pass_seconds = [clock.seconds(*r.span) for r in results]
    latencies = [clock.seconds(*c.span) for r in results for c in r.checks]
    cells = len(latencies)
    metrics = {
        "wall_s": (statistics.median(pass_seconds), "s"),
        "setup_s": (statistics.median(clock.seconds(*span) for span in setup_spans), "s"),
        "cells_per_s": (cells / sum(pass_seconds), "1/s"),
        "jobs_per_s": (sum(r.jobs for r in results) / sum(pass_seconds), "1/s"),
        "trials_per_s": (sum(r.trials for r in results) / sum(clock.seconds(*r.trial_span) for r in results), "1/s"),
        "cell_p50_s": (statistics.median(latencies), "s"),
        "cell_p95_s": (percentile(latencies, 0.95), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond_p95 = sum(1 for x in latencies if x > metrics["cell_p95_s"][0])
    print(
        f"{len(results)} passes of {[round(s, 3) for s in pass_seconds]} reference s "
        f"(program {[round(r.span[1] - r.span[0], 3) for r in results]} s, host {clock.slowdown():.2f}x "
        f"slower than the reference); {len(setup_spans)} set-ups; {cells} cell latencies ({beyond_p95} beyond p95)",
        file=sys.stderr,
    )
    return metrics


#: Per-layer seconds: metric name -> traced layer (self time).
LAYER_SECONDS = {
    "workloads.expand_s": "workloads.expand",
    "campaign.build_s": "campaign.build",
    "campaign.self_s": "campaign",
    "decision.verify_s": "decision.verify",
    "decision.assignments_s": "decision.assignments",
    "decision.estimate_s": "decision.estimate",
    "adversary.search_s": "adversary.search",
    "engine.view_key_s": "engine.view_key",
    "engine.views_s": "engine.views",
    "engine.ball_table_s": "engine.ball_table",
    "engine.intern_s": "engine.intern",
    "engine.evaluate_s": "engine.evaluate",
    "store.open_s": "store.open",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "store.digest_s": "store.digest",
    "graphs.extract_s": "graphs.extract",
    "graphs.induced_subgraph_s": "graphs.induced_subgraph",
    "turing.run_s": "turing.run",
    "separation.exec_graph_s": "separation.exec_graph",
    "separation.promise_instance_s": "separation.promise_instance",
}
LAYER_COUNTS = (
    "campaign.cells",
    "decision.trials",
    "adversary.executions",
    "engine.view_key_calls",
    "engine.view_key_fallbacks",
    "engine.intern_fallbacks",
    "store.puts",
    "store.gets",
    "graphs.induced_subgraph_calls",
    "turing.steps",
)
#: Layers and counters whose work happens in set-up: reported per set-up, not per pass.
SETUP_LAYERS = {"workloads.expand", "store.open", "store.put", "store.puts"}

def per_layer(tracer, traced, untraced, clock):
    """Per-layer metrics from the traced run, per pass (set-up layers: per set-up)."""
    self_s = tracer.self_seconds()
    phases = {phase for phase, _ in self_s} | {phase for phase, _ in tracer.counts}
    pass_phases = phases - {"setup"}
    passes = len(traced)

    def total(table, key):
        if key in SETUP_LAYERS:
            return table.get(("setup", key), 0.0)
        return sum(table.get((phase, key), 0.0) for phase in pass_phases) / passes

    metrics = {}
    for metric, layer in LAYER_SECONDS.items():
        metrics[metric] = (total(self_s, layer), "s")
    for metric in LAYER_COUNTS:
        metrics[metric] = (total(tracer.counts, metric), "count")
    evaluations = sum(r.stats.get("evaluations", 0) for r in traced)
    hits = sum(r.stats.get("evaluation_hits", 0) for r in traced)
    replayed = sum(r.stats.get("jobs_replayed", 0) for r in traced)
    computed = sum(r.stats.get("jobs_computed", 0) for r in traced)
    defeats = total(tracer.counts, "adversary.defeats")
    metrics["engine.evaluations"] = (evaluations / passes, "count")
    metrics["engine.memo_hit_ratio"] = (hits / (evaluations + hits) if evaluations + hits else 0.0, "ratio")
    metrics["store.replay_ratio"] = (replayed / (replayed + computed) if replayed + computed else 0.0, "ratio")
    metrics["adversary.executions_per_defeat"] = (
        metrics["adversary.executions"][0] / defeats if defeats else 0.0,
        "count",
    )
    traced_wall = statistics.median(clock.seconds(*r.span) for r in traced)
    untraced_wall = statistics.median(clock.seconds(*r.span) for r in untraced)
    metrics["obs.trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    covered = sum(value for (phase, _layer), value in self_s.items() if phase in pass_phases)
    # Spans hold wall seconds, and a traced run calibrates only between passes.
    metrics["obs.attributed_frac"] = (covered / sum(r.span[1] - r.span[0] for r in traced), "ratio")
    return metrics


def largest_self_times(tracer):
    """The layer with the largest self time in each phase of the passes."""
    largest = {}
    for (phase, layer), seconds in tracer.self_seconds().items():
        if phase != "setup" and seconds > largest.get(phase, ("", -1.0))[1]:
            largest[phase] = (layer, seconds)
    return {phase: layer for phase, (layer, _seconds) in largest.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = bench_workloads.make_workload(workload_name, seed, OUT_DIR)
    verdicts = Verdicts(workload_name, seed)
    # A traced run calibrates only between passes, never inside a traced span.
    clock = refclock.RefClock(None if trace else refclock.CALIBRATION_INTERVAL_S)
    state, setup_spans = timed_setups(workload, clock, 1 if trace else SETUP_MAX_REPEATS)
    try:
        untraced = measure(workload, state, seconds / 2 if trace else seconds, clock)
    finally:
        workload.teardown(state)
    verdicts.check_passes(untraced)
    if not trace:
        # Set up again after the passes: the host's speed drifts over tens
        # of seconds, and set-ups at both ends of the run see two states of it.
        state, later_spans = timed_setups(workload, clock)
        workload.teardown(state)
        metrics = end_to_end(untraced, setup_spans + later_spans, clock)
    else:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
        try:
            state = workload.setup(clock)
            try:
                traced = measure(workload, state, seconds / 2, clock, tracer)
            finally:
                workload.teardown(state)
        finally:
            tracer.uninstall()
        verdicts.check_passes(traced)
        for index, (plain, with_trace) in enumerate(zip(untraced, traced)):
            verdicts.check(plain.digest() == with_trace.digest(), f"pass {index}: tracing changed the verdicts")
        metrics = per_layer(tracer, traced, untraced, clock)
        findings = largest_self_times(tracer)
        print(f"largest self time per phase: {findings}", file=sys.stderr)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{workload_name}-seed{seed}.jsonl"),
            {"workload": workload_name, "seed": seed, "largest_self_time": findings,
             "metrics": {name: value for name, (value, _unit) in metrics.items()}},
        )
    verdicts.check_cells(getattr(workload, "setup_checks", []))
    for failure in verdicts.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if verdicts.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
