"""Tracing-overhead bench: the flight recorder must be (almost) free.

The observability layer instruments every public engine driver, so its
cost model is load-bearing: with tracing *disabled* the per-call price is
one global ``None`` check (the no-op span), and with tracing *enabled* it
is one JSON line per span.  This bench measures both against a truly
unspanned baseline (a bench-local subclass that routes the public drivers
straight to the ``_core`` implementations) on a compute-light sweep, and
emits ``BENCH_obs.json`` so CI gates the two throughput ratios:

* ``throughput_ratio_disabled`` >= 0.95 — instrumented-but-off runs at
  least 95% of unspanned throughput;
* ``throughput_ratio_enabled`` >= 0.80 — a live trace costs at most 20%.

Verdicts are asserted byte-identical across all three variants.
"""

import time

from repro.engine import CachedEngine
from repro.graphs import grid_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.obs import trace
from repro.obs.report import aggregate, load_trace


#: Floors asserted here and gated again in CI via check_regression --gate.
DISABLED_FLOOR = 0.95
ENABLED_FLOOR = 0.80

_REPEATS = 5
_JOBS = 12


class UnspannedCachedEngine(CachedEngine):
    """CachedEngine with the span-emitting public drivers bypassed.

    Routing ``run``/``run_many`` straight to the ``_core`` implementations
    reproduces the pre-instrumentation drivers exactly, which makes this
    the honest "untraced" baseline: the production engine with tracing
    disabled is measured *against* it, not against itself.
    """

    def run(self, algorithm, graph, ids=None, nodes=None):
        return self._run_core(algorithm, graph, ids, nodes)

    def run_many(self, algorithm, jobs):
        return self._run_many_core(algorithm, jobs)


def _decider():
    def evaluate(view):
        return YES if view.center_degree() >= 2 else NO

    return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="deg-floor")


def _jobs():
    # 8x8 grids: enough per-job compute (64 ball extractions + evaluations)
    # that the one span wrapping each job is measured against real work.
    return [(grid_graph(8, 8, label="b"), None) for _ in range(_JOBS)]


def _timed_sweep(engine_factory, repeats=_REPEATS):
    """Best-of-``repeats`` run_many sweep on a *fresh* engine per repeat.

    A fresh CachedEngine each time keeps every repeat computing (cold ball
    cache and memo), so the measured seconds are dominated by the work the
    spans wrap rather than by cache lookups — the regime where span
    overhead would show if it were there.
    """
    decider, jobs = _decider(), _jobs()
    outputs, times = None, []
    for _ in range(repeats):
        engine = engine_factory()
        start = time.perf_counter()
        outputs = engine.run_many(decider, jobs)
        times.append(time.perf_counter() - start)
    return outputs, min(times), times


def test_bench_tracing_overhead(tmp_path, write_bench_record):
    trace.disable()
    baseline_out, t_unspanned, times_unspanned = _timed_sweep(UnspannedCachedEngine)
    disabled_out, t_disabled, times_disabled = _timed_sweep(CachedEngine)

    trace_path = tmp_path / "bench-trace.jsonl"
    trace.enable(trace_path)
    try:
        enabled_out, t_enabled, times_enabled = _timed_sweep(CachedEngine)
    finally:
        trace.disable()

    # Tracing (on or off) never changes a single verdict.
    assert disabled_out == baseline_out
    assert enabled_out == baseline_out

    # The trace actually recorded the sweeps it claims to have timed.
    spans = load_trace(str(trace_path))
    stats = aggregate(spans)
    assert stats["kinds"]["cached.run_many"]["count"] == _REPEATS
    assert stats["kinds"]["cached.run"]["count"] == _REPEATS * _JOBS

    ratio_disabled = t_unspanned / t_disabled if t_disabled > 0 else float("inf")
    ratio_enabled = t_unspanned / t_enabled if t_enabled > 0 else float("inf")
    payload = {
        "workload": f"run_many sweep: {_JOBS} grid graphs, fresh CachedEngine per repeat",
        "jobs": _JOBS,
        "repeats": _REPEATS,
        "spans_recorded": stats["spans"],
        "seconds": {
            "unspanned": round(t_unspanned, 6),
            "tracing_disabled": round(t_disabled, 6),
            "tracing_enabled": round(t_enabled, 6),
        },
        "seconds_per_repeat": {
            "unspanned": [round(t, 6) for t in times_unspanned],
            "tracing_disabled": [round(t, 6) for t in times_disabled],
            "tracing_enabled": [round(t, 6) for t in times_enabled],
        },
        "throughput_ratio_disabled": round(ratio_disabled, 3),
        "throughput_ratio_enabled": round(ratio_enabled, 3),
        "verdicts_identical_across_variants": True,
        "recorded_at_unix": int(time.time()),
    }
    write_bench_record("BENCH_obs.json", payload)

    assert ratio_disabled >= DISABLED_FLOOR, (
        f"tracing-disabled throughput only {ratio_disabled:.3f}x of unspanned "
        f"(unspanned {t_unspanned:.4f}s, disabled {t_disabled:.4f}s)"
    )
    assert ratio_enabled >= ENABLED_FLOOR, (
        f"tracing-enabled throughput only {ratio_enabled:.3f}x of unspanned "
        f"(unspanned {t_unspanned:.4f}s, enabled {t_enabled:.4f}s)"
    )
