"""The observability layer: span tracing, typed metrics, and trace reports.

Load-bearing claims: tracing disabled is a true no-op (no file, no
behaviour change), a forked child never writes the parent's trace file
and stamps its own pid into the span ids it writes, verdicts are
byte-identical with tracing on vs off, the typed metrics
registry kind-checks and diffs, and ``python -m repro.obs report`` totals
agree exactly with the campaign report's replay/compute split.
"""

import json
import os

import pytest

from repro.campaign import run_campaign
from repro.campaign.spec import ScenarioResult
from repro.engine import CachedEngine, EngineStats
from repro.graphs import cycle_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.obs import metrics, trace
from repro.obs.cli import main as obs_main
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.report import aggregate, load_trace

#: The two quick campaign scenarios the replay-exactness test sweeps.
SMOKE = ["classic-cycles-vs-paths", "sec2-promise-cycles"]


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


# ---------------------------------------------------------------------- #
# Tracer mechanics
# ---------------------------------------------------------------------- #


def test_disabled_tracing_is_a_noop(tmp_path):
    assert not trace.enabled()
    sp = trace.span("anything", jobs=3)
    with sp as entered:
        entered.add(more=1)
    assert sp.id is None
    assert list(tmp_path.iterdir()) == []


def test_span_tree_written_with_parents_attrs_and_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("outer", kind="meta") as outer:
        with trace.span("inner", jobs=2) as inner:
            inner.add(jobs_done=2)
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("x")
    trace.disable()
    spans = {s["kind"]: s for s in load_trace(str(path))}
    assert set(spans) == {"outer", "inner", "boom"}
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["boom"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["attrs"] == {"jobs": 2, "jobs_done": 2}
    assert spans["outer"]["attrs"] == {"kind": "meta"}  # attr named 'kind' is fine
    assert spans["boom"]["attrs"]["error"] == "RuntimeError"
    for s in spans.values():
        assert s["t1"] >= s["t0"]


def test_enable_tags_and_unserialisable_attrs(tmp_path):
    path = tmp_path / "t.jsonl"
    # Spans carry only their own attrs: enable() takes no process-wide tags.
    with pytest.raises(TypeError):
        trace.enable(path, tags={"worker": 7})
    assert not trace.enabled()
    trace.enable(path)
    with trace.span("x", payload=object()):
        pass
    trace.disable()
    (span,) = load_trace(str(path))
    assert "object object" in span["attrs"]["payload"]


def test_trace_skips_garbled_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("good"):
        pass
    trace.disable()
    with open(path, "a") as fh:
        fh.write('{"kind": "trunca')
        fh.write("\nnot json\n")
    spans = load_trace(str(path))
    assert [s["kind"] for s in spans] == ["good"]


# ---------------------------------------------------------------------- #
# Forked children
# ---------------------------------------------------------------------- #


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_worker_pids_differ_from_parent_in_span_ids(tmp_path):
    # A forked worker never writes the parent's trace (the inherited tracer
    # is dropped at fork); a worker that traces into its own file stamps its
    # own pid into every span id, so the two trees can never collide.
    path = tmp_path / "t.jsonl"
    child_path = tmp_path / "child.jsonl"
    decider = FunctionIdObliviousAlgorithm(
        lambda view: YES if view.center_degree() == 2 else NO, radius=1, name="deg2"
    )
    jobs = [(cycle_graph(12, label="x"), None) for _ in range(4)]
    untraced = CachedEngine().run_many(decider, jobs)
    trace.enable(path)
    with trace.span("parent"):
        pid = os.fork()
        if pid == 0:  # child: the inherited tracer must already be gone
            try:
                code = 1 if trace.enabled() else 0
                with trace.span("child"):
                    CachedEngine().run_many(decider, jobs)
                trace.enable(child_path)
                CachedEngine().run_many(decider, jobs)
                trace.disable()
                os._exit(code)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        traced = CachedEngine().run_many(decider, jobs)
    trace.disable()
    assert os.waitstatus_to_exitcode(status) == 0
    assert traced == untraced
    parent_pid = f"{os.getpid():x}"
    spans = load_trace(str(path))
    assert "child" not in {s["kind"] for s in spans}
    assert {s["id"].split(".")[0] for s in spans} == {parent_pid}
    child_pids = {s["id"].split(".")[0] for s in load_trace(str(child_path))}
    assert child_pids == {f"{pid:x}"} and parent_pid not in child_pids


# ---------------------------------------------------------------------- #
# Typed metrics registry
# ---------------------------------------------------------------------- #


def test_registry_counts_gauges_and_histograms():
    reg = MetricsRegistry()
    m = Metric("widgets", COUNTER, "widgets", "test counter")
    g = Metric("depth", GAUGE, "levels", "test gauge")
    h = Metric("latency", HISTOGRAM, "seconds", "test histogram")
    assert reg.inc(m) == 1
    assert reg.inc(m, 4) == 5
    reg.set(g, 3)
    reg.observe(h, 0.25)
    reg.observe(h, 0.75)
    assert reg.get(m) == 5
    assert reg.get(g) == 3
    summary = reg.histogram_summary(h)
    assert summary["count"] == 2
    assert summary["p50"] in (0.25, 0.75)


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    counter = Metric("c", COUNTER, "x", "d")
    gauge = Metric("g", GAUGE, "x", "d")
    with pytest.raises(ValueError):
        reg.set(counter, 1)
    with pytest.raises(ValueError):
        reg.inc(gauge)
    with pytest.raises(ValueError):
        reg.observe(counter, 1.0)


def test_snapshot_diff_reports_only_deltas():
    reg = MetricsRegistry()
    a = Metric("a", COUNTER, "x", "d")
    b = Metric("b", COUNTER, "x", "d")
    reg.inc(a, 2)
    before = reg.snapshot()
    reg.inc(a, 3)
    reg.inc(b)
    deltas = diff_snapshots(before, reg.snapshot())
    assert deltas == {"a": 3, "b": 1}


def test_campaign_report_counter_keys_match_metric_names(tmp_path):
    # Every counter a campaign report carries beyond the core EngineStats
    # fields is the wire name of a declared Metric: no stringly-typed drift.
    declared = {m.name for m in vars(metrics).values() if isinstance(m, Metric)}
    core = set(EngineStats().as_dict())
    keys = set()
    for engine in ("synchronous", "cached"):
        for _ in range(2):  # cold fill, then a warm replay
            report = run_campaign(SMOKE, engine=engine, quick=True, store=tmp_path / engine)
            for scenario in report.as_dict()["scenarios"]:
                keys |= set(scenario["engine_stats"]) - core
    assert {"store_replayed", "store_computed", "messages_sent"} <= keys
    assert keys <= declared


# ---------------------------------------------------------------------- #
# phase_seconds
# ---------------------------------------------------------------------- #


def _result(**overrides):
    base = dict(
        name="s",
        section="x",
        kind="verify",
        engine="cached",
        seconds=1.0,
        observed_correct=True,
        expected_correct=True,
        instances=1,
        sweeps=1,
        summary="ok",
    )
    base.update(overrides)
    return ScenarioResult(**base)


def test_phase_seconds_round_trips():
    result = _result(phase_seconds={"build": 0.25, "verify": 0.5, "persist": 0.0000004})
    payload = json.loads(json.dumps(result.as_dict()))
    assert payload["phase_seconds"]["build"] == 0.25
    back = ScenarioResult.from_dict(payload)
    assert back.phase_seconds["verify"] == 0.5
    assert back.phase_seconds["persist"] == 0.0  # rounded at 6 dp


def test_phase_seconds_defaults_for_legacy_payloads():
    payload = _result().as_dict()
    del payload["phase_seconds"]
    back = ScenarioResult.from_dict(payload)
    assert back.phase_seconds == {}


def test_scenario_results_record_phases():
    report = run_campaign(["classic-cycles-vs-paths"], engine="cached", quick=True)
    (result,) = report.results
    assert set(result.phase_seconds) >= {"build", "verify"}
    assert result.phase_seconds["verify"] >= 0.0


# ---------------------------------------------------------------------- #
# Campaign traces and the report CLI
# ---------------------------------------------------------------------- #


def test_campaign_trace_replay_totals_match_report_exactly(tmp_path):
    store = tmp_path / "verdicts"
    for attempt in ("cold", "warm"):
        trace_path = tmp_path / f"{attempt}.jsonl"
        trace.enable(trace_path)
        report = run_campaign(SMOKE, engine="cached", quick=True, store=store)
        trace.disable()
        stats = aggregate(load_trace(str(trace_path)))
        assert stats["replay"]["scenarios"] == len(report.results) == len(SMOKE)
        assert stats["replay"]["jobs_replayed"] == report.jobs_replayed
        assert stats["replay"]["jobs_computed"] == report.jobs_computed
        if attempt == "cold":
            assert report.jobs_replayed == 0 and report.jobs_computed > 0
        else:
            assert report.jobs_computed == 0 and report.jobs_replayed > 0


def test_aggregate_self_time_and_job_latency():
    spans = [
        {"kind": "campaign.run", "id": "p.1", "parent": None, "t0": 0.0, "t1": 10.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.2", "parent": "p.1", "t0": 1.0, "t1": 4.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.3", "parent": "p.1", "t0": 4.0, "t1": 5.0, "attrs": {}},
        {
            "kind": "campaign.scenario",
            "id": "p.4",
            "parent": "p.1",
            "t0": 5.0,
            "t1": 6.0,
            "attrs": {"jobs_replayed": 7, "jobs_computed": 3},
        },
    ]
    stats = aggregate(spans)
    # self = 10 - (3 + 1 + 1); campaign.run is orchestration, not a job.
    assert stats["kinds"]["campaign.run"]["self_s"] == pytest.approx(5.0)
    assert stats["job_latency"]["jobs"] == 2
    assert stats["job_latency"]["p50_ms"] == pytest.approx(1000.0)
    assert stats["job_latency"]["p99_ms"] == pytest.approx(3000.0)
    assert stats["replay"] == {"scenarios": 1, "jobs_replayed": 7, "jobs_computed": 3}
    assert [r["id"] for r in stats["roots"]] == ["p.1"]


def test_nested_job_spans_count_once():
    spans = [
        {"kind": "persistent.run", "id": "p.1", "parent": None, "t0": 0.0, "t1": 2.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.2", "parent": "p.1", "t0": 0.0, "t1": 2.0, "attrs": {}},
    ]
    assert aggregate(spans)["job_latency"]["jobs"] == 1


def test_obs_cli_exit_codes_and_compare(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("cached.run"):
        pass
    trace.disable()
    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cached.run" in out and "per-job latency" in out
    assert obs_main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spans"] == 1
    assert obs_main(["report", str(path), "--compare", str(path)]) == 0
    assert "Δself_s" in capsys.readouterr().out
    assert obs_main(["report", str(tmp_path / "missing.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert obs_main(["report", str(empty)]) == 2


def test_global_metrics_feed_intern_counters():
    pytest.importorskip("numpy")
    metrics.reset_global_metrics()
    graph = cycle_graph(10, label="obs")
    from repro.engine.interned import intern_graph

    assert intern_graph(graph) is not None
    assert intern_graph(graph) is not None  # second call hits the cache
    snap = metrics.global_metrics().snapshot()
    assert snap.get("intern_cache_misses", 0) >= 1
    assert snap.get("intern_cache_hits", 0) >= 1
