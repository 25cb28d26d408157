"""The persistent verdict store: replay correctness, corruption recovery, stats.

The contract under test: wrapping any engine in a :class:`VerdictStore`
(``engine.with_store(path)``) never changes a single verdict — cold and
warm sweeps are byte-identical on every backend — while the second
and later sweeps replay settled jobs from disk instead of recomputing
them, and a truncated segment line (a run killed mid-append) costs one
verdict, not the store.
"""

import json

import pytest

from repro.decision import (
    FunctionProperty,
    InstanceFamily,
    estimate_acceptance_probability,
    verify_decider,
)
from repro.engine import (
    CachedEngine,
    DirectEngine,
    PersistentEngine,
    StoreCorruptionWarning,
    VerdictStore,
    algorithm_fingerprint,
    job_digest,
)
from repro.graphs import cycle_graph, path_graph, sequential_assignment
from repro.local_model import (
    NO,
    YES,
    FunctionAlgorithm,
    FunctionIdObliviousAlgorithm,
    FunctionRandomisedAlgorithm,
    run_algorithm,
    run_randomised_algorithm,
)

# ---------------------------------------------------------------------- #
# Shared workload: the cycles-vs-paths sweep
# ---------------------------------------------------------------------- #


def _cycle_property():
    return FunctionProperty(
        lambda g: g.num_nodes() >= 3 and all(g.degree(v) == 2 for v in g.nodes()),
        name="uniform-cycle",
    )


def _cycle_path_family(sizes=(8, 12)):
    return InstanceFamily(
        name="cycles-vs-paths",
        yes_instances=[cycle_graph(n, label="x") for n in sizes],
        no_instances=[path_graph(n, label="x") for n in sizes],
    )


def _cycle_decider():
    def evaluate(view):
        if view.center_degree() != 2:
            return NO
        if any(view.label_of(v) != "x" for v in view.nodes()):
            return NO
        return YES

    return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="cycle-decider")


def _id_decider():
    return FunctionAlgorithm(
        lambda view: YES if view.max_visible_identifier() % 2 == 0 else NO,
        radius=1,
        name="parity",
    )


def _coin_decider():
    return FunctionRandomisedAlgorithm(
        lambda view, rng: YES if rng.random() < 0.7 else NO, radius=1, name="biased-coin"
    )


def _verify(engine, samples=4):
    return verify_decider(
        _cycle_decider(), _cycle_property(), family=_cycle_path_family(), samples=samples, engine=engine
    )


# ---------------------------------------------------------------------- #
# Cold vs warm equivalence across backends
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("passes", [1, 2, 4])
def test_cold_and_warm_sweeps_are_byte_identical(tmp_path, passes):
    # One cold sweep, then ``passes`` warm sweeps, each on a freshly opened
    # store: every warm sweep replays everything and changes nothing.
    baseline = _verify(DirectEngine())
    for inner in ("direct", "synchronous", "cached"):

        def engine():
            return PersistentEngine(tmp_path / inner, inner=inner)

        cold_engine = engine()
        cold = _verify(cold_engine)
        cold_engine.store.close()
        # Segments are loaded when a store opens, so each warm engine is
        # built only after the previous run has settled its verdicts on disk.
        warms = []
        for _ in range(passes):
            warm_engine = engine()
            warms.append(_verify(warm_engine))
            assert warm_engine.store.appends == 0
            warm_engine.store.close()

        for report in (cold, *warms):
            assert report.correct == baseline.correct
            assert report.instances_checked == baseline.instances_checked
            assert report.assignments_checked == baseline.assignments_checked
            assert report.as_dict()["first_counterexample"] == baseline.as_dict()["first_counterexample"]
        # The cold sweep computed everything; the warm sweeps replayed everything.
        assert cold.jobs_replayed == 0 and cold.jobs_computed == cold.assignments_checked
        for warm in warms:
            assert warm.jobs_computed == 0 and warm.jobs_replayed == warm.assignments_checked


@pytest.mark.parametrize("passes", [1, 2, 4])
def test_randomised_estimates_replay_identically(tmp_path, passes):
    graph = cycle_graph(24, label="x")
    baseline = estimate_acceptance_probability(_coin_decider(), graph, trials=10, seed=5)
    for inner in ("direct", "synchronous", "cached"):

        def engine():
            return PersistentEngine(tmp_path / inner, inner=inner)

        cold_engine = engine()
        cold = estimate_acceptance_probability(_coin_decider(), graph, trials=10, seed=5, engine=cold_engine)
        cold_engine.store.close()
        assert cold.accepts == baseline.accepts
        assert cold.trials_replayed == 0 and cold.trials_computed == 10
        for _ in range(passes):
            warm_engine = engine()
            warm = estimate_acceptance_probability(_coin_decider(), graph, trials=10, seed=5, engine=warm_engine)
            warm_engine.store.close()
            assert warm.accepts == baseline.accepts
            assert warm.trials_computed == 0 and warm.trials_replayed == 10


@pytest.mark.parametrize("inner", ["direct", "synchronous", "cached"])
def test_store_wraps_every_backend_equivalently(tmp_path, inner):
    # The store seam composes with all three existing backends; verdicts are
    # unchanged whether the sweep computes (cold) or replays (warm).
    baseline = _verify(DirectEngine())
    cold_engine = PersistentEngine(tmp_path / inner, inner=inner)
    cold = _verify(cold_engine)
    cold_engine.store.close()
    warm = _verify(PersistentEngine(tmp_path / inner, inner=inner))
    for report in (cold, warm):
        assert report.correct == baseline.correct
        assert report.assignments_checked == baseline.assignments_checked
    assert warm.jobs_replayed == warm.assignments_checked


def test_id_dependent_runs_replay_per_assignment(tmp_path):
    graph = cycle_graph(10, label="x")
    ids_a = sequential_assignment(graph)
    ids_b = sequential_assignment(graph, start=1)
    expected_a = run_algorithm(_id_decider(), graph, ids_a)
    expected_b = run_algorithm(_id_decider(), graph, ids_b)

    cold = CachedEngine().with_store(tmp_path / "store")
    assert run_algorithm(_id_decider(), graph, ids_a, engine=cold) == expected_a
    assert run_algorithm(_id_decider(), graph, ids_b, engine=cold) == expected_b
    cold.store.close()

    warm = CachedEngine().with_store(tmp_path / "store")
    assert run_algorithm(_id_decider(), graph, ids_a, engine=warm) == expected_a
    assert run_algorithm(_id_decider(), graph, ids_b, engine=warm) == expected_b
    # Two distinct assignments of an Id-dependent algorithm are two distinct
    # store entries; both replayed.
    assert warm.stats.extra["store_replayed"] == 2


def test_unseeded_randomised_runs_are_never_persisted(tmp_path):
    graph = cycle_graph(12, label="x")
    engine = CachedEngine().with_store(tmp_path / "store")
    run_randomised_algorithm(_coin_decider(), graph, engine=engine)  # no explicit seed
    assert "store_computed" not in engine.stats.extra
    assert len(engine.store) == 0


# ---------------------------------------------------------------------- #
# Store hit/miss statistics surfaced through reports
# ---------------------------------------------------------------------- #


def test_store_stats_surface_through_verification_report(tmp_path):
    engine = CachedEngine().with_store(tmp_path / "store")
    cold = _verify(engine)
    warm = _verify(engine)
    payload_cold, payload_warm = cold.as_dict(), warm.as_dict()
    assert payload_cold["jobs_computed"] == cold.assignments_checked
    assert payload_cold["jobs_replayed"] == 0
    assert payload_warm["jobs_replayed"] == warm.assignments_checked
    assert payload_warm["jobs_computed"] == 0
    assert "replayed" in warm.summary()
    # Engine-level extras and store-level counters agree with the reports.
    assert engine.stats.extra["store_computed"] == cold.jobs_computed
    assert engine.stats.extra["store_replayed"] == warm.jobs_replayed
    stats = engine.store.stats()
    assert stats["entries"] > 0
    assert stats["appends"] == stats["entries"]
    assert stats["hits"] >= warm.jobs_replayed


def test_reports_without_store_count_everything_as_computed():
    report = _verify(CachedEngine())
    assert report.jobs_replayed == 0
    assert report.jobs_computed == report.assignments_checked


# ---------------------------------------------------------------------- #
# Corruption recovery
# ---------------------------------------------------------------------- #


def _segment_files(path):
    return sorted(path.glob("*.jsonl"))


def test_truncated_segment_line_is_skipped_with_warning(tmp_path):
    store_dir = tmp_path / "store"
    engine = CachedEngine().with_store(store_dir)
    cold = _verify(engine)
    engine.store.close()
    (segment,) = _segment_files(store_dir)

    # Simulate a run killed mid-append: the last line is half-written.
    lines = segment.read_text().splitlines()
    segment.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2] + "\n")

    with pytest.warns(StoreCorruptionWarning, match="corrupt"):
        store = VerdictStore(store_dir)
    assert store.corrupt_lines_skipped == 1
    assert len(store) == len(lines) - 1

    # The store stays fully usable: the lost verdict is recomputed (and
    # re-persisted), everything else replays, verdicts unchanged.
    warm_engine = PersistentEngine(store, inner=CachedEngine())
    warm = _verify(warm_engine)
    assert warm.correct == cold.correct
    assert warm.assignments_checked == cold.assignments_checked
    assert warm.jobs_replayed + warm.jobs_computed == warm.assignments_checked
    assert warm.jobs_computed >= 1  # the corrupted entry
    assert warm.jobs_replayed >= 1  # the surviving entries


def test_garbage_lines_and_foreign_records_are_skipped(tmp_path):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    segment = store_dir / "segment-1.jsonl"
    good = json.dumps({"k": "abc", "v": ["yes"]})
    segment.write_text("not json at all\n" + json.dumps(["not", "a", "record"]) + "\n" + good + "\n")
    with pytest.warns(StoreCorruptionWarning):
        store = VerdictStore(store_dir)
    assert store.corrupt_lines_skipped == 2
    assert store.get("abc") == ["yes"]


def test_store_clear_invalidates_everything(tmp_path):
    store_dir = tmp_path / "store"
    engine = CachedEngine().with_store(store_dir)
    _verify(engine)
    assert len(engine.store) > 0
    engine.store.clear()
    assert len(engine.store) == 0
    assert _segment_files(store_dir) == []
    # Cleared on disk too: a fresh open finds nothing.
    assert len(VerdictStore(store_dir)) == 0


# ---------------------------------------------------------------------- #
# Digests and fingerprints
# ---------------------------------------------------------------------- #


def test_fingerprint_sees_edits_inside_nested_functions():
    # A decider whose evaluate wraps an inner lambda: the outer bytecode
    # only references the nested code object by const index, so the
    # fingerprint must recurse into nested code or stale verdicts would
    # replay after an inner-body edit.
    def make(inner):
        def evaluate(view):
            return YES if inner() > 0 else NO

        return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="nested")

    def outer_a(view):
        threshold = lambda: 1  # noqa: E731
        return YES if threshold() > 0 else NO

    def outer_b(view):
        threshold = lambda: -1  # noqa: E731
        return YES if threshold() > 0 else NO

    alg_a = FunctionIdObliviousAlgorithm(outer_a, radius=1, name="nested")
    alg_b = FunctionIdObliviousAlgorithm(outer_b, radius=1, name="nested")
    assert algorithm_fingerprint(alg_a) != algorithm_fingerprint(alg_b)
    # Closure-carried callables are covered too.
    assert algorithm_fingerprint(make(lambda: 1)) != algorithm_fingerprint(make(lambda: -1))


def test_equal_graphs_with_different_node_orders_do_not_cross_replay(tmp_path):
    # LabelledGraph equality ignores node insertion order, but stored output
    # lists are positional: an equal graph built in reverse order must not
    # replay the original's outputs onto the wrong nodes.
    nodes = [0, 1, 2, 3]
    edges = [(0, 1), (1, 2), (2, 3)]
    labels = {0: "a", 1: "b", 2: "b", 3: "a"}
    from repro.graphs import LabelledGraph

    forward = LabelledGraph(nodes, edges, labels)
    backward = LabelledGraph(list(reversed(nodes)), edges, labels)
    assert forward == backward  # order-insensitive equality

    per_node = FunctionIdObliviousAlgorithm(
        lambda view: view.center_label(), radius=0, name="echo-label"
    )
    engine = CachedEngine().with_store(tmp_path / "store")
    first = engine.run(per_node, forward)
    second = engine.run(per_node, backward)
    assert first == {v: labels[v] for v in nodes}
    assert second == {v: labels[v] for v in nodes}


def test_duplicate_appends_are_suppressed_after_front_eviction(tmp_path):
    # A front smaller than the store: evicted digests are recomputed but
    # must never be re-appended as duplicate segment lines.
    store = VerdictStore(tmp_path / "store", max_memory_entries=2)
    for k in range(5):
        store.put(f"digest-{k}", ["yes"])
    assert store.appends == 5
    for k in range(5):
        store.put(f"digest-{k}", ["yes"])  # all evicted-or-present repeats
    assert store.appends == 5  # no duplicate lines
    store.close()
    reopened = VerdictStore(tmp_path / "store", max_memory_entries=100)
    assert len(reopened) == 5


def test_front_evicted_jobs_are_counted_when_recomputed(tmp_path):
    # Three settled jobs, a two-entry memory front: the first job is still
    # on disk but no longer in memory, so asking for it again recomputes it.
    # That gap is counted, on the miss path only.
    store = VerdictStore(tmp_path / "store", max_memory_entries=2)
    engine = CachedEngine().with_store(store)
    graphs = [cycle_graph(n, label="x") for n in (5, 6, 7)]
    for graph in graphs:
        run_algorithm(_cycle_decider(), graph, engine=engine)
    assert engine.stats.extra["store_computed"] == 3
    assert "store_evicted_misses" not in engine.stats.extra

    run_algorithm(_cycle_decider(), graphs[2], engine=engine)  # still in the front
    assert engine.stats.extra["store_replayed"] == 1
    assert "store_evicted_misses" not in engine.stats.extra

    expected = run_algorithm(_cycle_decider(), graphs[0])
    assert run_algorithm(_cycle_decider(), graphs[0], engine=engine) == expected
    assert engine.stats.extra["store_evicted_misses"] == 1
    assert engine.stats.extra["store_computed"] == 4
    assert store.appends == 3  # recomputed, never re-appended

    run_algorithm(_cycle_decider(), cycle_graph(8, label="x"), engine=engine)  # never stored
    assert engine.stats.extra["store_evicted_misses"] == 1


def test_algorithm_fingerprint_distinguishes_code_and_parameters():
    a = _cycle_decider()
    b = _cycle_decider()
    assert algorithm_fingerprint(a) == algorithm_fingerprint(b)
    different_code = FunctionIdObliviousAlgorithm(lambda view: YES, radius=1, name="cycle-decider")
    assert algorithm_fingerprint(a) != algorithm_fingerprint(different_code)
    different_radius = FunctionIdObliviousAlgorithm(a._fn, radius=2, name="cycle-decider")
    assert algorithm_fingerprint(a) != algorithm_fingerprint(different_radius)


def test_job_digest_oblivious_algorithms_share_across_assignments():
    graph = cycle_graph(8, label="x")
    ids_a = sequential_assignment(graph)
    ids_b = sequential_assignment(graph, start=1)
    oblivious = _cycle_decider()
    assert job_digest(oblivious, graph, ids_a) == job_digest(oblivious, graph, ids_b)
    id_aware = _id_decider()
    assert job_digest(id_aware, graph, ids_a) != job_digest(id_aware, graph, ids_b)
    assert job_digest(oblivious, graph, None, seed=1) != job_digest(oblivious, graph, None, seed=2)


def test_with_store_accepts_paths_and_open_stores(tmp_path):
    by_path = CachedEngine().with_store(tmp_path / "store")
    assert isinstance(by_path, PersistentEngine)
    # Sharing one open store between engines (what run_campaign does per
    # scenario) reuses the same segments and memory front.
    by_store = CachedEngine().with_store(by_path.store)
    assert by_store.store is by_path.store
    assert "persistent" in repr(by_store) or "PersistentEngine" in repr(by_store)
