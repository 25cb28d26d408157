"""Shard independence of sweeps on the serial backends.

There is no in-process worker pool: to use several cores, a sweep is split
into shards and each shard runs on its own engine instance, typically in its
own process.  These tests pin the contract that makes that sound — the one
the deleted in-process worker pool was held to: for any number of workers
(independent engine instances, each with its own caches) and any split of
the jobs, contiguous or striped, the merged verdicts, randomised outputs,
estimation statistics and work counters equal those of one serial run.

The sweep-level checks (``verify_decider`` reports, Monte-Carlo estimates,
counter-examples citing their assignment) run on every backend.
"""

import os

import pytest

from repro.decision import (
    FunctionProperty,
    InstanceFamily,
    assignments_for,
    decide,
    estimate_acceptance_probability,
    verify_decider,
)
from repro.engine import CachedEngine, DirectEngine, SynchronousEngine, resolve_engine
from repro.errors import AlgorithmError
from repro.graphs import BoundedIdentifierSpace, cycle_graph, grid_graph, path_graph, sequential_assignment
from repro.local_model import (
    NO,
    YES,
    FunctionAlgorithm,
    FunctionIdObliviousAlgorithm,
    FunctionRandomisedAlgorithm,
    run_algorithm,
    run_randomised_algorithm,
)
from repro.separation.bounded_ids import (
    BoundedIdsLDDecider,
    SmallInstancesProperty,
    section2_family,
    small_bound,
)


def _engines():
    return [DirectEngine(), SynchronousEngine(), CachedEngine()]


def _shard_indices(count, shards, mode="contiguous"):
    """Split ``range(count)`` into at most ``shards`` non-empty index lists."""
    if mode == "striped":
        parts = [list(range(k, count, shards)) for k in range(shards)]
    else:
        parts = [list(range(k * count // shards, (k + 1) * count // shards)) for k in range(shards)]
    return [part for part in parts if part]


def _run_sharded(run, jobs, workers, mode="contiguous"):
    """Run ``jobs`` in shards, one fresh engine per shard; merge in job order."""
    merged = [None] * len(jobs)
    for indices in _shard_indices(len(jobs), workers, mode):
        outputs = run(CachedEngine(), [jobs[i] for i in indices])
        for i, output in zip(indices, outputs):
            merged[i] = output
    return merged


# ---------------------------------------------------------------------- #
# Engine resolution
# ---------------------------------------------------------------------- #


def test_resolve_engine_knows_parallel():
    # "parallel" is no longer a backend name; the error lists the ones left.
    with pytest.raises(AlgorithmError) as excinfo:
        resolve_engine("parallel")
    message = str(excinfo.value)
    for name in ("parallel", "cached", "direct", "synchronous"):
        assert name in message


# ---------------------------------------------------------------------- #
# Cycles-vs-paths: verdict-for-verdict equivalence
# ---------------------------------------------------------------------- #


def _cycle_path_family(sizes=(12, 16)):
    return InstanceFamily(
        name="cycles-vs-paths",
        yes_instances=[cycle_graph(n, label="x") for n in sizes],
        no_instances=[path_graph(n, label="x") for n in sizes],
    )


def _cycle_property():
    return FunctionProperty(
        lambda g: g.num_nodes() >= 3 and all(g.degree(v) == 2 for v in g.nodes()),
        name="uniform-cycle",
    )


def _cycle_decider():
    def evaluate(view):
        if view.center_degree() != 2:
            return NO
        if any(view.label_of(v) != "x" for v in view.nodes()):
            return NO
        return YES

    return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="cycle-decider")


def _coin_decider():
    return FunctionRandomisedAlgorithm(
        lambda view, rng: YES if rng.random() < 0.7 else NO, radius=1, name="biased-coin"
    )


def _parity_decider(radius):
    return FunctionAlgorithm(
        lambda view: YES if view.max_visible_identifier() % 2 == 0 else NO, radius=radius, name="parity"
    )


def _decide_jobs():
    family = _cycle_path_family()
    return [
        (graph, ids)
        for graph, _expected in family.labelled_instances()
        for ids in assignments_for(graph, samples=5, seed=3)
    ]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_verdict_matrix_identical_to_direct(workers):
    decider = _cycle_decider()
    jobs = _decide_jobs()
    serial = [decide(decider, graph, ids, engine=DirectEngine()) for graph, ids in jobs]

    def run(engine, shard):
        return [decide(decider, graph, ids, engine=engine) for graph, ids in shard]

    assert _run_sharded(run, jobs, workers) == serial


def test_verify_decider_reports_match_across_backends():
    family = _cycle_path_family()
    prop = _cycle_property()
    reports = [
        verify_decider(_cycle_decider(), prop, family=family, samples=5, engine=engine)
        for engine in _engines()
    ]
    baseline = reports[0]
    for report in reports:
        assert report.correct
        assert report.instances_checked == baseline.instances_checked
        assert report.assignments_checked == baseline.assignments_checked


# ---------------------------------------------------------------------- #
# Property P (Section 2): the multi-stage LD decider on every backend
# ---------------------------------------------------------------------- #


def test_property_p_scenario_matches_direct():
    depth_fn = lambda r: 4  # noqa: E731
    fam = section2_family(r=2, tree_depth=4, bound_fn=small_bound)
    prop = SmallInstancesProperty(bound_fn=small_bound, tree_depth_override=depth_fn)
    space = BoundedIdentifierSpace(small_bound)

    def verify(engine):
        decider = BoundedIdsLDDecider(bound_fn=small_bound, tree_depth_override=depth_fn)
        return verify_decider(decider, prop, family=fam, id_space=space, samples=2, engine=engine)

    direct, *others = [verify(engine) for engine in _engines()]
    assert direct.correct
    for report in others:
        assert report.correct
        assert report.assignments_checked == direct.assignments_checked
        assert report.summary() == direct.summary()


# ---------------------------------------------------------------------- #
# Sharded single-graph runs and batches
# ---------------------------------------------------------------------- #


def test_sharded_run_matches_direct_on_id_dependent_algorithm():
    graph = grid_graph(8, 8, label="g")
    ids = sequential_assignment(graph)
    algorithm = _parity_decider(radius=2)
    expected = run_algorithm(algorithm, graph, ids)
    nodes = list(graph.nodes())
    merged = {}
    nodes_run = 0
    for indices in _shard_indices(len(nodes), 2):
        worker = CachedEngine()
        merged.update(worker.run(algorithm, graph, ids, nodes=[nodes[i] for i in indices]))
        nodes_run += worker.stats.nodes_run
    assert merged == expected
    assert nodes_run == graph.num_nodes()


def test_stats_are_exact_even_when_a_worker_takes_several_chunks():
    # Eight chunks over three workers: each worker runs several chunks, and
    # each chunk must contribute its own counters exactly once.
    graphs = [cycle_graph(12, label="x") for _ in range(16)]
    jobs = [(g, None) for g in graphs]
    workers = [CachedEngine() for _ in range(3)]
    expected = CachedEngine().run_many(_cycle_decider(), jobs)
    for _ in range(3):
        for worker in workers:
            worker.reset_stats()
        outputs = []
        for k, indices in enumerate(_shard_indices(len(jobs), 8)):
            outputs.extend(workers[k % 3].run_many(_cycle_decider(), [jobs[i] for i in indices]))
        assert outputs == expected
        assert sum(worker.stats.nodes_run for worker in workers) == 16 * 12


def test_empty_sweeps_short_circuit_without_forking(monkeypatch):
    # An empty sweep returns at once on every backend, and no backend ever
    # forks a process to run a sweep.
    def no_fork():
        raise AssertionError("a sweep forked a process")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    empty = InstanceFamily(name="empty", yes_instances=[], no_instances=[])
    for engine in _engines():
        assert engine.run_many(_cycle_decider(), []) == []
        assert engine.run_randomised_many(_coin_decider(), []) == []
        report = verify_decider(_cycle_decider(), _cycle_property(), family=empty, engine=engine)
        assert report.correct and report.instances_checked == 0
        assert engine.stats.nodes_run == 0


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("mode", ["contiguous", "striped"])
def test_verdicts_identical_across_workers_and_partitioning(workers, mode):
    # Serial and sharded verdicts are identical for 1, 2 and 4 workers under
    # both partition modes, deterministic and randomised drivers alike.
    serial = CachedEngine()
    det = _cycle_decider()
    jobs = [(cycle_graph(n, label="x"), None) for n in (12, 16, 9, 24, 7, 13)]
    assert _run_sharded(lambda e, s: e.run_many(det, s), jobs, workers, mode) == serial.run_many(det, jobs)
    coin = _coin_decider()
    rjobs = [(g, None, 100 + k) for k, (g, _) in enumerate(jobs)]
    assert _run_sharded(lambda e, s: e.run_randomised_many(coin, s), rjobs, workers, mode) == (
        serial.run_randomised_many(coin, rjobs)
    )
    graph = grid_graph(6, 6, label="g")
    ids = sequential_assignment(graph)
    parity = _parity_decider(radius=1)
    nodes = list(graph.nodes())
    merged = {}
    for indices in _shard_indices(len(nodes), workers, mode):
        merged.update(CachedEngine().run(parity, graph, ids, nodes=[nodes[i] for i in indices]))
    assert merged == serial.run(parity, graph, ids)
    assert CachedEngine().run_randomised(coin, graph, seed=7) == serial.run_randomised(coin, graph, seed=7)


# ---------------------------------------------------------------------- #
# Randomised runs and estimation statistics
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_randomised_run_is_shard_independent(workers):
    # Each job carries its own seed, so how the jobs are split across
    # workers never changes a node's random bits.
    graph = cycle_graph(40, label="x")
    jobs = [(graph, None, 11 + k) for k in range(6)]
    serial = [run_randomised_algorithm(_coin_decider(), g, seed=seed) for g, _, seed in jobs]
    sharded = _run_sharded(lambda e, s: e.run_randomised_many(_coin_decider(), s), jobs, workers)
    assert sharded == serial


def test_estimation_statistics_match_serial_backends():
    graph = cycle_graph(24, label="x")
    estimates = [
        estimate_acceptance_probability(_coin_decider(), graph, trials=10, seed=5, engine=engine)
        for engine in _engines()
    ]
    baseline = estimates[0]
    for estimate in estimates:
        assert estimate.accepts == baseline.accepts
        assert estimate.trials == baseline.trials
        assert estimate.acceptance_rate == baseline.acceptance_rate


# ---------------------------------------------------------------------- #
# Counter-example surfacing (the report carries the assignment)
# ---------------------------------------------------------------------- #


def test_first_counterexample_cites_assignment():
    family = _cycle_path_family(sizes=(8,))
    prop = _cycle_property()
    always_yes = FunctionIdObliviousAlgorithm(lambda view: YES, radius=1, name="always-yes")
    for engine in _engines():
        report = verify_decider(always_yes, prop, family=family, samples=2, engine=engine)
        assert not report.correct
        first = report.first_counterexample
        assert first is not None
        assert first.kind == "false-accept"
        assert first.ids is not None and len(first.ids) == first.graph.num_nodes()
        assert "first:" in report.summary()
        payload = report.as_dict()
        assert payload["first_counterexample"]["assignment"]
        assert payload["correct"] is False


def test_stop_at_first_failure_still_reports_assignment():
    family = _cycle_path_family(sizes=(8,))
    prop = _cycle_property()
    always_yes = FunctionIdObliviousAlgorithm(lambda view: YES, radius=1, name="always-yes")
    for engine in _engines():
        report = verify_decider(
            always_yes, prop, family=family, samples=2, stop_at_first_failure=True, engine=engine
        )
        assert len(report.counter_examples) == 1
        assert report.first_counterexample.as_dict()["assignment"] is not None
