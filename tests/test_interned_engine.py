"""Equivalence of the interned-graph core and the per-node reference path.

The interned core (:mod:`repro.engine.interned`) extracts every ball of a
graph by breadth-first search over integer adjacency lists and computes
canonical view keys as tuples of plain ints.  Per-node
:func:`~repro.graphs.neighbourhood.extract_neighbourhood` and the tuple
canonical keys of :class:`~repro.graphs.neighbourhood.Neighbourhood` are
the reference.  These tests pin that **both are observably identical** —
same views, same canonical-key partitions, same verdicts and
counterexamples from ``verify_decider``, and byte-identical cross-run
store digests — across random graphs (hypothesis), all 12 bundled
workload graph families, graphs of any size, and every backend.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

from hypothesis import example, given, settings, strategies as st
import pytest

import repro
from repro.decision import FunctionProperty, InstanceFamily, verify_decider
from repro.engine import CachedEngine, DirectEngine, ExecutionEngine, SynchronousEngine
from repro.engine.interned import intern_graph, interned_id_free_views, interned_view_key
from repro.graphs import (
    LabelledGraph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    random_graph,
    sequential_assignment,
)
from repro.graphs.neighbourhood import extract_neighbourhood
from repro.local_model import NO, YES, FunctionAlgorithm, FunctionIdObliviousAlgorithm
from repro.workloads.families import bundled_families


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    label = draw(st.sampled_from(["a", "b", None, 3]))
    return random_graph(n, p, seed=seed, label=label)


class ReferenceDirectEngine(DirectEngine):
    """DirectEngine whose batched jobs run one :meth:`run` each.

    Every job then extracts each ball by per-node ``extract_neighbourhood``:
    the literal reference the interned batch path must match.
    """

    _run_many_core = ExecutionEngine._run_many_core


# ---------------------------------------------------------------------- #
# Ball extraction equivalence (property-based)
# ---------------------------------------------------------------------- #


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_interned_views_match_dict_extraction(g, radius):
    views = interned_id_free_views(g, radius)
    assert set(views) == set(g.nodes())
    for v in g.nodes():
        ref = extract_neighbourhood(g, v, radius)
        got = views[v]
        assert got.center == ref.center and got.radius == ref.radius
        assert got.distances == ref.distances
        assert set(got.graph.nodes()) == set(ref.graph.nodes())
        assert {frozenset(e) for e in got.graph.edges()} == {frozenset(e) for e in ref.graph.edges()}
        assert got.graph.labels() == ref.graph.labels()


def _two_level_graph(dist2_edges):
    # Centre c, neighbours a and b, children x, y of a and z, w of b.
    # Both edge choices below give every node the same distance and degree
    # from c, so only the edges tell the two radius-2 views of c apart.
    nodes = ["c", "a", "b", "x", "y", "z", "w"]
    edges = [("c", "a"), ("c", "b"), ("a", "x"), ("a", "y"), ("b", "z"), ("b", "w")]
    return LabelledGraph(nodes, edges + dist2_edges, {v: "n" for v in nodes})


@given(small_graphs(), small_graphs(), st.integers(min_value=0, max_value=2))
@example(_two_level_graph([("x", "z"), ("y", "w")]), _two_level_graph([("x", "y"), ("z", "w")]), 2)
@settings(max_examples=30, deadline=None)
def test_interned_canonical_keys_partition_like_dict_keys(g1, g2, radius):
    # The bytes keys must induce exactly the same equivalence classes as
    # the dict-based canonical tuples — across views of different graphs.
    views = list(interned_id_free_views(g1, radius).values())
    views += list(interned_id_free_views(g2, radius).values())
    keyed = [(view, interned_view_key(view, use_ids=False)) for view in views]
    keyed = [(view, key) for view, key in keyed if key is not None]
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.oblivious_key() == view_b.oblivious_key())


# Identifiers are unbounded naturals: start both near 0 and beyond 2**63.
_ID_STARTS = st.integers(min_value=0, max_value=9) | st.integers(min_value=2**63 - 4, max_value=2**70)


@given(small_graphs(), st.integers(min_value=0, max_value=2), _ID_STARTS)
@settings(max_examples=30, deadline=None)
def test_interned_id_keys_partition_like_structure_keys(g, radius, start):
    ids = sequential_assignment(g, start=start)
    views = [view.with_ids(ids) for view in interned_id_free_views(g, radius).values()]
    keyed = [(view, interned_view_key(view, use_ids=True)) for view in views]
    # Distinct identifiers make every colour class a singleton: always keyed.
    assert all(key is not None for _, key in keyed)
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.structure_key() == view_b.structure_key())


# ---------------------------------------------------------------------- #
# Engine-level equivalence: all 12 families × every backend
# ---------------------------------------------------------------------- #

# "Every node has degree at most 2" — genuinely locally decidable, so one
# radius-1 oblivious decider is correct on every family (cycles, paths and
# degenerate families are yes-instances; stars, grids, cliques are no).
_DEGREE_PROP = FunctionProperty(
    lambda g: all(g.degree(v) <= 2 for v in g.nodes()), name="max-degree-2"
)


def _degree_decider():
    return FunctionIdObliviousAlgorithm(
        lambda view: YES if view.center_degree() <= 2 else NO, radius=1, name="deg<=2"
    )


def _id_parity_trap():
    # Deliberately wrong (id-dependent) decider: produces counterexamples
    # on odd-id assignments, exercising the failure-recording paths.
    return FunctionAlgorithm(
        lambda view: YES if view.center_id() % 2 == 0 else NO, radius=1, name="id-parity-trap"
    )


def _family_instances(family):
    return [family.build(size, 7) for size in family.ladder(quick=True)]


def _instance_family(family):
    instances = _family_instances(family)
    yes = [g for g in instances if _DEGREE_PROP.contains(g)]
    no = [g for g in instances if not _DEGREE_PROP.contains(g)]
    return InstanceFamily(
        name=f"interned-equivalence-{family.name}", yes_instances=yes, no_instances=no
    )


def _report_fingerprint(report):
    return (
        report.correct,
        report.instances_checked,
        report.assignments_checked,
        [ce.as_dict() for ce in report.counter_examples],
    )


def _engines():
    yield "reference-direct", ReferenceDirectEngine()
    yield "interned-direct", DirectEngine()
    yield "cached", CachedEngine()
    yield "synchronous", SynchronousEngine()


# Every backend a worker of a sharded sweep might run gives the same report.
@pytest.mark.parametrize("family", bundled_families(), ids=lambda f: f.name)
def test_family_verdicts_agree_across_engines_and_workers(family):
    instances = _instance_family(family)
    for decider in (_degree_decider(), _id_parity_trap()):
        reference = None
        for name, engine in _engines():
            report = verify_decider(
                decider, _DEGREE_PROP, family=instances, samples=2, seed=3, engine=engine
            )
            fingerprint = _report_fingerprint(report)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"{family.name}/{decider.name}: {name} diverged"


def _renaming(graph, seed):
    """A seeded bijection from ``graph``'s nodes onto a mix of int and tuple names."""
    rng = random.Random(seed)
    fresh = rng.sample(range(10 * graph.num_nodes() + 10), graph.num_nodes())
    return {v: (k if rng.random() < 0.5 else ("r", k)) for v, k in zip(graph.nodes(), fresh)}


def _renamed(graph, names):
    # Same insertion order, so the sampled identifier assignments (drawn in
    # node order) correspond one-to-one under the renaming.
    return LabelledGraph(
        [names[v] for v in graph.nodes()],
        [(names[u], names[w]) for u, w in graph.edges()],
        {names[v]: graph.label(v) for v in graph.nodes()},
    )


def _ball_id_trap():
    # Wrong on purpose and sensitive to which identifier sits at which
    # distance, so a view whose ball or ids were scrambled changes verdicts.
    return FunctionAlgorithm(
        lambda view: YES
        if sum(view.id_of(v) * (view.distance(v) + 1) for v in view.nodes()) % 3
        else NO,
        radius=2,
        name="ball-id-trap",
    )


def _counterexample_in(ce, back):
    """``ce`` as comparable data, with every node name mapped through ``back``."""
    return (
        ce.kind,
        ce.family,
        ce.expected,
        ce.accepted,
        _renamed(ce.graph, back),
        None if ce.ids is None else {back[v]: i for v, i in ce.ids.items()},
        tuple(back[v] for v in ce.rejecting_nodes),
    )


# Interned indices and label codes must never leak node names into verdicts.
@pytest.mark.parametrize("family", bundled_families(), ids=lambda f: f.name)
def test_verdicts_invariant_under_node_renaming(family):
    instances = _instance_family(family)
    back = {}  # renamed graph -> {new name: original name}

    def rename(graphs):
        out = []
        for g in graphs:
            names = _renaming(g, seed=len(back))
            h = _renamed(g, names)
            back[h] = {new: old for old, new in names.items()}
            out.append(h)
        return out

    renamed = InstanceFamily(
        name=instances.name, yes_instances=rename(instances.yes), no_instances=rename(instances.no)
    )
    for decider in (_degree_decider(), _id_parity_trap(), _ball_id_trap()):
        for engine_cls in (DirectEngine, CachedEngine, SynchronousEngine):
            original, relabelled = (
                verify_decider(decider, _DEGREE_PROP, family=fam, samples=2, seed=3, engine=engine_cls())
                for fam in (instances, renamed)
            )
            where = f"{family.name}/{decider.name}/{engine_cls.name}"
            assert relabelled.correct == original.correct, where
            assert relabelled.instances_checked == original.instances_checked, where
            assert relabelled.assignments_checked == original.assignments_checked, where
            assert [_counterexample_in(ce, back[ce.graph]) for ce in relabelled.counter_examples] == [
                _counterexample_in(ce, {v: v for v in ce.graph.nodes()})
                for ce in original.counter_examples
            ], where


# ---------------------------------------------------------------------- #
# Cross-run store digests
# ---------------------------------------------------------------------- #


def _store_contents(path):
    entries = {}
    for segment in path.glob("*.jsonl"):
        for line in segment.read_text().splitlines():
            record = json.loads(line)
            entries[record["k"]] = record["v"]
    return entries


def test_store_digests_identical_across_paths(tmp_path):
    family = _instance_family(bundled_families()[0])
    paths = {"dict": tmp_path / "dict", "interned": tmp_path / "interned"}
    stores = {}
    for name, engine_cls in (("dict", ReferenceDirectEngine), ("interned", DirectEngine)):
        engine = engine_cls().with_store(paths[name])
        for decider in (_degree_decider(), _id_parity_trap()):
            verify_decider(decider, _DEGREE_PROP, family=family, samples=2, seed=3, engine=engine)
        stores[name] = _store_contents(paths[name])
    assert stores["dict"], "sweep persisted nothing"
    assert stores["dict"] == stores["interned"]


# ---------------------------------------------------------------------- #
# Every graph takes the interned path
# ---------------------------------------------------------------------- #


def test_empty_graph_has_no_views():
    empty = LabelledGraph([])
    assert interned_id_free_views(empty, 1) == {}
    assert DirectEngine().run_many(_degree_decider(), [(empty, None)]) == [{}]


def test_large_grid_interns_and_matches_reference():
    # 2116 nodes: above any dense-table size cap, still one ball path.
    g = grid_graph(46, 46, label="g")
    assert intern_graph(g).n == g.num_nodes() == 2116
    centres = random.Random(5).sample(list(g.nodes()), 60)
    for radius in (1, 2):
        views = interned_id_free_views(g, radius)
        for v in centres:
            ref = extract_neighbourhood(g, v, radius)
            got = views[v]
            assert got.distances == ref.distances
            assert got.graph == ref.graph
    jobs = [(g, None), (g, sequential_assignment(g))]
    decider = _degree_decider()
    assert DirectEngine().run_many(decider, jobs) == ReferenceDirectEngine().run_many(decider, jobs)


def test_cached_engine_evaluates_unkeyed_views_without_memoising():
    # K10 at radius 1: nine interchangeable leaves exceed the canonical
    # search budget, so the view has no key and is evaluated every time.
    view = interned_id_free_views(complete_graph(10, label="k"), 1)[0]
    assert interned_view_key(view, use_ids=False) is None
    engine = CachedEngine()
    decider = _degree_decider()
    assert engine.evaluate_view(decider, view) == NO
    assert engine.evaluate_view(decider, view) == NO
    assert engine.stats.evaluations == 2
    assert engine.stats.evaluation_hits == 0
    assert view._obliv_key is None


@pytest.mark.parametrize(
    "graph",
    [complete_graph(9, label="k"), hypercube_graph(6, label="q")],
    ids=["K9", "Q6"],
)
def test_canonical_search_budget_admits_largest_classes(graph):
    # K9 at radius 1: eight interchangeable leaves, exactly the 8! budget.
    # Q6 at radius 1: six leaves, 6! orderings.  Every centre of these
    # vertex-transitive graphs has the same view, hence the same key.
    keys = {interned_view_key(view, use_ids=False) for view in interned_id_free_views(graph, 1).values()}
    assert len(keys) == 1 and None not in keys
    k10_view = interned_id_free_views(complete_graph(10, label="k"), 1)[0]
    assert interned_view_key(k10_view, use_ids=False) is None


def test_package_runs_without_numpy():
    # numpy is not a dependency: blocking its import must leave the whole
    # package, the interned core and the caching engine working.
    script = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None
        import repro
        from repro.decision import FunctionProperty, InstanceFamily, verify_decider
        from repro.engine import CachedEngine
        from repro.graphs import cycle_graph, path_graph
        from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm

        family = InstanceFamily(
            name="cycles-vs-paths",
            yes_instances=[cycle_graph(n, label="x") for n in (5, 8, 13)],
            no_instances=[path_graph(n, label="x") for n in (5, 8, 13)],
        )
        prop = FunctionProperty(lambda g: all(g.degree(v) == 2 for v in g.nodes()), name="2-regular")
        decider = FunctionIdObliviousAlgorithm(
            lambda view: YES if view.center_degree() == 2 else NO, radius=1, name="deg2"
        )
        engine = CachedEngine()
        report = verify_decider(decider, prop, family=family, samples=3, seed=1, engine=engine)
        assert report.correct, report
        assert engine.stats.evaluation_hits > 0
        print("ok")
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_run_many_id_aware_matches_dict_path():
    g = cycle_graph(8, label="w")
    ids_a = sequential_assignment(g)
    ids_b = sequential_assignment(g, start=5)
    algorithm = FunctionAlgorithm(
        lambda view: YES if view.max_visible_identifier() % 3 == 0 else NO, radius=2, name="mod3"
    )
    jobs = [(g, ids_a), (g, ids_b)]
    assert DirectEngine().run_many(algorithm, jobs) == ReferenceDirectEngine().run_many(
        algorithm, jobs
    )
