"""Caching backend: batched ball extraction + memoised evaluation.

This is the fast path the ROADMAP's batching/caching direction asks for.
Three observations make it sound:

* the balls of a graph do not depend on the identifier assignment, so one
  batched BFS per ``(graph, radius)`` serves every assignment the verifier
  sweeps over (``verify_decider`` alone re-extracts them per assignment in
  the direct backend);
* a local algorithm is, by definition, a function of the isomorphism type
  of its view — :meth:`~repro.graphs.neighbourhood.Neighbourhood.structure_key`
  for the full LOCAL model, :meth:`~repro.graphs.neighbourhood.Neighbourhood.oblivious_key`
  for Id-oblivious algorithms — so its output can be memoised per
  ``(algorithm, view key)``: isomorphic balls (every node of a cycle, every
  interior node of a long path) are evaluated exactly once;
* canonical view keys recur massively across a verification sweep, so they
  are interned in a bounded LRU store and shared;
* a whole deterministic run is itself a pure function of
  ``(algorithm, graph, ids)`` — and of ``(algorithm, graph)`` alone for
  Id-oblivious algorithms — so complete output maps are memoised too.  This
  is what makes the ``verify_decider`` sweep fast: the second and every
  later identifier assignment of an oblivious decider on the same graph is
  answered with a single cache lookup.

All four stores are bounded LRUs; memory stays flat over arbitrarily long
sweeps.  Randomised algorithms get the batched extraction but are never
memoised (their output is not a function of the view alone).

The memoisation contract is exactly the model's definition of a local
algorithm.  An object that violates the definition — e.g. one whose output
depends on raw node names rather than the labelled structure — is not a
local algorithm in the paper's sense; run such code through the
:class:`~repro.engine.direct.DirectEngine` default instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Tuple

from ..errors import GraphError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from .base import ExecutionEngine
from .interned import interned_id_free_views, interned_view_key
from .store import LRUStore

if TYPE_CHECKING:  # type-only; keeps engine ↔ local_model import-cycle-free
    from ..local_model.algorithm import LocalAlgorithm

__all__ = ["CachedEngine"]


def _batched_balls(graph: LabelledGraph, radius: int) -> Dict[Node, Neighbourhood]:
    """Extract every radius-``radius`` ball of ``graph`` in one synchronised pass.

    All BFS frontiers advance one hop per round together, and induced ball
    subgraphs are shared between centres whose balls contain the same node
    set (every node of a clique, or any graph once ``radius`` reaches the
    diameter), so the subgraph construction cost is paid once per distinct
    ball rather than once per node.
    """
    centers = list(graph.nodes())
    dist: Dict[Node, Dict[Node, int]] = {c: {c: 0} for c in centers}
    frontier: Dict[Node, List[Node]] = {c: [c] for c in centers}
    for d in range(1, radius + 1):
        for c in centers:
            grown: List[Node] = []
            seen = dist[c]
            for u in frontier[c]:
                for w in graph.neighbours(u):
                    if w not in seen:
                        seen[w] = d
                        grown.append(w)
            frontier[c] = grown
    subgraphs: Dict[frozenset, LabelledGraph] = {}
    views: Dict[Node, Neighbourhood] = {}
    for c in centers:
        members = dist[c]
        member_key = frozenset(members)
        ball = subgraphs.get(member_key)
        if ball is None:
            # Build the induced ball directly from the BFS membership map:
            # the insertion-order index dedupes each edge without the
            # per-edge repr comparisons of the generic induced_subgraph.
            order = {v: i for i, v in enumerate(members)}
            edges = [
                (u, w)
                for u in members
                for w in graph.neighbours(u)
                if w in order and order[u] < order[w]
            ]
            labels = {v: graph.label(v) for v in members}
            ball = LabelledGraph(list(members), edges, labels)
            subgraphs[member_key] = ball
        views[c] = Neighbourhood(ball, c, radius, dist[c], ids=None)
    return views


class CachedEngine(ExecutionEngine):
    """Batched BFS ball extraction, canonical-key interning and memoised evaluation.

    Parameters
    ----------
    max_ball_collections:
        How many ``(graph, radius)`` ball collections to keep.
    max_memo_entries:
        How many ``(algorithm, view key)`` outputs to keep.
    max_interned_keys:
        How many canonical view keys to intern.
    max_run_entries:
        How many whole-run output maps to keep.
    """

    name = "cached"

    def __init__(
        self,
        max_ball_collections: int = 512,
        max_memo_entries: int = 100_000,
        max_interned_keys: int = 100_000,
        max_run_entries: int = 4096,
    ) -> None:
        super().__init__()
        self._balls = LRUStore(max_ball_collections)
        self._memo = LRUStore(max_memo_entries)
        self._keys = LRUStore(max_interned_keys)
        self._runs = LRUStore(max_run_entries)

    def clear_caches(self) -> None:
        """Drop all cached balls, interned keys and memoised outputs."""
        self._balls.clear()
        self._memo.clear()
        self._keys.clear()
        self._runs.clear()

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Return the counters of the underlying LRU stores."""
        return {
            "balls": self._balls.stats(),
            "memo": self._memo.stats(),
            "keys": self._keys.stats(),
            "runs": self._runs.stats(),
        }

    # ------------------------------------------------------------------ #
    # View production
    # ------------------------------------------------------------------ #

    def _id_free_views(self, graph: LabelledGraph, radius: int) -> Dict[Node, Neighbourhood]:
        cache_key = (graph, radius)
        cached = self._balls.get(cache_key)
        if cached is not None:
            self.stats.ball_hits += len(cached)
            return cached
        # Vectorised fast path: graphs that intern get their whole ball
        # collection from a few array ops per radius (and array-backed
        # canonical keys downstream); anything else takes the dict-based
        # batched BFS, with identical outputs.
        views = interned_id_free_views(graph, radius)
        if views is None:
            views = _batched_balls(graph, radius)
        self.stats.ball_extractions += len(views)
        self._balls.put(cache_key, views)
        return views

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Serve views from the per-``(graph, radius)`` ball cache, attaching ``ids`` on top."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        base = self._id_free_views(graph, radius)
        missing = [v for v in chosen if v not in base]
        if missing:
            raise GraphError(f"node {missing[0]!r} is not in the graph")
        if ids is None:
            return {v: base[v] for v in chosen}
        # Identifier views reuse the cached ball topology; only the (cheap)
        # id restriction is per-assignment work.
        return {v: base[v].with_ids(ids) for v in chosen}

    # ------------------------------------------------------------------ #
    # Memoised whole-graph runs
    # ------------------------------------------------------------------ #

    def _run_core(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run with whole-run memoisation: repeat ``(algorithm, graph[, ids])`` runs are one lookup."""
        if nodes is not None:
            # Partial runs are not worth a cache slot; they still benefit
            # from the ball cache and the per-view memo.
            return super()._run_core(algorithm, graph, ids, nodes)
        use_ids = self._ids_for(algorithm, ids)
        # Id-oblivious outputs are independent of the assignment, so the run
        # key deliberately omits it: every assignment of a verification
        # sweep after the first is a single lookup.
        run_key = (algorithm, graph, algorithm.radius, use_ids)
        cached = self._runs.get(run_key)
        if cached is not None:
            self.stats.nodes_run += len(cached)
            self.stats.evaluation_hits += len(cached)
            return dict(cached)
        outputs = super()._run_core(algorithm, graph, use_ids if algorithm.uses_identifiers else None)
        self._runs.put(run_key, outputs)
        return dict(outputs)

    # ------------------------------------------------------------------ #
    # Memoised evaluation
    # ------------------------------------------------------------------ #

    def _view_key(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Optional[Tuple]:
        if view.interned is not None:
            # Array-backed canonical key: the lexicographically smallest
            # ``tobytes()`` encoding of the canonicalised ball arrays.  The
            # bytes partition views exactly like the tuple keys below (same
            # colour invariants, same refinement and class-size budgets);
            # ``None`` means the search budget was exceeded, in which case
            # we fall through to the tuple path (whose own fallback refuses
            # memoisation).  Bytes and tuples can never compare equal, so
            # the two key families coexist soundly in one memo store.
            if not algorithm.uses_identifiers:
                kind = "oblivious"
                key_bytes = interned_view_key(view, use_ids=False)
            else:
                kind = "id" if view.ids is not None else "bare"
                key_bytes = interned_view_key(view, use_ids=view.ids is not None)
            if key_bytes is not None:
                return (kind, view.radius, self._keys.intern(key_bytes))
        if not algorithm.uses_identifiers:
            canonical = view.oblivious_key()
            kind = "oblivious"
        else:
            canonical = view.structure_key()
            kind = "id" if view.ids is not None else "bare"
        if canonical and canonical[0] == "wl-fallback":
            # The fallback key (huge colour classes) is only a pre-filter:
            # non-isomorphic views can share it, so it is NOT sound as a
            # memoisation key.  Refuse to memoise such views.
            return None
        return (kind, view.radius, self._keys.intern(canonical))

    def evaluate_view(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Hashable:
        """Evaluate one view, memoised per ``(algorithm, canonical view key)``."""
        if not algorithm.uses_identifiers and view.ids is not None:
            view = view.without_ids()
        self.stats.nodes_run += 1
        view_key = self._view_key(algorithm, view)
        if view_key is None:
            self.stats.evaluations += 1
            return algorithm.evaluate(view)
        memo_key = (algorithm, view_key)
        cached = self._memo.get(memo_key, _MISSING)
        if cached is not _MISSING:
            self.stats.evaluation_hits += 1
            return cached
        self.stats.evaluations += 1
        out = algorithm.evaluate(view)
        self._memo.put(memo_key, out)
        return out


_MISSING = object()
