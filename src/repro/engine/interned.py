"""Interned-graph core: integer adjacency lists, breadth-first balls, integer keys.

Every hot path in the package — the ``verify_decider`` grid fan-out, the
adversarial hunts, the workload-matrix sweeps — bottoms out in extracting
radius-``t`` balls and (for the caching backend) canonicalising them.  This
module *interns* a :class:`~repro.graphs.labelled_graph.LabelledGraph` into
compact integer form once and then serves every ball of every node of
every assignment from it:

* **Interning** (:func:`intern_graph`): nodes become dense indices
  ``0..n-1``, adjacency becomes sorted neighbour-index lists, labels become
  codes from a process-wide label table (labels with equal ``repr`` always
  map to equal codes, matching the dict-based canonical forms, so
  canonical keys stay comparable across graphs).  Every graph interns; an
  empty graph interns to an empty core.
* **Ball extraction** (:meth:`InternedGraph.ball_table`): one breadth-first
  search per centre over the integer adjacency, cached per radius.  Memory
  is linear in the total ball size, so graphs of any size take this path.
  Centres whose balls contain the same node set share one induced
  subgraph, and a ball covering the whole graph reuses the source graph.
* **Canonical keys** (:func:`interned_view_key`): the caching engine's
  memoisation keys are tuples of plain ints.  Colour classes in a fixed
  order determine the ball's node data; the search permutes nodes inside
  classes only to find the smallest sorted edge list.  Keys are interned
  behind the LRU seam in :mod:`repro.engine.cached`.

The per-node :func:`~repro.graphs.neighbourhood.extract_neighbourhood` and
the tuple canonical forms of :class:`~repro.graphs.neighbourhood.Neighbourhood`
are the reference this core is tested against
(``tests/test_interned_engine.py``): same views, same key partitions, same
verdicts across all 12 workload graph families and every backend.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import GraphError
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..obs import trace
from ..obs.metrics import (
    BALL_TABLES_GROWN,
    INTERN_CACHE_HITS,
    INTERN_CACHE_MISSES,
    global_metrics,
)
from .store import LRUStore

__all__ = [
    "InternedGraph",
    "InternedBall",
    "InternedView",
    "intern_graph",
    "interned_id_free_views",
    "interned_view_key",
]

#: Budgets of the canonical-key search, mirroring the thresholds of the
#: dict-based search in :mod:`repro.graphs.neighbourhood`: refine colours
#: by 1-WL when the raw search exceeds ``_REFINEMENT_THRESHOLD`` orderings,
#: and give up (return ``None``; the caller evaluates without memoising)
#: when a colour class exceeds ``_MAX_CLASS`` nodes or the total search
#: exceeds ``_MAX_SEARCH`` orderings.
_REFINEMENT_THRESHOLD = 48
_MAX_CLASS = 8
_MAX_SEARCH = 40320  # 8!

# ---------------------------------------------------------------------- #
# Process-wide label interning
# ---------------------------------------------------------------------- #
#
# Canonical keys must agree across graphs (the caching engine memoises per
# (algorithm, view key), and one sweep mixes many graphs), so label codes
# are assigned from one process-wide table.  The table is keyed by
# ``repr(label)`` — the exact equivalence the dict-based canonical forms in
# :mod:`repro.graphs.neighbourhood` use — so the integer keys partition views
# exactly like the tuple reference keys.  The table only ever grows with
# *distinct* labels, of which real workloads have a handful.

_LABEL_CODES: Dict[str, int] = {}


def _label_code(label: object) -> int:
    """Return the process-wide integer code of a label (keyed by ``repr``)."""
    key = repr(label)
    code = _LABEL_CODES.get(key)
    if code is None:
        code = len(_LABEL_CODES)
        _LABEL_CODES[key] = code
    return code


# ---------------------------------------------------------------------- #
# Interned graphs
# ---------------------------------------------------------------------- #


class InternedGraph:
    """A :class:`LabelledGraph` flattened into compact integer form.

    ``nodes`` maps dense index → node name; ``adj_lists[i]`` holds the
    neighbour indices of node ``i`` sorted ascending; ``label_codes`` is a
    list of one process-wide label code per node and
    ``labels_list`` the labels themselves.  Ball tables are computed
    lazily per radius and cached on the instance.
    """

    __slots__ = (
        "source",
        "nodes",
        "label_codes",
        "adj_lists",
        "labels_list",
        "n",
        "_ball_tables",
    )

    def __init__(
        self,
        source: LabelledGraph,
        nodes: Tuple[Node, ...],
        label_codes: List[int],
        adj_lists: List[List[int]],
        labels_list: List[object],
    ) -> None:
        self.source = source
        self.nodes = nodes
        self.label_codes = label_codes
        self.adj_lists = adj_lists
        self.labels_list = labels_list
        self.n = len(nodes)
        self._ball_tables: Dict[int, List[Tuple[List[int], List[int]]]] = {}

    def ball_table(self, radius: int) -> List[Tuple[List[int], List[int]]]:
        """Return ``(members, dist_local)`` for every centre, indexed by centre.

        ``members`` are the ascending indices of the nodes within
        ``radius`` hops of the centre; ``dist_local[l]`` is the hop
        distance of ``members[l]``.  One breadth-first search per centre
        over :attr:`adj_lists`, stopping early once the ball stops growing.
        """
        cached = self._ball_tables.get(radius)
        if cached is not None:
            return cached
        adj_lists = self.adj_lists
        table: List[Tuple[List[int], List[int]]] = []
        with trace.span("interned.ball_table", nodes=self.n, radius=radius):
            for centre in range(self.n):
                dist = {centre: 0}
                frontier = [centre]
                for d in range(1, radius + 1):
                    grown = []
                    for u in frontier:
                        for w in adj_lists[u]:
                            if w not in dist:
                                dist[w] = d
                                grown.append(w)
                    if not grown:
                        break
                    frontier = grown
                members = sorted(dist)
                table.append((members, [dist[g] for g in members]))
        global_metrics().inc(BALL_TABLES_GROWN)
        self._ball_tables[radius] = table
        return table


class InternedBall:
    """One induced ball, shared by every centre with the same member set.

    ``members`` are ascending global node indices (a Python list);
    ``local_of`` maps global index → member-local index; ``graph`` is the
    shared induced :class:`LabelledGraph` handed to algorithms;
    ``ball_nodes`` its nodes in member order.  The data the canonical-key
    search needs (label codes, in-ball neighbours, local edges) is built
    lazily by :meth:`arrays` — the direct backend never pays for it.
    """

    __slots__ = ("interned", "members", "local_of", "graph", "ball_nodes", "_arrays")

    def __init__(
        self,
        interned: InternedGraph,
        members: List[int],
        local_of: Dict[int, int],
        graph: LabelledGraph,
        ball_nodes: Tuple[Node, ...],
    ) -> None:
        self.interned = interned
        self.members = members
        self.local_of = local_of
        self.graph = graph
        self.ball_nodes = ball_nodes
        self._arrays: Optional[Tuple[List[int], List[List[int]], List[Tuple[int, int]]]] = None

    def arrays(self) -> Tuple[List[int], List[List[int]], List[Tuple[int, int]]]:
        """Return ``(label_codes, neighbours, local_edges)`` for the canonical-key search.

        All in member-local indices: ``label_codes[l]`` is the label code
        of member ``l``, ``neighbours[l]`` its ascending in-ball
        neighbours, and ``local_edges`` the intra-ball edges ``(u, w)``
        with ``u < w``.  Built once, cached.
        """
        if self._arrays is None:
            local_of = self.local_of
            adj_lists = self.interned.adj_lists
            neighbours = [[local_of[h] for h in adj_lists[g] if h in local_of] for g in self.members]
            edges = [(l, lh) for l, kept in enumerate(neighbours) for lh in kept if l < lh]
            label_codes = self.interned.label_codes
            self._arrays = ([label_codes[g] for g in self.members], neighbours, edges)
        return self._arrays


class InternedView:
    """The interned payload one :class:`Neighbourhood` carries.

    ``ball`` is the (possibly shared) :class:`InternedBall`;
    ``center_local`` the centre's member-local index; ``dist_local`` the
    member-local hop distances (a Python list).  The caching engine uses
    this payload to compute integer canonical keys
    (:func:`interned_view_key`).
    """

    __slots__ = ("ball", "center_local", "dist_local")

    def __init__(self, ball: InternedBall, center_local: int, dist_local: List[int]) -> None:
        self.ball = ball
        self.center_local = center_local
        self.dist_local = dist_local


# ---------------------------------------------------------------------- #
# Interning
# ---------------------------------------------------------------------- #

#: Interned graphs are structural (topology + labels, no outputs), so one
#: bounded process-wide table serves every engine; keyed by the graph
#: object (LabelledGraph hashes by content and caches its hash).
_INTERN_CACHE = LRUStore(maxsize=256)


def intern_graph(graph: LabelledGraph) -> InternedGraph:
    """Intern ``graph`` into integer form, cached in a bounded process-wide LRU."""
    cached = _INTERN_CACHE.get(graph)
    if cached is not None:
        global_metrics().inc(INTERN_CACHE_HITS)
        return cached
    global_metrics().inc(INTERN_CACHE_MISSES)
    with trace.span("interned.intern", nodes=graph.num_nodes()):
        nodes = graph.nodes()
        index = {v: i for i, v in enumerate(nodes)}
        adj_lists = [sorted(index[w] for w in graph.neighbours(v)) for v in nodes]
        labels_list = [graph.label(v) for v in nodes]
        label_codes = [_label_code(lab) for lab in labels_list]
        interned = InternedGraph(graph, nodes, label_codes, adj_lists, labels_list)
    _INTERN_CACHE.put(graph, interned)
    return interned


# ---------------------------------------------------------------------- #
# View construction
# ---------------------------------------------------------------------- #


def _build_ball(interned: InternedGraph, members: List[int]) -> InternedBall:
    """Build the shared induced ball on ``members`` (ascending global indices)."""
    local_of = {g: l for l, g in enumerate(members)}
    nodes = interned.nodes
    ball_nodes = tuple(nodes[g] for g in members)
    if len(members) == interned.n:
        # The ball covers the whole graph (radius at or beyond the
        # diameter): the induced subgraph IS the source graph — reuse it.
        return InternedBall(interned, members, local_of, interned.source, ball_nodes)
    adj: Dict[Node, frozenset] = {}
    labels: Dict[Node, object] = {}
    adj_lists = interned.adj_lists
    labels_list = interned.labels_list
    for g in members:
        node = nodes[g]
        adj[node] = frozenset(nodes[h] for h in adj_lists[g] if h in local_of)
        labels[node] = labels_list[g]
    ball_graph = LabelledGraph._from_trusted(adj, labels)
    return InternedBall(interned, members, local_of, ball_graph, ball_nodes)


def interned_id_free_views(graph: LabelledGraph, radius: int) -> Dict[Node, Neighbourhood]:
    """Extract every node's id-free radius-``radius`` view through the interned core.

    Centres whose balls coincide share one induced :class:`LabelledGraph`;
    every returned view carries an :class:`InternedView` payload for
    integer canonical keys.  An empty graph has no views.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    interned = intern_graph(graph)
    views: Dict[Node, Neighbourhood] = {}
    balls: Dict[Tuple[int, ...], InternedBall] = {}
    nodes = interned.nodes
    for ci, (members, dist_local) in enumerate(interned.ball_table(radius)):
        key = tuple(members)
        ball = balls.get(key)
        if ball is None:
            ball = balls[key] = _build_ball(interned, members)
        distances = dict(zip(ball.ball_nodes, dist_local))
        payload = InternedView(ball, ball.local_of[ci], dist_local)
        views[nodes[ci]] = Neighbourhood._from_trusted(
            ball.graph, nodes[ci], radius, distances, None, payload
        )
    return views


# ---------------------------------------------------------------------- #
# Canonical keys
# ---------------------------------------------------------------------- #


def interned_view_key(view: Neighbourhood, use_ids: bool) -> Optional[Tuple[int, tuple, tuple]]:
    """Compute an exact canonical key of an interned view as an integer tuple, or ``None``.

    Each ball node is coloured ``(dist, label code, in-ball degree,
    is_centre[, id])``.  An ordering lists the colour classes in colour
    order (split by 1-WL when the search is large), permuting nodes only
    inside a class, so the node data per position is fixed and only the
    edges are searched.  The key is ``(radius, node_data, edges)``, with
    ``edges`` the smallest sorted list of edge codes ``a * k + b``
    (positions ``a < b`` of ``k`` ball nodes) over all orderings.  Equal
    keys hold exactly for centred-isomorphic views (labels, distances and
    — with ``use_ids`` — identifiers preserved), as for
    :meth:`Neighbourhood.oblivious_key` / :meth:`Neighbourhood.structure_key`.
    ``None`` means no interned payload, no identifiers, or a search over
    budget; callers then evaluate without memoising.
    """
    payload: Optional[InternedView] = view.interned
    if payload is None:
        return None
    ball = payload.ball
    label_codes, neighbours, edges = ball.arrays()
    dist_local = payload.dist_local
    centre = payload.center_local
    k = len(label_codes)
    colours = [
        (dist_local[l], label_codes[l], len(neighbours[l]), int(l == centre)) for l in range(k)
    ]
    if use_ids:
        ids = view.ids  # a view's identifiers always cover its ball
        if ids is None:
            return None
        colours = [colour + (ids[v],) for colour, v in zip(colours, ball.ball_nodes)]

    # Classes in colour order: a pure function of the colour data, so the
    # class order is invariant under isomorphism.
    classes = _classes(colours)
    if _search_size(classes) > _REFINEMENT_THRESHOLD:
        classes = _refine(classes, neighbours)
        if _search_size(classes) > _MAX_SEARCH:
            return None
    node_data = tuple(colours[local] for members in classes for local in members)

    position = [0] * k
    best: Optional[List[int]] = None
    for choice in product(*[permutations(members) for members in classes]):
        for p, local in enumerate(chain.from_iterable(choice)):
            position[local] = p
        candidate = sorted(
            [a * k + b if a < b else b * k + a for u, w in edges for a in (position[u],) for b in (position[w],)]
        )
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return (view.radius, node_data, tuple(best))


def _classes(keys: List[Hashable]) -> List[List[int]]:
    """Group node indices by key, classes in ascending key order."""
    groups: Dict[Hashable, List[int]] = {}
    for local, key in enumerate(keys):
        groups.setdefault(key, []).append(local)
    return [groups[key] for key in sorted(groups)]


def _search_size(classes: List[List[int]]) -> int:
    """Orderings the canonical search would enumerate, counted only up to just past ``_MAX_SEARCH``.

    A class of more than ``_MAX_CLASS`` nodes alone exceeds the budget.
    """
    total = 1
    for members in classes:
        total *= factorial(min(len(members), _MAX_CLASS + 1))
        if total > _MAX_SEARCH:
            break
    return total


def _refine(classes: List[List[int]], neighbours: List[List[int]]) -> List[List[int]]:
    """1-WL refinement of ordered classes by neighbour class multisets (3 rounds).

    A class splits in place, its parts ordered by neighbour signature.
    """
    for _ in range(3):
        class_of = [0] * len(neighbours)
        for cid, members in enumerate(classes):
            for local in members:
                class_of[local] = cid
        refined = _classes(
            [(class_of[local], tuple(sorted(class_of[n] for n in nbrs))) for local, nbrs in enumerate(neighbours)]
        )
        if len(refined) == len(classes):
            break
        classes = refined
    return classes
