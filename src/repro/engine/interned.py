"""Vectorised interned-graph core: CSR adjacency + array-mask ball extraction.

Every hot path in the package — the ``verify_decider`` grid fan-out, the
adversarial hunts, the workload-matrix sweeps — bottoms out in extracting
radius-``t`` balls and (for the caching backend) canonicalising them.  The
historical implementation walks Python dicts and sets per node per
assignment; this module *interns* a :class:`~repro.graphs.labelled_graph.
LabelledGraph` into compact integer arrays once and then serves every ball
of every node of every assignment from a few numpy array operations per
radius:

* **Interning** (:func:`intern_graph`): nodes become dense indices
  ``0..n-1``, adjacency becomes a CSR pair (``indptr``/``indices``), labels
  become codes from a process-wide label table (labels with equal ``repr``
  always map to equal codes, matching the dict-based canonical forms, so
  canonical keys stay comparable across graphs).
* **Ball extraction** (:meth:`InternedGraph.ball_table`): one boolean
  reachability matrix for *all* centres at once, grown one hop per round by
  a masked matrix product — frontier expansion over numpy boolean masks
  instead of ``n`` independent dict-based BFS walks.  Centres whose balls
  contain the same node set share one induced subgraph, exactly like the
  dict-based batcher they replace.
* **Canonical keys** (:func:`interned_view_key`): the caching engine's
  memoisation keys become the lexicographically smallest byte encoding of
  the ball's canonicalised arrays (``ndarray.tobytes()``), interned behind
  the existing LRU seam in :mod:`repro.engine.cached` — replacing the
  nested-tuple/``repr`` canonical forms on the fast path.

The dict-based path stays as the fallback: graphs that fail interning
(empty graphs, graphs above :data:`MAX_INTERN_NODES`, exotic failures, or
a missing numpy) take the historical code path and produce identical
outputs, which the equivalence suite (``tests/test_interned_engine.py``)
asserts across all 12 workload graph families and every backend.

numpy is an optional accelerator dependency: when it cannot be imported
every entry point degrades to the fallback (:func:`intern_graph` returns
``None``) and the package behaves exactly as before.
"""

from __future__ import annotations

import struct
from itertools import permutations, product
from typing import Dict, List, Optional, Tuple

try:  # numpy is an optional accelerator; everything degrades without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    np = None  # type: ignore[assignment]

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
    "MAX_INTERN_NODES",
    "InternedGraph",
    "InternedBall",
    "InternedView",
    "intern_graph",
    "interned_id_free_views",
    "interned_views_available",
    "interned_view_key",
]

#: Graphs larger than this fall back to the dict-based path: the dense
#: reachability matrix costs O(n^2) memory and the frontier product O(n^3)
#: per radius, both fine for the instance sizes verification sweeps use and
#: increasingly not fine beyond a few thousand nodes.
MAX_INTERN_NODES = 2048

#: Budgets of the canonical-key search, mirroring the thresholds of the
#: dict-based search in :mod:`repro.graphs.neighbourhood`: refine colours
#: by 1-WL when the raw search exceeds ``_REFINEMENT_THRESHOLD`` orderings,
#: and give up (return ``None``; the caller falls back to the dict path)
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
# :mod:`repro.graphs.neighbourhood` use — so the two key families partition
# views identically.  The table only ever grows with *distinct* labels, of
# which real workloads have a handful.

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
    """A :class:`LabelledGraph` flattened into compact integer arrays.

    ``nodes`` maps dense index → node name; ``indptr``/``indices`` are the
    CSR adjacency (neighbour indices sorted ascending); ``label_codes``
    holds one process-wide label code per node.  ``adj_lists`` and
    ``labels_list`` are Python-native mirrors used on per-ball hot loops
    where element-wise numpy access would dominate.  Ball tables are
    computed lazily per radius and cached on the instance.
    """

    __slots__ = (
        "source",
        "nodes",
        "indptr",
        "indices",
        "label_codes",
        "adj_lists",
        "labels_list",
        "n",
        "_adjacency",
        "_ball_tables",
    )

    def __init__(
        self,
        source: LabelledGraph,
        nodes: Tuple[Node, ...],
        indptr: "np.ndarray",
        indices: "np.ndarray",
        label_codes: "np.ndarray",
        adj_lists: List[List[int]],
        labels_list: List[object],
    ) -> None:
        self.source = source
        self.nodes = nodes
        self.indptr = indptr
        self.indices = indices
        self.label_codes = label_codes
        self.adj_lists = adj_lists
        self.labels_list = labels_list
        self.n = len(nodes)
        self._adjacency: Optional["np.ndarray"] = None
        self._ball_tables: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}

    def adjacency(self) -> "np.ndarray":
        """Return the dense float32 adjacency matrix (built lazily, cached)."""
        if self._adjacency is None:
            a = np.zeros((self.n, self.n), dtype=np.float32)
            row = np.repeat(np.arange(self.n), np.diff(self.indptr))
            a[row, self.indices] = 1.0
            self._adjacency = a
        return self._adjacency

    def ball_table(self, radius: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """Return ``(reach, dist)`` for every centre at once.

        ``reach[c, v]`` is ``True`` when ``v`` lies within ``radius`` hops
        of ``c``; ``dist[c, v]`` is the hop distance (only meaningful where
        ``reach``).  Each radius step is one masked matrix product: the
        whole frontier of every centre advances together.
        """
        cached = self._ball_tables.get(radius)
        if cached is not None:
            return cached
        n = self.n
        with trace.span("interned.ball_table", nodes=n, radius=radius):
            reach = np.eye(n, dtype=bool)
            dist = np.zeros((n, n), dtype=np.int32)
            frontier = reach.copy()
            if radius > 0 and self.indices.size:
                adjacency = self.adjacency()
                for d in range(1, radius + 1):
                    grown = (frontier.astype(np.float32) @ adjacency) > 0.5
                    grown &= ~reach
                    if not grown.any():
                        break
                    dist[grown] = d
                    reach |= grown
                    frontier = grown
        global_metrics().inc(BALL_TABLES_GROWN)
        self._ball_tables[radius] = (reach, dist)
        return reach, dist


class InternedBall:
    """One induced ball, shared by every centre with the same member set.

    ``members`` are ascending global node indices (a Python list);
    ``local_of`` maps global index → member-local index; ``graph`` is the
    shared induced :class:`LabelledGraph` handed to algorithms;
    ``ball_nodes`` its nodes in member order.  The arrays the canonical-key
    search needs (label codes, in-ball degrees, local edges) are built
    lazily by :meth:`arrays` — the direct backend never pays for them.
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
        self._arrays: Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = None

    def arrays(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Return ``(label_codes, degrees, local_edges)`` for the canonical-key search.

        ``label_codes`` and ``degrees`` are member-local int64 arrays;
        ``local_edges`` is the ``(m, 2)`` array of intra-ball edges with
        ``u < w`` in member-local indices.  Built once, cached.
        """
        if self._arrays is None:
            interned = self.interned
            local_of = self.local_of
            degrees: List[int] = []
            edges: List[Tuple[int, int]] = []
            for l, g in enumerate(self.members):
                kept = [local_of[h] for h in interned.adj_lists[g] if h in local_of]
                degrees.append(len(kept))
                edges.extend((l, lh) for lh in kept if l < lh)
            label_codes = interned.label_codes[self.members]
            degree_arr = np.asarray(degrees, dtype=np.int64)
            edge_arr = (
                np.asarray(edges, dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
            )
            self._arrays = (label_codes.astype(np.int64), degree_arr, edge_arr)
        return self._arrays


class InternedView:
    """The interned payload one :class:`Neighbourhood` carries.

    ``ball`` is the (possibly shared) :class:`InternedBall`;
    ``center_local`` the centre's member-local index; ``dist_local`` the
    member-local hop distances (a Python list).  The caching engine uses
    this payload to compute array-based canonical keys
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
#: object (LabelledGraph hashes by content and caches its hash), with
#: failures negatively cached.
_INTERN_CACHE = LRUStore(maxsize=256)
_FAILED = object()  # negative-cache marker: this graph does not intern


def intern_graph(graph: LabelledGraph) -> Optional[InternedGraph]:
    """Intern ``graph`` into arrays, or return ``None`` when it cannot be.

    Fallback rules: interning requires numpy, a non-empty graph, and at
    most :data:`MAX_INTERN_NODES` nodes; any unexpected failure (e.g. a
    label whose ``repr`` raises) also falls back.  Results — including
    failures — are cached in a bounded process-wide LRU keyed by the graph.
    """
    if np is None:
        return None
    cached = _INTERN_CACHE.get(graph, _FAILED)
    if cached is not _FAILED:
        global_metrics().inc(INTERN_CACHE_HITS)
        return cached
    global_metrics().inc(INTERN_CACHE_MISSES)
    with trace.span("interned.intern", nodes=graph.num_nodes()):
        interned = _build_interned(graph)
    _INTERN_CACHE.put(graph, interned)
    return interned


def _build_interned(graph: LabelledGraph) -> Optional[InternedGraph]:
    """Flatten one graph into CSR arrays; ``None`` when it falls outside the rules."""
    n = graph.num_nodes()
    if n == 0 or n > MAX_INTERN_NODES:
        return None
    try:
        nodes = graph.nodes()
        index = {v: i for i, v in enumerate(nodes)}
        indptr = np.zeros(n + 1, dtype=np.int64)
        flat: List[int] = []
        adj_lists: List[List[int]] = []
        for i, v in enumerate(nodes):
            nbrs = sorted(index[w] for w in graph.neighbours(v))
            adj_lists.append(nbrs)
            flat.extend(nbrs)
            indptr[i + 1] = len(flat)
        indices = np.asarray(flat, dtype=np.int64)
        labels_list = [graph.label(v) for v in nodes]
        label_codes = np.fromiter((_label_code(lab) for lab in labels_list), dtype=np.int64, count=n)
    except Exception:  # fall back rather than fail the sweep
        return None
    return InternedGraph(graph, nodes, indptr, indices, label_codes, adj_lists, labels_list)


def interned_views_available(graph: LabelledGraph) -> bool:
    """Return ``True`` when ``graph`` takes the interned fast path."""
    return intern_graph(graph) is not None


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


def interned_id_free_views(graph: LabelledGraph, radius: int) -> Optional[Dict[Node, Neighbourhood]]:
    """Extract every node's id-free radius-``radius`` view through the interned core.

    Returns ``None`` when the graph falls outside the interning rules (the
    caller then takes the dict-based path).  Centres whose balls coincide
    share one induced :class:`LabelledGraph`; every returned view carries
    an :class:`InternedView` payload for array-based canonical keys.
    """
    interned = intern_graph(graph)
    if interned is None:
        return None
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    reach, dist = interned.ball_table(radius)
    views: Dict[Node, Neighbourhood] = {}
    balls: Dict[bytes, InternedBall] = {}
    nodes = interned.nodes
    for ci in range(interned.n):
        row = reach[ci]
        key = row.tobytes()
        ball = balls.get(key)
        if ball is None:
            ball = _build_ball(interned, np.flatnonzero(row).tolist())
            balls[key] = ball
        dist_local = dist[ci][ball.members].tolist()
        distances = dict(zip(ball.ball_nodes, dist_local))
        payload = InternedView(ball, ball.local_of[ci], dist_local)
        views[nodes[ci]] = Neighbourhood._from_trusted(
            ball.graph, nodes[ci], radius, distances, None, payload
        )
    return views


# ---------------------------------------------------------------------- #
# Array-based canonical keys
# ---------------------------------------------------------------------- #


def interned_view_key(view: Neighbourhood, use_ids: bool) -> Optional[bytes]:
    """Compute an exact canonical key of an interned view as bytes, or ``None``.

    The key is the lexicographically smallest ``tobytes()`` encoding of the
    ball's node-data and edge arrays over all orderings consistent with the
    (possibly WL-refined) node colours — the array-native replacement for
    :meth:`Neighbourhood.oblivious_key` / :meth:`Neighbourhood.structure_key`.
    Equal keys hold exactly for centred-isomorphic views (labels, distances
    and — with ``use_ids`` — identifiers preserved).  ``None`` means the
    canonical search would exceed its budget; callers fall back to the
    dict-based canonical form.
    """
    payload: Optional[InternedView] = view.interned
    if payload is None or np is None:
        return None
    ball = payload.ball
    label_codes, degrees, edges = ball.arrays()
    k = len(ball.members)
    center_onehot = np.zeros(k, dtype=np.int64)
    center_onehot[payload.center_local] = 1
    columns = [np.asarray(payload.dist_local, dtype=np.int64), label_codes, degrees, center_onehot]
    if use_ids:
        ids = view.ids
        if ids is None:
            return None
        try:
            columns.append(np.fromiter((ids[v] for v in ball.ball_nodes), dtype=np.int64, count=k))
        except (KeyError, OverflowError):
            return None
    colour = np.stack(columns, axis=1)

    # Colour classes (np.unique sorts rows, so class order is canonical —
    # a pure function of the colour data, invariant under isomorphism).
    _, class_ids = np.unique(colour, axis=0, return_inverse=True)
    if _search_size(class_ids) > _REFINEMENT_THRESHOLD:
        class_ids = _refine(class_ids, edges, k)
    if _search_size(class_ids) > _MAX_SEARCH:
        return None

    classes: Dict[int, List[int]] = {}
    for local, cid in enumerate(class_ids):
        classes.setdefault(int(cid), []).append(local)
    if any(len(members) > _MAX_CLASS for members in classes.values()):
        return None
    ordered_classes = [classes[cid] for cid in sorted(classes)]

    best: Optional[bytes] = None
    inverse = np.empty(k, dtype=np.int64)
    for perm_lists in product(*[list(permutations(members)) for members in ordered_classes]):
        ordering = [local for group in perm_lists for local in group]
        order_arr = np.asarray(ordering, dtype=np.int64)
        inverse[order_arr] = np.arange(k, dtype=np.int64)
        data_bytes = np.ascontiguousarray(colour[order_arr]).tobytes()
        if edges.size:
            remapped = inverse[edges]
            remapped.sort(axis=1)
            remapped = remapped[np.lexsort((remapped[:, 1], remapped[:, 0]))]
            edge_bytes = np.ascontiguousarray(remapped).tobytes()
        else:
            edge_bytes = b""
        candidate = data_bytes + b"\x00" + edge_bytes
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    header = struct.pack("<4sqqq", b"iv1\x00", view.radius, k, colour.shape[1])
    return header + best


def _search_size(class_ids: "np.ndarray") -> int:
    """Number of orderings the canonical search would enumerate (product of class factorials)."""
    total = 1
    _, counts = np.unique(class_ids, return_counts=True)
    for count in counts:
        for factor in range(2, int(count) + 1):
            total *= factor
        if total > _MAX_SEARCH * 1024:
            return total
    return total


def _refine(class_ids: "np.ndarray", edges: "np.ndarray", k: int) -> "np.ndarray":
    """1-WL refinement of colour classes by neighbour colour multisets (3 rounds)."""
    neighbours: List[List[int]] = [[] for _ in range(k)]
    for u, w in edges.tolist():
        neighbours[u].append(w)
        neighbours[w].append(u)
    current = [int(c) for c in class_ids]
    for _ in range(3):
        signatures = [
            (current[local], tuple(sorted(current[nbr] for nbr in neighbours[local])))
            for local in range(k)
        ]
        table: Dict[Tuple, int] = {}
        for signature in sorted(set(signatures)):
            table[signature] = len(table)
        refined = [table[signature] for signature in signatures]
        if refined == current:
            break
        current = refined
    return np.asarray(current, dtype=np.int64)
