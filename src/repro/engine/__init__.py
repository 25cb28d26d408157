"""Execution engines — the pluggable layer every execution path routes through.

* :class:`~repro.engine.base.ExecutionEngine` — the protocol (views,
  single-view evaluation, whole-graph drivers);
* :class:`~repro.engine.direct.DirectEngine` — per-node ball evaluation,
  the default backend and the paper's mathematical semantics;
* :class:`~repro.engine.synchronous.SynchronousEngine` — views produced by
  the full-information message-passing protocol;
* :class:`~repro.engine.cached.CachedEngine` — the fast path: batched BFS
  ball extraction per graph, canonical-key interning, and memoised
  evaluation per ``(algorithm, view key)``;
* :mod:`~repro.engine.interned` — the vectorised core under both of the
  above: graphs interned into CSR integer arrays, ball extraction as
  frontier expansion over boolean masks, canonical keys as bytes of
  canonicalised array slices (with a dict-based fallback for graphs that
  fail interning);
* :class:`~repro.engine.persistent.PersistentEngine` — cross-run
  persistence: wraps any backend (``engine.with_store(path)``) with an
  on-disk :class:`~repro.engine.persistent.VerdictStore` so settled jobs
  are replayed instead of recomputed across campaigns and CI runs.

``engine=`` arguments across the package accept an instance, a backend name
(``"direct"`` / ``"synchronous"`` / ``"cached"``) or
``None`` for the shared default; see
:func:`~repro.engine.base.resolve_engine`.
"""

from .base import (
    EngineLike,
    EngineStats,
    ExecutionEngine,
    default_engine,
    derive_node_seed,
    resolve_engine,
)
from .cached import CachedEngine
from .direct import DirectEngine
from .interned import (
    InternedGraph,
    intern_graph,
    interned_id_free_views,
    interned_view_key,
    interned_views_available,
)
from .persistent import (
    PersistentEngine,
    StoreCorruptionWarning,
    VerdictStore,
    algorithm_fingerprint,
    exact_algorithm_fingerprint,
    job_digest,
)
from .store import LRUStore
from .synchronous import SynchronousEngine

__all__ = [
    "EngineLike",
    "EngineStats",
    "ExecutionEngine",
    "default_engine",
    "derive_node_seed",
    "resolve_engine",
    "DirectEngine",
    "SynchronousEngine",
    "CachedEngine",
    "PersistentEngine",
    "VerdictStore",
    "StoreCorruptionWarning",
    "algorithm_fingerprint",
    "exact_algorithm_fingerprint",
    "job_digest",
    "InternedGraph",
    "intern_graph",
    "interned_id_free_views",
    "interned_view_key",
    "interned_views_available",
    "LRUStore",
]
