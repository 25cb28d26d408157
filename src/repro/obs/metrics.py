"""Typed metrics: declared counter/gauge/histogram constants and a registry.

Before this module, every layer of the engine stack invented its own
string keys for the same quantities — ``persistent.py`` and ``campaign``
each hard-coded the ``store_*`` strings.  A typo produced a silently-zero
counter; a rename produced drift.

Here each quantity is declared **once** as a :class:`Metric` constant
(kind-checked at update time), and :class:`MetricsRegistry` supplies the
snapshot/diff discipline that turns lifetime totals into per-batch deltas
(the bug class behind hand-computed ``before``/``after`` subtraction).
The constant *names* are the pre-existing wire strings, so stored
campaign reports, ``EngineStats.extra`` consumers, and the CI gate
pipeline all keep working unchanged.

Usage::

    registry = MetricsRegistry()
    registry.inc(INTERN_CACHE_HITS)
    before = registry.snapshot()
    ...
    deltas = diff_snapshots(before, registry.snapshot())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "BALL_TABLES_GROWN",
    "INTERN_CACHE_HITS",
    "INTERN_CACHE_MISSES",
    "MESSAGES_SENT",
    "Metric",
    "MetricsRegistry",
    "STORE_COMPUTED",
    "STORE_DECODE_FAILURES",
    "STORE_EVICTED_MISSES",
    "STORE_REPLAYED",
    "STORE_UNPERSISTABLE",
    "diff_snapshots",
    "global_metrics",
    "reset_global_metrics",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Histograms keep at most this many observations (oldest dropped first);
#: percentile summaries over a bounded recent window are what reports need.
_HISTOGRAM_LIMIT = 4096


@dataclass(frozen=True)
class Metric:
    """Declaration of one named quantity: its wire name, kind, unit, meaning.

    The ``name`` doubles as the wire/storage key (``EngineStats.extra``,
    campaign report JSON), which is why the constants below reuse the
    strings that predate this module.
    """

    name: str
    kind: str
    unit: str
    description: str


# -- the persistent-store counters (historical EngineStats.extra keys) ---- #

STORE_REPLAYED = Metric("store_replayed", COUNTER, "jobs", "jobs answered from the verdict store")
STORE_COMPUTED = Metric("store_computed", COUNTER, "jobs", "jobs computed and persisted to the store")
STORE_DECODE_FAILURES = Metric("store_decode_failures", COUNTER, "jobs", "stored verdicts that failed to decode")
STORE_UNPERSISTABLE = Metric("store_unpersistable", COUNTER, "jobs", "results that could not be encoded for the store")
STORE_EVICTED_MISSES = Metric(
    "store_evicted_misses", COUNTER, "jobs", "settled jobs recomputed because the store's memory front evicted them"
)

# -- engine-local counters ------------------------------------------------ #

MESSAGES_SENT = Metric("messages_sent", COUNTER, "messages", "messages exchanged by the synchronous LOCAL simulator")

# -- process-global interned-graph counters ------------------------------- #

INTERN_CACHE_HITS = Metric("intern_cache_hits", COUNTER, "graphs", "intern_graph() calls served from the process cache")
INTERN_CACHE_MISSES = Metric("intern_cache_misses", COUNTER, "graphs", "intern_graph() calls that built a new interned form")
BALL_TABLES_GROWN = Metric("ball_tables_grown", COUNTER, "tables", "all-centres ball tables grown by a masked matrix product")


class MetricsRegistry:
    """Holds current values for declared metrics; kind-checked updates.

    Counters are monotone ints (:meth:`inc`), gauges are last-write floats
    (:meth:`set`), histograms are bounded observation lists
    (:meth:`observe`) summarised on demand.  :meth:`snapshot` captures
    counters+gauges as a plain dict — feed two snapshots to
    :func:`diff_snapshots` for per-interval deltas instead of
    hand-computed before/after subtraction.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- updates ----------------------------------------------------------- #

    def inc(self, metric: Metric, amount: int = 1) -> int:
        """Add ``amount`` to a counter; returns the new total."""
        if metric.kind != COUNTER:
            raise ValueError(f"{metric.name} is a {metric.kind}, not a counter")
        total = self._counters.get(metric.name, 0) + amount
        self._counters[metric.name] = total
        return total

    def set(self, metric: Metric, value: float) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        if metric.kind != GAUGE:
            raise ValueError(f"{metric.name} is a {metric.kind}, not a gauge")
        self._gauges[metric.name] = float(value)

    def observe(self, metric: Metric, value: float) -> None:
        """Record one histogram observation (bounded to a recent window)."""
        if metric.kind != HISTOGRAM:
            raise ValueError(f"{metric.name} is a {metric.kind}, not a histogram")
        values = self._histograms.setdefault(metric.name, [])
        values.append(float(value))
        if len(values) > _HISTOGRAM_LIMIT:
            del values[: len(values) - _HISTOGRAM_LIMIT]

    # -- reads ------------------------------------------------------------- #

    def get(self, metric: Metric) -> float:
        """Current value of a counter or gauge (0 when never touched)."""
        if metric.kind == COUNTER:
            return self._counters.get(metric.name, 0)
        if metric.kind == GAUGE:
            return self._gauges.get(metric.name, 0.0)
        raise ValueError(f"{metric.name} is a histogram; use histogram_summary()")

    def histogram_summary(self, metric: Metric) -> Dict[str, float]:
        """Count and p50/p95/p99 of a histogram's recent observations."""
        values = sorted(self._histograms.get(metric.name, ()))
        if not values:
            return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": len(values),
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "p99": _percentile(values, 0.99),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Plain dict of all counter and gauge values at this instant."""
        snap: Dict[str, Any] = dict(self._counters)
        snap.update(self._gauges)
        return snap

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot plus histogram summaries — the full serialisable view."""
        out = self.snapshot()
        for name in self._histograms:
            values = sorted(self._histograms[name])
            out[name] = {
                "count": len(values),
                "p50": _percentile(values, 0.50),
                "p95": _percentile(values, 0.95),
                "p99": _percentile(values, 0.99),
            }
        return out

    def __repr__(self) -> str:
        """Short debug form listing how many metrics hold data."""
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def diff_snapshots(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, Any]:
    """Per-interval deltas between two snapshots (only nonzero entries).

    Keys absent from ``before`` are treated as 0, so metrics first touched
    during the interval still show up.  Gauge entries diff like counters —
    callers that want absolute gauge values read the ``after`` snapshot.
    """
    deltas: Dict[str, Any] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            deltas[key] = delta
    return deltas


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


# ---------------------------------------------------------------------- #
# The process-global registry (interned-graph caches live at process scope)
# ---------------------------------------------------------------------- #

_GLOBAL: Optional[MetricsRegistry] = None


def global_metrics() -> MetricsRegistry:
    """The process-wide registry for process-scoped caches (intern, balls)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry()
    return _GLOBAL


def reset_global_metrics() -> None:
    """Replace the process-wide registry with a fresh one (test isolation)."""
    global _GLOBAL
    _GLOBAL = None
