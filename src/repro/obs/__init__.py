"""Observability for the engine stack: span tracing, typed metrics, reports.

Three pieces, all stdlib-only so every other layer may import this one
(and nothing here imports the engines back):

* :mod:`repro.obs.trace` — the span tracer behind ``--trace`` /
  ``REPRO_TRACE``; disabled by default with a genuinely free no-op path.
* :mod:`repro.obs.metrics` — declared :class:`Metric` constants and the
  :class:`MetricsRegistry` snapshot/diff discipline that replaced
  stringly-typed counter keys duplicated across the engine layers.
* :mod:`repro.obs.report` — ``python -m repro.obs report trace.jsonl``
  aggregation: self/cumulative time per span kind, per-job latency
  percentiles, replay/compute breakdown, and two-trace ``--compare``.
"""

from . import metrics, trace
from .metrics import Metric, MetricsRegistry, diff_snapshots, global_metrics
from .trace import disable, enable, enabled, span

__all__ = [
    "Metric",
    "MetricsRegistry",
    "diff_snapshots",
    "disable",
    "enable",
    "enabled",
    "global_metrics",
    "metrics",
    "span",
    "trace",
]
