"""repro — reproduction of "What can be decided locally without identifiers?" (PODC 2013).

The package is organised as follows:

* :mod:`repro.graphs` — labelled graphs, identifier assignments, radius-t
  neighbourhoods, graph generators, isomorphism;
* :mod:`repro.local_model` — local algorithms (LOCAL / Id-oblivious / OI /
  randomised), the ball-evaluation runner and the synchronous
  message-passing simulator, port numberings;
* :mod:`repro.engine` — pluggable execution backends (direct ball
  evaluation, synchronous message passing, batched+memoised caching,
  cross-run verdict persistence) that every execution path routes through
  via ``engine=`` arguments;
* :mod:`repro.adversary` — guided adversarial search for identifier
  assignments defeating candidate deciders (seedable strategies, the
  batched ``find_counterexample`` driver, delta-debugging shrinking to
  minimal witnesses, and the ``python -m repro.adversary`` CLI);
* :mod:`repro.campaign` — declarative experiment campaigns: scenario specs
  over the paper's constructions, a runner collecting verdicts / timings /
  engine statistics into JSON reports, and the ``python -m repro.campaign``
  CLI;
* :mod:`repro.decision` — labelled graph properties, decision semantics,
  classes LD / LD* / NLD / BPLD, the generic Id-oblivious simulation ``A*``,
  randomised (p, q)-deciders;
* :mod:`repro.turing` — Turing machines, execution tables, machine library;
* :mod:`repro.properties` — the classic properties used as running examples
  (colourings, MIS, matchings, planarity, path languages);
* :mod:`repro.separation` — the paper's two separation constructions
  (Section 2: bounded identifiers; Section 3 + Appendix A: computability)
  and the randomised decider of Corollary 1;
* :mod:`repro.analysis` — neighbourhood-coverage analysis (the engine of the
  impossibility arguments), experiment records and report formatting.
"""

from . import adversary, decision, engine, graphs, local_model
from .adversary import MinimalCounterExample, find_counterexample, shrink_counterexample
from .decision import Property, decide
from .engine import (
    CachedEngine,
    DirectEngine,
    ExecutionEngine,
    PersistentEngine,
    SynchronousEngine,
    VerdictStore,
    resolve_engine,
)
from .graphs import IdAssignment, LabelledGraph
from .local_model import NO, YES, Verdict

__version__ = "1.3.0"

__all__ = [
    "graphs",
    "local_model",
    "engine",
    "decision",
    "adversary",
    "find_counterexample",
    "shrink_counterexample",
    "MinimalCounterExample",
    "ExecutionEngine",
    "DirectEngine",
    "SynchronousEngine",
    "CachedEngine",
    "PersistentEngine",
    "VerdictStore",
    "resolve_engine",
    "LabelledGraph",
    "IdAssignment",
    "YES",
    "NO",
    "Verdict",
    "Property",
    "decide",
    "__version__",
]
