"""Outside-in layer tracing: wrap the program's public functions where they are imported.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces each
function in :data:`LAYERS` at the module attribute or class attribute
through which the program calls it with a wrapper that records a span,
and :meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory and written once, by :meth:`Tracer.write`, when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  A call made while a span of the same layer is open (recursion, or
one layer function calling another) opens no second span, so a layer's
time is never counted twice.  Per-layer seconds are self times.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import repro.campaign.runner
import repro.decision.decider
import repro.engine.cached
import repro.engine.direct
import repro.engine.interned
import repro.engine.persistent
import repro.graphs.neighbourhood
import repro.workloads.axes
from repro.engine.base import ExecutionEngine
from repro.engine.cached import CachedEngine
from repro.engine.direct import DirectEngine
from repro.engine.interned import InternedGraph
from repro.engine.persistent import VerdictStore
from repro.graphs.labelled_graph import LabelledGraph
from repro.graphs.neighbourhood import Neighbourhood
from repro.separation.computability import HaltingPromiseProblem, RandomisedObliviousDecider
from repro.turing.machine import TuringMachine
from repro.workloads import WorkloadMatrix

import bench_workloads


def _count_if_none(counter: str):
    def observe(tracer: "Tracer", result) -> None:
        if result is None:
            tracer.count(counter)

    return observe


def _observe_search(tracer: "Tracer", outcome) -> None:
    tracer.count("adversary.executions", outcome.executions)
    tracer.count("adversary.defeats", int(outcome.found))


def _observe_estimate(tracer: "Tracer", estimate) -> None:
    tracer.count("decision.trials", estimate.trials)


def _observe_run(tracer: "Tracer", result) -> None:
    tracer.count("turing.steps", result.steps)


#: The package re-exports a function of the same name, which hides the
#: submodule from attribute access.
_neighbourhood_generator = importlib.import_module("repro.separation.computability.neighbourhood_generator")

#: (owner, attribute, layer, call counter, result observer).  The owner is
#: the module or class through which the program looks the function up.
LAYERS: Tuple[Tuple[object, str, str, Optional[str], Optional[Callable]], ...] = (
    (WorkloadMatrix, "scenarios", "workloads.expand", None, None),
    (repro.campaign.runner, "run_scenario", "campaign", "campaign.cells", None),
    (bench_workloads, "run_campaign", "campaign", None, None),
    (repro.campaign.runner, "verify_decider", "decision.verify", None, None),
    (bench_workloads, "decide", "decision.verify", None, None),
    (repro.decision.decider, "assignments_for", "decision.assignments", None, None),
    (bench_workloads, "estimate_acceptance_probability", "decision.estimate", None, _observe_estimate),
    (repro.campaign.runner, "find_counterexample", "adversary.search", None, _observe_search),
    (repro.engine.cached, "interned_view_key", "engine.view_key", "engine.view_key_calls",
     _count_if_none("engine.view_key_fallbacks")),
    (Neighbourhood, "structure_key", "engine.view_key", "engine.view_key_calls", None),
    (Neighbourhood, "oblivious_key", "engine.view_key", "engine.view_key_calls", None),
    (CachedEngine, "views", "engine.views", None, None),
    (DirectEngine, "views", "engine.views", None, None),
    (repro.engine.cached, "interned_id_free_views", "engine.views", None, None),
    (repro.engine.direct, "interned_id_free_views", "engine.views", None, None),
    (InternedGraph, "ball_table", "engine.ball_table", None, None),
    (repro.engine.interned, "intern_graph", "engine.intern", None, _count_if_none("engine.intern_fallbacks")),
    (ExecutionEngine, "evaluate_view", "engine.evaluate", None, None),
    (CachedEngine, "evaluate_view", "engine.evaluate", None, None),
    (RandomisedObliviousDecider, "evaluate", "engine.evaluate", None, None),
    (bench_workloads, "VerdictStore", "store.open", None, None),
    (VerdictStore, "put", "store.put", "store.puts", None),
    (VerdictStore, "get", "store.get", "store.gets", None),
    (repro.engine.persistent, "_decode_outputs", "store.get", None, None),
    (repro.engine.persistent, "job_digest", "store.digest", None, None),
    (repro.engine.persistent, "algorithm_fingerprint", "store.digest", None, None),
    (repro.engine.persistent, "_graph_token", "store.digest", None, None),
    (repro.engine.direct, "extract_neighbourhood", "graphs.extract", None, None),
    (repro.graphs.neighbourhood, "extract_neighbourhood", "graphs.extract", None, None),
    (_neighbourhood_generator, "extract_neighbourhood", "graphs.extract", None, None),
    (LabelledGraph, "induced_subgraph", "graphs.induced_subgraph", "graphs.induced_subgraph_calls", None),
    (TuringMachine, "run", "turing.run", None, _observe_run),
    (bench_workloads, "build_execution_graph", "separation.exec_graph", None, None),
    (HaltingPromiseProblem, "yes_instance", "separation.promise_instance", None, None),
    (HaltingPromiseProblem, "no_instance", "separation.promise_instance", None, None),
)


def _wrap_factory(tracer: "Tracer", make_factory: Callable) -> Callable:
    """Wrap an assignment-factory maker so the factories it returns are traced."""

    @functools.wraps(make_factory, updated=())
    def traced_maker(*args, **kwargs):
        return tracer.wrap("decision.assignments", make_factory(*args, **kwargs))

    return traced_maker


class Tracer:
    """Spans and counters of one traced run, grouped by the benchmark's phase."""

    def __init__(self) -> None:
        #: (id, parent id, layer, phase, start, end, self seconds); parent -1 = none
        self.spans: List[Tuple[int, int, str, str, float, float, float]] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.current_phase = "setup"
        self._stack: List[list] = []
        self._next_id = 0
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------- #

    def count(self, counter: str, amount: float = 1) -> None:
        self.counts[(self.current_phase, counter)] += amount

    @contextmanager
    def phase(self, name: str):
        """Attribute the spans and counts recorded inside the block to phase ``name``."""
        outer, self.current_phase = self.current_phase, name
        try:
            yield
        finally:
            self.current_phase = outer

    def wrap(self, layer: str, fn: Callable, counter: Optional[str] = None,
             observe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``."""
        tracer = self
        stack = self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][3] if stack else -1
                frame = [layer, time.perf_counter(), 0.0, span_id]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    if stack:
                        stack[-1][2] += duration
                    tracer.spans.append(
                        (span_id, parent, layer, tracer.current_phase, frame[1], end, duration - frame[2])
                    )
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def traced_spec(self, spec):
        """The same cell with its ``build`` callable traced as ``campaign.build``."""
        return dataclasses.replace(spec, build=self.wrap("campaign.build", spec.build))

    # -- installation ------------------------------------------------------ #

    def install(self) -> None:
        for owner, attr, layer, counter, observe in LAYERS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, counter, observe))
        original = repro.workloads.axes.one_based_assignments
        self._originals.append((repro.workloads.axes, "one_based_assignments", original))
        repro.workloads.axes.one_based_assignments = _wrap_factory(self, original)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------- #

    def self_seconds(self) -> Dict[Tuple[str, str], float]:
        """Total self time per ``(phase, layer)``."""
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for _id, _parent, layer, phase, _start, _end, self_s in self.spans:
            totals[(phase, layer)] += self_s
        return totals

    def write(self, path: str, summary: Dict[str, object]) -> None:
        """Write every span and the run's summary to ``path`` as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
