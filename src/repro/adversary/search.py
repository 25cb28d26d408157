"""The counterexample-search driver: propose, batch-evaluate, observe, shrink.

:func:`find_counterexample` turns "find the Id that defeats this candidate"
into a budgeted, batched workload on the existing execution seams: each
strategy batch is submitted through
:meth:`~repro.engine.base.ExecutionEngine.run_many`, so an engine wrapped
in a :class:`~repro.engine.persistent.VerdictStore` replays already-settled
probes across resumed hunts (the report's ``jobs_replayed`` /
``jobs_computed`` record the split, exactly as in
:func:`~repro.decision.decider.verify_decider`).

Instances are hunted no-instances first (false-accepts are what the
paper's candidates are defeated by) and the hunt stops at the first defeat,
which is then delta-debugged to a locally-minimal witness by
:mod:`repro.adversary.shrink`.  :func:`adversarial_verify` is the same loop
folded into a :class:`~repro.decision.decider.VerificationReport` — it
backs ``verify_decider(search=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..decision.decider import (
    CounterExample,
    VerificationReport,
    _outcome_from_outputs,
)
from ..decision.property import InstanceFamily, Property
from ..engine.base import EngineLike, resolve_engine, store_counters, store_job_split
from ..graphs.identifiers import IdAssignment, IdentifierSpace
from ..graphs.labelled_graph import LabelledGraph
from ..obs import trace
from .shrink import MinimalCounterExample, shrink_counterexample
from .strategies import StrategyLike, resolve_strategy

__all__ = [
    "InstanceHunt",
    "SearchReport",
    "default_pool",
    "hunt_instance",
    "find_counterexample",
    "adversarial_verify",
]

#: Builds the identifier pool one instance is hunted over.
PoolFactory = Callable[[LabelledGraph], Sequence[int]]


def default_pool(graph: LabelledGraph, id_space: Optional[IdentifierSpace] = None) -> List[int]:
    """The identifier pool hunted by default: the full bounded universe, or ``{0..2n-1}``.

    A bounded space's pool is its whole legal universe ``{0..f(n)-1}``;
    the unbounded space is approximated by twice the node count, matching
    :func:`~repro.graphs.identifiers.random_assignment`'s default.
    """
    n = graph.num_nodes()
    bound = id_space.bound_for(n) if id_space is not None else None
    return list(range(bound if bound is not None else max(2 * n, 1)))


@dataclass
class InstanceHunt:
    """Outcome of hunting one instance: executions spent and the defeat, if any."""

    expected: bool
    executions: int = 0
    batches: int = 0
    exhausted: bool = False
    best_score: float = 0.0
    counter_example: Optional[CounterExample] = None

    @property
    def found(self) -> bool:
        return self.counter_example is not None

    def as_dict(self) -> Dict[str, object]:
        return {
            "expected": self.expected,
            "executions": self.executions,
            "batches": self.batches,
            "exhausted": self.exhausted,
            "best_score": round(self.best_score, 6),
            "found": self.found,
        }


@dataclass
class SearchReport:
    """Aggregate outcome of a counterexample hunt over an instance family.

    ``executions`` counts decider runs up to and including the defeat
    (shrink probes are tallied separately inside ``minimal``);
    ``jobs_replayed`` / ``jobs_computed`` split the engine-side work
    between verdict-store replay and fresh computation, as in
    :class:`~repro.decision.decider.VerificationReport` — they cover whole
    proposed batches, so their sum can exceed ``executions``.
    """

    algorithm_name: str
    family_name: str
    strategy: str
    max_evaluations: int
    batch_size: int
    seed: int
    instances_tried: int = 0
    executions: int = 0
    batches: int = 0
    jobs_computed: int = 0
    jobs_replayed: int = 0
    counter_example: Optional[CounterExample] = None
    minimal: Optional[MinimalCounterExample] = None
    hunts: List[InstanceHunt] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """``True`` when some instance yielded a defeating assignment."""
        return self.counter_example is not None

    def summary(self) -> str:
        """One-line human-readable summary citing the minimal witness when found."""
        head = (
            f"{self.strategy} search of {self.algorithm_name} on {self.family_name}: "
            f"{'DEFEATED' if self.found else 'no counterexample'} "
            f"[{self.executions} executions / {self.instances_tried} instances, "
            f"budget {self.max_evaluations}]"
        )
        if self.minimal is not None:
            head += f"; {self.minimal.describe()}"
        elif self.found:
            head += f"; {self.counter_example.describe()}"
        return head

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record (used by campaign results and the CLI)."""
        return {
            "algorithm": self.algorithm_name,
            "family": self.family_name,
            "strategy": self.strategy,
            "max_evaluations": self.max_evaluations,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "found": self.found,
            "instances_tried": self.instances_tried,
            "executions": self.executions,
            "batches": self.batches,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "counterexample": None if self.counter_example is None else self.counter_example.as_dict(),
            "minimal": None if self.minimal is None else self.minimal.as_dict(),
            "hunts": [hunt.as_dict() for hunt in self.hunts],
        }


# ---------------------------------------------------------------------- #
# Per-instance hunt
# ---------------------------------------------------------------------- #


def hunt_instance(
    decider,
    graph: LabelledGraph,
    expected: bool,
    strategy: StrategyLike,
    pool: Sequence[int],
    seed: int = 0,
    max_evaluations: int = 256,
    batch_size: int = 16,
    engine: EngineLike = None,
    family_name: str = "",
) -> InstanceHunt:
    """Hunt one instance for a defeating assignment under a fixed budget.

    The strategy proposes candidate batches, the engine evaluates each
    batch through :meth:`~repro.engine.base.ExecutionEngine.run_many`, and
    the scored batch (fraction of nodes outputting the defeat-ward verdict)
    is fed back to the strategy.  Executions count evaluated jobs up to and
    including the defeat, so strategy comparisons are apples-to-apples.

    Id-oblivious deciders cannot be defeated *by an assignment*: for them a
    single canonical evaluation settles the instance.
    """
    engine = resolve_engine(engine)
    hunt = InstanceHunt(expected=expected)
    n = graph.num_nodes()
    if not getattr(decider, "uses_identifiers", True):
        # Every assignment is equivalent; one evaluation settles it.
        outcome = _outcome_from_outputs(engine.run(decider, graph, None))
        hunt.executions, hunt.batches, hunt.exhausted = 1, 1, True
        if outcome.accepted != expected:
            hunt.counter_example = CounterExample(
                graph=graph,
                ids=None,
                expected=expected,
                accepted=outcome.accepted,
                family=family_name,
                rejecting_nodes=outcome.rejecting_nodes,
            )
        return hunt
    walker = resolve_strategy(strategy, graph, pool, seed)
    while hunt.executions < max_evaluations:
        batch = walker.propose(min(batch_size, max_evaluations - hunt.executions))
        if not batch:
            hunt.exhausted = True
            break
        hunt.batches += 1
        with trace.span("adversary.batch", batch=hunt.batches, size=len(batch)) as sp:
            outputs_list = engine.run_many(decider, [(graph, ids) for ids in batch])
            scored: List[Tuple[IdAssignment, float]] = []
            for ids, outputs in zip(batch, outputs_list):
                hunt.executions += 1
                outcome = _outcome_from_outputs(outputs)
                if outcome.accepted != expected:
                    hunt.counter_example = CounterExample(
                        graph=graph,
                        ids=ids,
                        expected=expected,
                        accepted=outcome.accepted,
                        family=family_name,
                        rejecting_nodes=outcome.rejecting_nodes,
                    )
                    hunt.best_score = 1.0
                    sp.add(defeated=True)
                    return hunt
                # Defeat-ward fraction: nodes already outputting the verdict
                # that would flip the global answer against `expected`.
                if expected:
                    score = len(outcome.rejecting_nodes) / n if n else 0.0
                else:
                    score = 1.0 - (len(outcome.rejecting_nodes) / n if n else 0.0)
                scored.append((ids, score))
                hunt.best_score = max(hunt.best_score, score)
            sp.add(best_score=hunt.best_score)
        walker.observe(scored)
    return hunt


# ---------------------------------------------------------------------- #
# Family-level drivers
# ---------------------------------------------------------------------- #


def _hunt_order(family: InstanceFamily) -> List[Tuple[LabelledGraph, bool]]:
    """No-instances first: the candidates' defeats are false-accepts."""
    labelled = family.labelled_instances()
    return [pair for pair in labelled if not pair[1]] + [pair for pair in labelled if pair[1]]


def find_counterexample(
    decider,
    prop: Optional[Property] = None,
    family: Optional[InstanceFamily] = None,
    strategy: StrategyLike = "hill-climb",
    id_space: Optional[IdentifierSpace] = None,
    pool_factory: Optional[PoolFactory] = None,
    max_evaluations: int = 256,
    batch_size: int = 16,
    seed: int = 0,
    engine: EngineLike = None,
    shrink: bool = True,
    shrink_budget: int = 512,
) -> SearchReport:
    """Hunt an instance family for an assignment defeating the decider.

    Instances are tried no-instances first, each with its own
    ``max_evaluations`` budget, and the hunt stops at the first defeat;
    with ``shrink`` (the default) the found counter-example is
    delta-debugged to a locally-minimal witness (ground truth recomputed
    via ``prop``) before the report is returned.  ``pool_factory``
    overrides the identifier pool per instance — e.g. the promise
    problems' 1-based convention — and defaults to :func:`default_pool`
    over ``id_space``.
    """
    if family is None:
        if prop is None:
            raise ValueError("find_counterexample needs a property or an instance family")
        family = InstanceFamily.from_property(prop)
    engine = resolve_engine(engine)
    report = SearchReport(
        algorithm_name=getattr(decider, "name", type(decider).__name__),
        family_name=family.name,
        strategy=strategy if isinstance(strategy, str) else getattr(strategy, "name", "custom"),
        max_evaluations=max_evaluations,
        batch_size=batch_size,
        seed=seed,
    )
    before = store_counters(engine)
    for graph, expected in _hunt_order(family):
        report.instances_tried += 1
        pool = list(pool_factory(graph)) if pool_factory is not None else default_pool(graph, id_space)
        hunt = hunt_instance(
            decider,
            graph,
            expected,
            strategy=strategy,
            pool=pool,
            seed=seed,
            max_evaluations=max_evaluations,
            batch_size=batch_size,
            engine=engine,
            family_name=family.name,
        )
        report.hunts.append(hunt)
        report.executions += hunt.executions
        report.batches += hunt.batches
        if hunt.found:
            report.counter_example = hunt.counter_example
            break
    report.jobs_replayed, report.jobs_computed = store_job_split(
        engine, before, report.executions
    )
    if shrink and report.counter_example is not None:
        report.minimal = shrink_counterexample(
            decider,
            report.counter_example,
            prop=prop,
            id_space=id_space,
            engine=engine,
            max_checks=shrink_budget,
        )
    return report


def adversarial_verify(
    algorithm,
    prop: Property,
    family: Optional[InstanceFamily] = None,
    id_space: Optional[IdentifierSpace] = None,
    strategy: StrategyLike = "hill-climb",
    pool_factory: Optional[PoolFactory] = None,
    max_evaluations: int = 256,
    batch_size: int = 16,
    seed: int = 0,
    stop_at_first_failure: bool = False,
    engine: EngineLike = None,
    shrink: bool = True,
    shrink_budget: int = 512,
) -> VerificationReport:
    """Verify a decider with guided search instead of a fixed assignment pool.

    This is the engine behind ``verify_decider(search=...)``: every
    instance of the family is hunted with its own budget (no early stop
    across instances unless ``stop_at_first_failure``), failures become
    :class:`~repro.decision.decider.CounterExample`\\ s exactly as in the
    exhaustive sweep, and each is shrunk into
    :attr:`VerificationReport.minimal_counterexamples`.
    """
    family = family or InstanceFamily.from_property(prop)
    engine = resolve_engine(engine)
    report = VerificationReport(
        algorithm_name=getattr(algorithm, "name", type(algorithm).__name__),
        family_name=family.name,
    )
    before = store_counters(engine)
    for graph, expected in family.labelled_instances():
        report.instances_checked += 1
        pool = list(pool_factory(graph)) if pool_factory is not None else default_pool(graph, id_space)
        hunt = hunt_instance(
            algorithm,
            graph,
            expected,
            strategy=strategy,
            pool=pool,
            seed=seed,
            max_evaluations=max_evaluations,
            batch_size=batch_size,
            engine=engine,
            family_name=family.name,
        )
        report.assignments_checked += hunt.executions
        if hunt.found:
            report.counter_examples.append(hunt.counter_example)
            if stop_at_first_failure:
                break
    # Attribute the sweep's jobs before shrinking, whose probes run through
    # the same engine but are tallied inside each minimal witness instead.
    report.jobs_replayed, report.jobs_computed = store_job_split(
        engine, before, report.assignments_checked
    )
    if shrink:
        for counter in report.counter_examples:
            report.minimal_counterexamples.append(
                shrink_counterexample(
                    algorithm,
                    counter,
                    prop=prop,
                    id_space=id_space,
                    engine=engine,
                    max_checks=shrink_budget,
                )
            )
    return report
