"""Running local algorithms as deciders and verifying them exhaustively.

The acceptance semantics of local decision (Section 1.2):

* if ``(G, x)`` has the property, **every** node must output ``yes``;
* if ``(G, x)`` does not, **at least one** node must output ``no``.

:func:`decide` applies that rule to one input; :func:`verify_decider` checks
a decider against a whole :class:`~repro.decision.property.InstanceFamily`
under *every* identifier assignment drawn from a finite pool (or a sample of
random assignments) — this is the mechanical replacement for the paper's
"for every Id" quantifier, and it is how the test-suite and benchmarks
establish that the LD deciders of Sections 2 and 3 are correct and that
candidate Id-oblivious deciders are not.

The whole ``(instance × assignment)`` grid is submitted through one
``engine.run_many`` call per sweep, so whichever backend is selected sees
the full batch at once — the default :class:`~repro.engine.direct.DirectEngine`
then serves every assignment of a graph from one vectorised ball
collection (:mod:`repro.engine.interned`), and the persistent backend
replays the settled jobs of the same batch with identical verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..engine.base import EngineLike, resolve_engine, store_counters, store_job_split
from ..errors import DecisionError
from ..graphs.identifiers import (
    IdAssignment,
    IdentifierSpace,
    UnboundedIdentifierSpace,
    enumerate_assignments,
    random_assignment,
    sequential_assignment,
)
from ..graphs.labelled_graph import LabelledGraph, Node
from ..local_model.algorithm import LocalAlgorithm
from ..local_model.outputs import NO, YES, Verdict, all_yes
from ..local_model.runner import run_algorithm
from .property import InstanceFamily, Property

__all__ = [
    "DecisionOutcome",
    "decide",
    "decide_outcome",
    "VerificationReport",
    "CounterExample",
    "verify_decider",
    "assignments_for",
]


@dataclass
class DecisionOutcome:
    """The result of running a decider on one input ``(G, x, Id)``."""

    accepted: bool
    outputs: Dict[Node, Verdict]
    rejecting_nodes: Tuple[Node, ...]

    def __bool__(self) -> bool:
        return self.accepted


def _check_outputs(outputs: Dict[Node, Hashable]) -> Dict[Node, Verdict]:
    clean: Dict[Node, Verdict] = {}
    for v, out in outputs.items():
        if not isinstance(out, Verdict):
            raise DecisionError(
                f"decider returned {out!r} at node {v!r}; decision algorithms must return YES or NO"
            )
        clean[v] = out
    return clean


def _outcome_from_outputs(outputs: Dict[Node, Hashable]) -> DecisionOutcome:
    clean = _check_outputs(outputs)
    rejecting = tuple(v for v, out in clean.items() if out == NO)
    return DecisionOutcome(accepted=not rejecting, outputs=clean, rejecting_nodes=rejecting)


def decide_outcome(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    engine: EngineLike = None,
) -> DecisionOutcome:
    """Run a decision algorithm on one input and return the detailed outcome."""
    return _outcome_from_outputs(run_algorithm(algorithm, graph, ids, engine=engine))


def decide(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    engine: EngineLike = None,
) -> bool:
    """Return ``True`` when the decider accepts the input (every node outputs ``yes``)."""
    return decide_outcome(algorithm, graph, ids, engine=engine).accepted


# ---------------------------------------------------------------------- #
# Exhaustive / sampled verification over identifier assignments
# ---------------------------------------------------------------------- #


@dataclass
class CounterExample:
    """A single observed failure of a decider.

    Beyond the failing ``(graph, ids)`` pair, the counter-example records
    which nodes rejected, so reports can cite the concrete assignment (and
    local outputs) that witnesses the failure instead of only a boolean.
    """

    graph: LabelledGraph
    ids: Optional[IdAssignment]
    expected: bool
    accepted: bool
    family: str = ""
    rejecting_nodes: Tuple[Node, ...] = ()

    @property
    def kind(self) -> str:
        """``"false-reject"`` or ``"false-accept"``."""
        return "false-reject" if self.expected else "false-accept"

    def describe(self) -> str:
        """Human-readable one-liner citing the witnessing identifier assignment."""
        ids = "no ids" if self.ids is None else repr(self.ids)
        rejecting = (
            f", rejecting nodes {list(self.rejecting_nodes)[:4]!r}" if self.rejecting_nodes else ""
        )
        return f"{self.kind} on n={self.graph.num_nodes()} ({self.family}) under {ids}{rejecting}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record of the failure, assignment included."""
        return {
            "kind": self.kind,
            "family": self.family,
            "num_nodes": self.graph.num_nodes(),
            "expected": self.expected,
            "accepted": self.accepted,
            "assignment": None if self.ids is None else {str(v): i for v, i in self.ids.items()},
            "rejecting_nodes": [str(v) for v in self.rejecting_nodes],
        }

    def __repr__(self) -> str:
        return f"CounterExample({self.kind}, n={self.graph.num_nodes()}, family={self.family!r})"


@dataclass
class VerificationReport:
    """Aggregate result of verifying a decider on an instance family.

    ``jobs_computed`` / ``jobs_replayed`` split the sweep's jobs between
    fresh evaluation and replay from a cross-run verdict store (see
    :class:`~repro.engine.persistent.PersistentEngine`); without a store
    every job counts as computed.
    """

    algorithm_name: str
    family_name: str
    instances_checked: int = 0
    assignments_checked: int = 0
    jobs_computed: int = 0
    jobs_replayed: int = 0
    counter_examples: List[CounterExample] = field(default_factory=list)
    #: Locally-minimal witnesses produced by the adversarial shrinker
    #: (:mod:`repro.adversary.shrink`); populated by ``verify_decider(search=...)``.
    minimal_counterexamples: List["MinimalCounterExample"] = field(default_factory=list)  # noqa: F821

    @property
    def correct(self) -> bool:
        """``True`` when no counter-example was found."""
        return not self.counter_examples

    @property
    def first_counterexample(self) -> Optional[CounterExample]:
        """The first observed failure (with its identifier assignment), or ``None``."""
        return self.counter_examples[0] if self.counter_examples else None

    @property
    def first_minimal(self) -> Optional["MinimalCounterExample"]:  # noqa: F821
        """The first shrunk witness, or ``None`` when no shrinking was performed."""
        return self.minimal_counterexamples[0] if self.minimal_counterexamples else None

    def summary(self) -> str:
        """One-line human-readable summary, citing the first counter-example on failure."""
        status = "OK" if self.correct else f"FAILED ({len(self.counter_examples)} counter-examples)"
        line = (
            f"{self.algorithm_name} on {self.family_name}: {status} "
            f"[{self.instances_checked} instances x {self.assignments_checked} id-assignments]"
        )
        if self.jobs_replayed:
            line += f" ({self.jobs_replayed} replayed / {self.jobs_computed} computed)"
        if not self.correct:
            line += f"; first: {self.first_counterexample.describe()}"
            if self.first_minimal is not None:
                line += f"; {self.first_minimal.describe()}"
        return line

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by campaign reports)."""
        first = self.first_counterexample
        minimal = self.first_minimal
        return {
            "algorithm": self.algorithm_name,
            "family": self.family_name,
            "instances_checked": self.instances_checked,
            "assignments_checked": self.assignments_checked,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "correct": self.correct,
            "counter_examples": len(self.counter_examples),
            "first_counterexample": None if first is None else first.as_dict(),
            "first_minimal": None if minimal is None else minimal.as_dict(),
        }


def assignments_for(
    graph: LabelledGraph,
    id_space: Optional[IdentifierSpace] = None,
    exhaustive_pool: Optional[Sequence[int]] = None,
    samples: int = 4,
    seed: int = 0,
    include_adversarial: bool = True,
) -> List[IdAssignment]:
    """Produce the identifier assignments under which an input should be tested.

    Three sources are combined:

    * the canonical assignment ``0..n-1``;
    * every injective assignment from ``exhaustive_pool`` when that pool is
      given and small (this realises the paper's "for every Id" exactly on a
      finite universe);
    * otherwise ``samples`` random legal assignments from ``id_space`` (which
      defaults to the unbounded space), plus — for bounded spaces — the
      adversarial assignment using the largest legal identifiers, because the
      paper's LD deciders rely precisely on large identifiers showing up.
    """
    id_space = id_space or UnboundedIdentifierSpace()
    out: List[IdAssignment] = [sequential_assignment(graph)]
    if exhaustive_pool is not None:
        out.extend(enumerate_assignments(graph, exhaustive_pool))
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            out.append(id_space.random(graph, rng))
        adversarial = getattr(id_space, "adversarial", None)
        if include_adversarial and callable(adversarial):
            out.append(adversarial(graph))
    # De-duplicate while keeping order.  IdAssignment hashes by its
    # (node, identifier) pairs and nodes are hashable by construction, so the
    # assignment itself is the dedup key; keying on repr(node) would conflate
    # distinct nodes whose reprs happen to collide.
    unique: List[IdAssignment] = []
    seen = set()
    for a in out:
        if a not in seen:
            seen.add(a)
            unique.append(a)
    return unique


def verify_decider(
    algorithm: LocalAlgorithm,
    prop: Property,
    family: Optional[InstanceFamily] = None,
    id_space: Optional[IdentifierSpace] = None,
    exhaustive_pool: Optional[Sequence[int]] = None,
    samples: int = 4,
    seed: int = 0,
    stop_at_first_failure: bool = False,
    assignments_factory: Optional[Callable[[LabelledGraph], Sequence[IdAssignment]]] = None,
    engine: EngineLike = None,
    search: Optional[object] = None,
    search_budget: int = 256,
    search_batch: int = 16,
    shrink: bool = True,
) -> VerificationReport:
    """Verify a decider against ground truth on a family of instances.

    For every instance in the family (or in the property's own generators)
    and every identifier assignment produced by :func:`assignments_for` —
    or by ``assignments_factory`` when a problem needs a bespoke legal-
    assignment convention, e.g. the 1-based identifiers of the Section-2/3
    promise problems — the decider is run and its global accept/reject
    compared with the property's membership answer.  Failures are recorded
    as :class:`CounterExample`\\ s carrying the witnessing assignment (see
    :attr:`VerificationReport.first_counterexample`).

    ``engine`` selects the execution backend for the whole sweep.  The
    sweep's ``(graph, assignment)`` grid is submitted through the engine's
    batched :meth:`~repro.engine.base.ExecutionEngine.run_many` driver: the
    :class:`~repro.engine.cached.CachedEngine` answers repeats from its
    memo stores.  The grid is one batch per whole family, or one per
    instance when ``stop_at_first_failure`` limits how much work may run.
    An engine wrapped in a cross-run verdict store
    (``engine.with_store(path)``) replays already-settled jobs from disk
    and only computes the misses; the report's ``jobs_replayed`` /
    ``jobs_computed`` fields record that split.

    ``search`` switches the sweep from a fixed assignment pool to guided
    adversarial search (:mod:`repro.adversary`): a strategy name
    (``"exhaustive"`` / ``"random"`` / ``"hill-climb"``) or factory hunts
    each instance under a per-instance ``search_budget``, and — with
    ``shrink`` (the default) — every failure is delta-debugged into
    :attr:`VerificationReport.minimal_counterexamples`.  The hunted pool
    is ``exhaustive_pool`` when given, otherwise the ``id_space``'s legal
    universe (see :func:`~repro.adversary.search.default_pool`);
    ``samples`` plays no role in search mode, and ``assignments_factory``
    is incompatible with it — a factory pins the exact assignments to
    sweep, which contradicts searching for them.
    """
    family = family or InstanceFamily.from_property(prop)
    if search is not None:
        if assignments_factory is not None:
            raise DecisionError(
                "verify_decider(search=...) cannot honour assignments_factory: "
                "a fixed assignment list contradicts searching for one; "
                "restrict the hunted pool via exhaustive_pool or id_space instead"
            )
        from ..adversary.search import adversarial_verify

        return adversarial_verify(
            algorithm,
            prop,
            family=family,
            id_space=id_space,
            strategy=search,
            pool_factory=(None if exhaustive_pool is None else (lambda graph: exhaustive_pool)),
            max_evaluations=search_budget,
            batch_size=search_batch,
            seed=seed,
            stop_at_first_failure=stop_at_first_failure,
            engine=engine,
            shrink=shrink,
        )
    engine = resolve_engine(engine)
    report = VerificationReport(algorithm_name=algorithm.name, family_name=family.name)
    # Snapshot the engine's store counters so the report can attribute this
    # sweep's jobs to replay vs fresh computation (zero/zero for storeless
    # engines, in which case every checked assignment counts as computed).
    before = store_counters(engine)

    def _finalise() -> VerificationReport:
        report.jobs_replayed, report.jobs_computed = store_job_split(
            engine, before, report.assignments_checked
        )
        return report

    def _assignments(graph: LabelledGraph) -> List[IdAssignment]:
        if assignments_factory is not None:
            return list(assignments_factory(graph))
        return assignments_for(
            graph,
            id_space=id_space,
            exhaustive_pool=exhaustive_pool,
            samples=samples,
            seed=seed,
        )

    def _scan(graph, expected, assignments, outputs_list) -> bool:
        """Fold one instance's sweep into the report; ``True`` to stop early."""
        for ids, outputs in zip(assignments, outputs_list):
            report.assignments_checked += 1
            outcome = _outcome_from_outputs(outputs)
            if outcome.accepted != expected:
                report.counter_examples.append(
                    CounterExample(
                        graph=graph,
                        ids=ids,
                        expected=expected,
                        accepted=outcome.accepted,
                        family=family.name,
                        rejecting_nodes=outcome.rejecting_nodes,
                    )
                )
                if stop_at_first_failure:
                    return True
        return False

    labelled = family.labelled_instances()
    if stop_at_first_failure:
        # Batch per instance so no work is spent past the failing graph.
        for graph, expected in labelled:
            report.instances_checked += 1
            assignments = _assignments(graph)
            outputs_list = engine.run_many(algorithm, [(graph, ids) for ids in assignments])
            if _scan(graph, expected, assignments, outputs_list):
                return _finalise()
        return _finalise()

    # One batch over the whole (instance x assignment) grid, so a store-backed
    # engine replays every settled job of the sweep in one lookup pass.
    grid: List[Tuple[LabelledGraph, bool, List[IdAssignment]]] = []
    jobs: List[Tuple[LabelledGraph, Optional[IdAssignment]]] = []
    for graph, expected in labelled:
        assignments = _assignments(graph)
        grid.append((graph, expected, assignments))
        jobs.extend((graph, ids) for ids in assignments)
    outputs_list = engine.run_many(algorithm, jobs)
    cursor = 0
    for graph, expected, assignments in grid:
        report.instances_checked += 1
        _scan(graph, expected, assignments, outputs_list[cursor : cursor + len(assignments)])
        cursor += len(assignments)
    return _finalise()
