"""The benchmark workloads: inputs made from a seed, one closed-loop pass each.

Every workload has the same shape:

* ``setup(clock)`` builds the run's inputs from the seed and returns a
  state; the runner times it several times and reports the median as
  ``setup_s``;
* ``run_pass(state, index, clock, tracer)`` runs pass ``index`` once and
  returns a :class:`PassResult` with one :class:`Check` per verdict the
  pass produced;
* ``teardown(state)`` releases what set-up opened.

Times are recorded as program-time ``(start, end)`` spans of a
:class:`refclock.RefClock`, which the runner converts to reference seconds;
the clock may calibrate between cells, never inside one.

The workloads call the program exactly as a user does: no ``engine=`` or
``workers=`` override, one process, cells run one after another (the
campaign runner starts a cell only when the previous one has finished).
Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.campaign.runner import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.decision import decide, estimate_acceptance_probability
from repro.engine import VerdictStore, default_engine
from repro.separation.computability import (
    HaltingPromiseProblem,
    IdSimulationDecider,
    RandomisedObliviousDecider,
    bounded_budget_oblivious_decider,
    build_execution_graph,
)
from repro.turing import halting_machine, looping_machine, walker_machine
from repro.workloads import WorkloadMatrix, get_family, get_property_axis, get_regime

#: Replicas of the default matrix expanded for ``matrix``; pass ``i`` runs
#: replica ``i`` (the 212 default cells are replica 0).  More passes than
#: replicas wrap around.
MATRIX_REPLICAS = 16

#: Seeded plans drawn for ``paper``; pass ``i`` runs plan ``i``, wrapping around.
PAPER_PLANS = 16

#: Cor. 1: execution-graph delay ladder and Monte-Carlo trials per instance.
COR1_DELAYS = (0,)
COR1_TRIALS = 2

#: Sec. 3: simulation fuel of the promise problem, cycle sizes of the
#: yes-instance and the bounded budgets tried.
SEC3_FUEL = 5_000
SEC3_CYCLE_SIZES = (6, 7, 8, 9, 10)
SEC3_BUDGETS = (2, 3, 4)

Span = Tuple[float, float]


@dataclass
class Check:
    """One verdict: ``ok`` says whether it matched its expectation."""

    name: str
    input_digest: str
    observed: object
    ok: bool
    span: Span


@dataclass
class PassResult:
    """What one pass did and when."""

    span: Span
    checks: List[Check]
    jobs: int
    trials: int
    trial_span: Span
    #: program counters for the traced run (EngineStats and store split)
    stats: Dict[str, int] = field(default_factory=dict)

    def digest(self) -> str:
        """Digest of the pass's verdicts: ``(name, input digest, observed)`` per check."""
        h = hashlib.sha256()
        for check in sorted(self.checks, key=lambda c: c.name):
            h.update(f"{check.name}\x1f{check.input_digest}\x1f{check.observed!r}\x1e".encode())
        return h.hexdigest()


def campaign_pass(specs: Sequence[ScenarioSpec], digests: Sequence[str], clock, tracer, store=None) -> PassResult:
    """Run ``specs`` through one ``run_campaign`` call; time each cell from outside.

    A cell's latency is the time from handing its spec to the runner until
    the runner asks for the next one, so it covers build, verdict and the
    runner's bookkeeping for that cell.  The clock may calibrate between
    two cells, outside both.
    """
    cell_spans: List[Span] = []

    def stream():
        for spec in specs:
            clock.tick()
            started = clock.now()
            yield spec if tracer is None else tracer.traced_spec(spec)
            cell_spans.append((started, clock.now()))

    started = clock.now()
    report = run_campaign(stream(), store=store)
    span = (started, clock.now())
    checks = [
        Check(r.name, digest, r.observed_correct, r.ok, cell_span)
        for r, digest, cell_span in zip(report.results, digests, cell_spans)
    ]
    stats = {
        "evaluations": sum(r.engine_stats.get("evaluations", 0) for r in report.results),
        "evaluation_hits": sum(r.engine_stats.get("evaluation_hits", 0) for r in report.results),
        "jobs_replayed": report.jobs_replayed,
        "jobs_computed": report.jobs_computed,
    }
    jobs = report.jobs_replayed + report.jobs_computed
    trials = sum(r.sweeps for r in report.results)
    return PassResult(span, checks, jobs, trials, span, stats)


class MatrixWorkload:
    """``matrix``: the default 212-cell workload matrix, one seed replica per pass."""

    name = "matrix"
    #: number of distinct pass inputs (pass ``i`` runs input ``i % inputs``)
    inputs = MATRIX_REPLICAS

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed

    def setup(self, clock):
        specs = WorkloadMatrix(seed=self.seed, replicas=MATRIX_REPLICAS).scenarios()
        # The expansion lists each base cell's replicas consecutively.
        passes = [specs[r::MATRIX_REPLICAS] for r in range(MATRIX_REPLICAS)]
        return [(cells, [spec.digest(False) for spec in cells]) for cells in passes]

    def run_pass(self, state, index: int, clock, tracer=None) -> PassResult:
        cells, digests = state[index % len(state)]
        return campaign_pass(cells, digests, clock, tracer)

    def teardown(self, state) -> None:
        pass


class MatrixReplayWorkload:
    """``matrix-replay``: the default matrix replayed from a verdict store filled in set-up."""

    name = "matrix-replay"
    inputs = 1

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        #: checks of the cold passes that filled each store
        self.setup_checks: List[Check] = []

    def setup(self, clock):
        specs = WorkloadMatrix(seed=self.seed).scenarios()
        digests = [spec.digest(False) for spec in specs]
        path = tempfile.mkdtemp(prefix="store-", dir=self.out_dir)
        store = VerdictStore(path)
        self.setup_checks.extend(campaign_pass(specs, digests, clock, None, store=store).checks)
        return specs, digests, store, path

    def run_pass(self, state, index: int, clock, tracer=None) -> PassResult:
        specs, digests, store, _path = state
        return campaign_pass(specs, digests, clock, tracer, store=store)

    def teardown(self, state) -> None:
        _specs, _digests, store, path = state
        store.close()
        shutil.rmtree(path, ignore_errors=True)


def _large_matrices(seed: int) -> List[WorkloadMatrix]:
    one_based = [get_regime("one-based")]
    props = [get_property_axis("colouring"), get_property_axis("mis")]
    # Grid rungs 24^2/32^2 (scale 8) and 48^2/64^2 (scale 16) sit on both
    # sides of MAX_INTERN_NODES = 2048.  The cheaper families climb the
    # ladder in steps of 2, so cell latencies spread evenly instead of in
    # two clusters whose gap would decide the median latency.
    grid = [get_family("grid")]
    sparse = [get_family(n) for n in ("torus", "cycle", "random-regular")]
    # Q_5 and Q_6: 5 and 6 symmetric neighbours per ball, inside the
    # canonical key's factorial search (it gives up only past 8).  Q_7 and
    # Q_8 are left out only because one such cell takes 17 s and 250 s.
    hypercube = dataclasses.replace(get_family("hypercube"), sizes=(5, 6), quick_sizes=(5,))
    return [
        WorkloadMatrix(families=grid, properties=props, regimes=one_based, seed=seed, size_scales=(8, 16)),
        WorkloadMatrix(families=sparse, properties=props, regimes=one_based, seed=seed, size_scales=(8, 10, 12, 14, 16)),
        WorkloadMatrix(families=[hypercube], properties=props, regimes=one_based, seed=seed),
    ]


class LargeWorkload:
    """``large``: verify cells on bounded-degree graphs on both sides of 2048 nodes."""

    name = "large"
    inputs = 1

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed

    def setup(self, clock):
        specs = [spec for matrix in _large_matrices(self.seed) for spec in matrix.scenarios()]
        return specs, [spec.digest(False) for spec in specs]

    def run_pass(self, state, index: int, clock, tracer=None) -> PassResult:
        specs, digests = state
        return campaign_pass(specs, digests, clock, tracer)

    def teardown(self, state) -> None:
        pass


@dataclass(frozen=True)
class PaperPlan:
    """The seeded choices of one ``paper`` pass."""

    cor1_seeds: Dict[str, int]
    yes_cycle: int
    halting: tuple
    budget: int
    slow_distance: int


def _paper_plan(rng: random.Random) -> PaperPlan:
    cor1_seeds = {
        f"cor1:{kind}:d{delay}": rng.randrange(2**31) for delay in COR1_DELAYS for kind in ("yes", "no")
    }
    halting = (
        ("halt", "0", rng.randint(0, 3)),
        ("halt", "1", rng.randint(0, 3)),
        ("walk", rng.choice("01"), rng.randint(2, 8)),
    )
    budget = rng.choice(SEC3_BUDGETS)
    return PaperPlan(
        cor1_seeds=cor1_seeds,
        yes_cycle=rng.choice(SEC3_CYCLE_SIZES),
        halting=halting,
        budget=budget,
        # A walker over d cells runs d + 1 steps, so this one outlasts the budget.
        slow_distance=budget + rng.randint(1, 3),
    )


class PaperWorkload:
    """``paper``: Cor. 1 Monte-Carlo estimates and the Sec. 3 halting promise problem."""

    name = "paper"
    inputs = PAPER_PLANS

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed

    def setup(self, clock) -> List[PaperPlan]:
        rng = random.Random(self.seed)
        return [_paper_plan(rng) for _ in range(PAPER_PLANS)]

    def run_pass(self, plans: List[PaperPlan], index: int, clock, tracer=None) -> PassResult:
        plan = plans[index % len(plans)]
        engine_stats = default_engine().stats
        before = (engine_stats.evaluations, engine_stats.evaluation_hits)
        started = clock.now()
        with _phase(tracer, "cor1"):
            cor1 = self._corollary1(plan, clock)
        cor1_span = (started, clock.now())
        with _phase(tracer, "sec3"):
            sec3 = self._section3(plan, clock)
        span = (started, clock.now())
        engine_stats = default_engine().stats
        stats = {
            "evaluations": engine_stats.evaluations - before[0],
            "evaluation_hits": engine_stats.evaluation_hits - before[1],
        }
        trials = len(cor1) * COR1_TRIALS
        return PassResult(span, cor1 + sec3, trials + len(sec3), trials, cor1_span, stats)

    def _corollary1(self, plan: PaperPlan, clock) -> List[Check]:
        decider = RandomisedObliviousDecider(check_structure=False)
        checks = []
        for delay in COR1_DELAYS:
            for kind, output in (("yes", "0"), ("no", "1")):
                name = f"cor1:{kind}:d{delay}"
                mc_seed = plan.cor1_seeds[name]
                started = clock.now()
                graph = build_execution_graph(halting_machine(output, delay=delay), r=1, fragment_side=2).graph
                estimate = estimate_acceptance_probability(decider, graph, trials=COR1_TRIALS, seed=mc_seed)
                span = (started, clock.now())
                if kind == "yes":
                    ok = estimate.acceptance_rate == 1.0
                else:
                    ok = estimate.rejection_rate >= 0.9
                input_digest = f"{graph.num_nodes()}:{COR1_TRIALS}:{mc_seed}"
                checks.append(Check(name, input_digest, estimate.accepts, ok, span))
                clock.tick()
        return checks

    def _section3(self, plan: PaperPlan, clock) -> List[Check]:
        problem = HaltingPromiseProblem(fuel=SEC3_FUEL)
        decider = IdSimulationDecider()
        checks = []

        def timed(name: str, builds, run, expected) -> None:
            """One cell: build and decide each instance; ``expected`` is every verdict."""
            started = clock.now()
            instances = [build() for build in builds]
            verdicts = tuple(run(instance) for instance in instances)
            span = (started, clock.now())
            sizes = ",".join(str(instance.num_nodes()) for instance in instances)
            observed = verdicts[0] if len(verdicts) == 1 else verdicts
            checks.append(Check(name, sizes, observed, all(v == expected for v in verdicts), span))
            clock.tick()

        def id_decider(instance):
            return decide(decider, instance, problem.instance_ids(instance))

        timed(
            f"sec3:yes:loop:n{plan.yes_cycle}",
            [lambda: problem.yes_instance(looping_machine(), n=plan.yes_cycle)],
            id_decider,
            True,
        )
        # The three halting no-instances are decided in one cell: each takes
        # well under a millisecond, and as separate cells they would put the
        # median cell latency among timer-scale cells.
        machines = [
            halting_machine(output, delay=size) if kind == "halt" else walker_machine(size, output)
            for kind, output, size in plan.halting
        ]
        timed(
            "sec3:no:" + "+".join(machine.name for machine in machines),
            [functools.partial(problem.no_instance, machine) for machine in machines],
            id_decider,
            False,
        )
        # The fixed-budget oblivious candidate accepts a no-instance whose
        # machine halts only after the budget: it is fooled.
        candidate = bounded_budget_oblivious_decider(plan.budget)
        timed(
            f"sec3:fooled:budget{plan.budget}:walker{plan.slow_distance}",
            [lambda: problem.no_instance(walker_machine(plan.slow_distance, "0"))],
            lambda instance: decide(candidate, instance),
            True,
        )
        return checks

    def teardown(self, plans: List[PaperPlan]) -> None:
        pass


def _phase(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.phase(name)


WORKLOADS = {
    cls.name: cls for cls in (MatrixWorkload, MatrixReplayWorkload, LargeWorkload, PaperWorkload)
}


def make_workload(name: str, seed: int, out_dir: str):
    """Instantiate workload ``name`` for ``seed``; scratch files go under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)
