"""``python -m repro.adversary`` — hunt defeating identifier assignments.

Examples
--------

List the bundled adversarial targets (the campaign's ``search`` scenarios)::

    PYTHONPATH=src python -m repro.adversary --list

Hunt one target with the default mutation/hill-climbing strategy and print
the shrunk minimal witness::

    PYTHONPATH=src python -m repro.adversary adv-mis-parity --quick

Compare every strategy's executions-to-defeat on all targets (the table
behind ``benchmarks/BENCH_adversary.json``)::

    PYTHONPATH=src python -m repro.adversary --compare --quick

Resume a hunt against a persistent verdict store — probes settled by an
earlier hunt replay from disk::

    PYTHONPATH=src python -m repro.adversary adv-colour-guard \\
        --store /tmp/verdicts --seed 7

The process exits non-zero when any target misbehaves: a trap that should
be defeated survives its budget, or a hunt on a sound decider finds a
defeat.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Sequence

from ..analysis.reporting import format_table
from ..campaign.runner import StoreLike, _resolve_store
from ..campaign.scenarios import all_scenarios, get_scenario
from ..campaign.spec import ScenarioSpec
from ..engine.base import resolve_engine
from .search import SearchReport, find_counterexample
from .strategies import strategy_names

__all__ = ["main", "build_parser", "search_scenarios", "hunt_scenario"]


def search_scenarios() -> List[ScenarioSpec]:
    """The addressable adversarial targets: campaign scenarios of kind ``search``.

    Includes registered workload-matrix cells once
    :func:`repro.workloads.install_matrix` has run (the CLI's
    ``--workloads`` flag), so matrix hunts are driven like bundled ones.
    """
    return [spec for spec in all_scenarios() if spec.kind == "search"]


def hunt_scenario(
    spec: ScenarioSpec,
    strategy: Optional[str] = None,
    budget: Optional[int] = None,
    batch: Optional[int] = None,
    seed: Optional[int] = None,
    quick: bool = False,
    engine=None,
    store: StoreLike = None,
    shrink: bool = True,
) -> SearchReport:
    """Run one search scenario's hunt, with optional CLI overrides."""
    workload = spec.build(spec, spec.ladder(quick))
    eng = resolve_engine(engine if engine is not None else spec.engine)
    verdict_store, owns_store = _resolve_store(store)
    if verdict_store is not None:
        eng = eng.with_store(verdict_store)
    try:
        return find_counterexample(
            workload.decider,
            prop=workload.prop,
            family=workload.family,
            strategy=strategy if strategy is not None else spec.strategy,
            id_space=workload.id_space,
            pool_factory=workload.pool_factory,
            max_evaluations=budget if budget is not None else spec.search_budget(quick),
            batch_size=batch if batch is not None else spec.batch_size,
            seed=seed if seed is not None else spec.seed,
            engine=eng,
            shrink=shrink,
        )
    finally:
        if owns_store and verdict_store is not None:
            verdict_store.close()


def build_parser() -> argparse.ArgumentParser:
    targets = ", ".join(spec.name for spec in search_scenarios())
    parser = argparse.ArgumentParser(
        prog="python -m repro.adversary",
        description="Hunt identifier assignments that defeat candidate deciders, "
        "and shrink what you catch.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help=f"adversarial targets to hunt (default: all). Known: {targets}",
    )
    parser.add_argument("--list", action="store_true", help="list addressable targets and exit")
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="register the workload matrix's search cells as additional targets",
    )
    parser.add_argument(
        "--matrix-seed",
        type=int,
        default=0,
        metavar="N",
        help="matrix seed used with --workloads (default: 0)",
    )
    parser.add_argument(
        "--strategy",
        default=None,
        choices=strategy_names(),
        help="search strategy override (default: each target's declared strategy)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="per-instance execution budget override",
    )
    parser.add_argument(
        "--batch", type=int, default=None, metavar="N", help="candidates proposed per batch"
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N", help="search seed override"
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["direct", "synchronous", "cached"],
        help="execution backend override (default: each target's declared backend)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent verdict store: probes settled by earlier hunts replay from disk",
    )
    parser.add_argument("--quick", action="store_true", help="smaller ladders and budgets")
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip delta-debugging the found counterexample"
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="hunt each target with every strategy and tabulate executions-to-defeat",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="write the hunt reports as JSON"
    )
    return parser


def _list_targets() -> str:
    rows = [
        [spec.name, spec.strategy, spec.max_evaluations, spec.batch_size,
         "x".join(str(s) for s in spec.sizes) or "-", spec.title]
        for spec in search_scenarios()
    ]
    return format_table(
        ["name", "strategy", "budget", "batch", "sizes", "title"],
        rows,
        title=f"bundled adversarial targets ({len(rows)})",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workloads:
        from ..workloads import install_matrix

        install_matrix(seed=args.matrix_seed, kinds=("search",))
    if args.list:
        print(_list_targets())
        return 0
    known = [spec.name for spec in search_scenarios()]
    names = args.targets or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown target(s) {unknown}; see --list")
    if args.compare and args.strategy is not None:
        parser.error("--compare runs every strategy; drop --strategy")
    strategies = strategy_names() if args.compare else [args.strategy]
    payload = []
    rows = []
    ok = True
    for name in names:
        spec = get_scenario(name)
        for strategy in strategies:
            report = hunt_scenario(
                spec,
                strategy=strategy,
                budget=args.budget,
                batch=args.batch,
                seed=args.seed,
                quick=args.quick,
                engine=args.engine,
                store=args.store,
                shrink=not args.no_shrink,
            )
            behaved = report.found == (not spec.expect_correct)
            ok = ok and behaved
            rows.append([
                name,
                report.strategy,
                "defeated" if report.found else "survived",
                report.executions,
                "-" if report.minimal is None else report.minimal.counter.graph.num_nodes(),
                "-" if report.minimal is None else report.minimal.checks,
                "ok" if behaved else "UNEXPECTED",
            ])
            payload.append(report.as_dict())
            if not args.compare:
                print(report.summary())
    print(format_table(
        ["target", "strategy", "outcome", "executions", "minimal n", "shrink checks", "status"],
        rows,
        title="adversarial hunts",
    ))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")
    print(f"adversary {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
