"""``python -m repro.workloads`` — expand, sample and run the workload matrix.

Examples
--------

List the expanded cells (the count in the title is what CI asserts on)::

    PYTHONPATH=src python -m repro.workloads --list

Count a parameterised million-cell cross without building a single spec::

    PYTHONPATH=src python -m repro.workloads --list --count-only \\
        --size-scale 1 --size-scale 2 --sample-count 2 --sample-count 3 \\
        --replicas 1250

Print the deterministic JSON expansion (byte-identical for one seed), or
stream it as NDJSON — one line per cell, O(1) memory at any scale::

    PYTHONPATH=src python -m repro.workloads --expand
    PYTHONPATH=src python -m repro.workloads --expand --ndjson --max-cells 1000

Show the axes themselves::

    PYTHONPATH=src python -m repro.workloads --families
    PYTHONPATH=src python -m repro.workloads --properties

Run the quick matrix against a persistent verdict store, then prove the
warm re-run replays from disk::

    PYTHONPATH=src python -m repro.workloads --run --quick --store /tmp/verdicts
    PYTHONPATH=src python -m repro.workloads --run --quick --store /tmp/verdicts \\
        --min-replayed 0.9

Run a budgeted sweep: a seeded stratified sample of 50 cells (quota per
family x property stratum), logging each result incrementally so a killed
sweep resumes from the log::

    PYTHONPATH=src python -m repro.workloads --run --quick \\
        --sample 50 --strata family,property --log /tmp/matrix.jsonl

Spend the budget where a previous report says it matters (flipped,
near-defeat or never-measured cells first), replaying the rest::

    PYTHONPATH=src python -m repro.workloads --run --quick --sample 50 \\
        --importance-from benchmarks/BENCH_workload_matrix.json

Resume a previous matrix report, re-running only missing/stale cells::

    PYTHONPATH=src python -m repro.workloads --run \\
        --resume benchmarks/BENCH_workload_matrix.json --store /tmp/verdicts

The process exits non-zero when any cell misbehaves, so CI gates on matrix
sweeps directly (exactly like ``python -m repro.campaign``).
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..analysis.reporting import format_table
from ..campaign.runner import replay_summary, resume_campaign, run_campaign, write_report
from ..campaign.spec import ScenarioSpec
from ..obs import trace
from .axes import bundled_properties, bundled_regimes, property_names, regime_names
from .families import bundled_families, family_names
from .matrix import WorkloadMatrix, expand_json, expand_ndjson
from .sampling import STRATUM_AXES, SamplePlan, importance_sample, stratified_sample

__all__ = ["main", "build_parser", "DEFAULT_MATRIX_REPORT"]

#: Default location of matrix sweep reports, next to the benchmark records.
DEFAULT_MATRIX_REPORT = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_workload_matrix.json"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Expand, sample and run the (family x property x decider x id-regime) workload matrix.",
    )
    parser.add_argument(
        "cells",
        nargs="*",
        metavar="CELL",
        help="exact cell names to restrict to (default: every cell the filters admit)",
    )
    parser.add_argument("--list", action="store_true", help="list the expanded cells and exit")
    parser.add_argument(
        "--count-only",
        action="store_true",
        help="with --list: print only the cell count, computed without building any spec",
    )
    parser.add_argument(
        "--expand",
        action="store_true",
        help="print the deterministic JSON expansion (per-cell digests included) and exit",
    )
    parser.add_argument(
        "--ndjson",
        action="store_true",
        help="with --expand: stream one compact JSON line per cell instead of one array "
        "(O(1) memory on million-cell crosses)",
    )
    parser.add_argument(
        "--families", action="store_true", help="list the graph-family axis and exit"
    )
    parser.add_argument(
        "--properties",
        action="store_true",
        help="list the property axis (with decider constructions) and exit",
    )
    parser.add_argument("--run", action="store_true", help="run the selected cells as a campaign")
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help=f"include only this graph family (repeatable). Known: {', '.join(family_names())}",
    )
    parser.add_argument(
        "--exclude-family",
        action="append",
        default=[],
        metavar="NAME",
        help="drop this graph family after inclusion (repeatable)",
    )
    parser.add_argument(
        "--property",
        action="append",
        default=None,
        metavar="NAME",
        dest="property_filter",
        help=f"include only this property (repeatable). Known: {', '.join(property_names())}",
    )
    parser.add_argument(
        "--regime",
        action="append",
        default=None,
        metavar="NAME",
        help=f"include only this identifier regime (repeatable). Known: {', '.join(regime_names())}",
    )
    parser.add_argument(
        "--construction",
        action="append",
        default=None,
        metavar="NAME",
        help="include only this decider construction (repeatable), e.g. honest / lazy-guard",
    )
    parser.add_argument(
        "--kind",
        action="append",
        default=None,
        choices=["verify", "search"],
        help="include only cells of this scenario kind (repeatable)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="matrix seed: every cell derives its own deterministic seed from it (default: 0)",
    )
    parser.add_argument(
        "--size-scale",
        action="append",
        type=int,
        default=None,
        metavar="S",
        help="variant axis: multiply every family's size ladder by S (repeatable; default: 1)",
    )
    parser.add_argument(
        "--sample-count",
        action="append",
        type=int,
        default=None,
        metavar="K",
        help="variant axis: identifier assignments sampled per instance (repeatable; default: 3)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="R",
        help="variant axis: seed replicas per cell (default: 1)",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="hard cap on the number of cells listed/expanded/run (streaming prefix)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="BUDGET",
        help="with --run: sweep only a budgeted sample of the selected cells",
    )
    parser.add_argument(
        "--strata",
        default="family,property",
        metavar="AXES",
        help="comma-separated stratification axes for --sample "
        f"(default: family,property; known: {', '.join(STRATUM_AXES)})",
    )
    parser.add_argument(
        "--importance-from",
        default=None,
        metavar="REPORT",
        help="with --sample: importance-directed sampling against this prior report "
        "(flipped / near-defeat / never-measured cells first) instead of stratified",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the sampling draw itself (default: 0; the matrix seed is --seed)",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="sample-plan file: loaded (and verified) when it exists, otherwise the "
        "computed plan is saved there — pins one selection across re-invocations",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["direct", "synchronous", "cached"],
        help="execution backend override (default: each cell's declared backend)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="quick ladders and reduced search budgets"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent verdict store directory shared by every cell of the sweep",
    )
    parser.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="append-only JSONL result log: each completed cell is written immediately, "
        "and a re-invocation reuses logged results (crash-tolerant sweeps)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="REPORT",
        help="merge into an existing matrix report, re-running only missing/stale cells",
    )
    parser.add_argument(
        "--min-replayed",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail unless at least this fraction of jobs was replayed from the store "
        "(requires --store); used by CI to prove warm matrix sweeps",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=f"where to write the JSON report (default: {DEFAULT_MATRIX_REPORT})",
    )
    parser.add_argument(
        "--no-report", action="store_true", help="skip writing the JSON report file"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="with --run: write a structured JSONL span trace of the sweep to "
        "PATH (inspect it with `python -m repro.obs report PATH`)",
    )
    return parser


def _list_families() -> str:
    rows = [
        [
            fam.name,
            "x".join(str(s) for s in fam.sizes),
            "x".join(str(s) for s in fam.quick_sizes),
            "yes" if fam.connected else "no",
            ",".join(sorted(fam.tags)) or "-",
            fam.title,
        ]
        for fam in bundled_families()
    ]
    return format_table(
        ["family", "sizes", "quick", "connected", "tags", "title"],
        rows,
        title=f"workload graph families ({len(rows)})",
    )


def _list_properties() -> str:
    rows = []
    for axis in bundled_properties():
        for construction in axis.constructions:
            rows.append(
                [
                    axis.name,
                    construction.name,
                    "trap" if construction.expect_defeat else "honest",
                    ",".join(construction.trap_families) or "-",
                    ",".join(sorted(axis.requires_tags)) or "-",
                    axis.title,
                ]
            )
    regimes = ", ".join(f"{r.name} ({r.kind})" for r in bundled_regimes())
    table = format_table(
        ["property", "construction", "role", "trap-families", "requires-tags", "title"],
        rows,
        title=f"workload properties and decider constructions ({len(rows)})",
    )
    return f"{table}\n\nidentifier regimes: {regimes}"


def _resolve_plan(
    args: argparse.Namespace, matrix: WorkloadMatrix, filters: dict
) -> SamplePlan:
    """Load the pinned plan when present, otherwise draw one and pin it."""
    if args.plan is not None and Path(args.plan).exists():
        plan = SamplePlan.load(args.plan)
        print(f"loaded sample plan from {args.plan}: {plan.summary()}")
        return plan
    if args.importance_from is not None:
        prior = Path(args.importance_from)
        if not prior.exists():
            raise FileNotFoundError(f"--importance-from report {prior} does not exist")
        plan = importance_sample(
            matrix,
            budget=args.sample,
            prior=prior,
            seed=args.sample_seed,
            quick=args.quick,
            **filters,
        )
    else:
        strata = tuple(axis.strip() for axis in args.strata.split(",") if axis.strip())
        plan = stratified_sample(
            matrix, budget=args.sample, seed=args.sample_seed, strata=strata, **filters
        )
    print(plan.summary())
    if args.plan is not None:
        plan.save(args.plan)
        print(f"sample plan pinned to {args.plan}")
    return plan


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.families:
        print(_list_families())
        return 0
    if args.properties:
        print(_list_properties())
        return 0
    if args.min_replayed is not None and args.store is None:
        parser.error("--min-replayed requires --store")
    if args.importance_from is not None and args.sample is None:
        parser.error("--importance-from requires --sample BUDGET")
    if args.sample is not None and not args.run:
        parser.error("--sample only applies to --run")
    matrix = WorkloadMatrix(
        seed=args.seed,
        size_scales=args.size_scale or (1,),
        sample_counts=args.sample_count or (3,),
        replicas=args.replicas,
    )
    filters = dict(
        families=args.family,
        properties=args.property_filter,
        regimes=args.regime,
        constructions=args.construction,
        kinds=args.kind,
        exclude_families=args.exclude_family,
    )
    named = dict(filters, names=args.cells or None)
    try:
        total = matrix.count_cells(**named)
    except KeyError as exc:
        parser.error(str(exc))
    shown = total if args.max_cells is None else min(total, args.max_cells)
    if args.list and args.count_only:
        print(shown)
        return 0
    if args.list or args.expand:
        cell_stream = matrix.iter_cells(**named)
        if args.max_cells is not None:
            cell_stream = itertools.islice(cell_stream, args.max_cells)
        if args.list:
            rows = [cell.as_row() for cell in cell_stream]
            print(
                format_table(
                    ["cell", "kind", "family", "property", "construction", "regime", "sizes"],
                    rows,
                    title=f"workload matrix: {len(rows)} expanded scenario cells (seed {args.seed})",
                )
            )
            return 0
        if args.ndjson:
            for line in expand_ndjson(cell_stream):
                print(line)
            return 0
        print(expand_json(cell_stream), end="")
        return 0
    if not args.run:
        parser.error("nothing to do: pass --list, --expand, --families, --properties or --run")
    if total == 0:
        parser.error("the filters admit no cells; see --list")
    specs: Iterator[ScenarioSpec]
    expected = shown
    if args.sample is not None:
        try:
            plan = _resolve_plan(args, matrix, filters)
        except (FileNotFoundError, ValueError) as exc:
            parser.error(str(exc))
        specs = plan.iter_specs(matrix)
        expected = len(plan.selected)
    else:
        specs = matrix.iter_scenarios(**named)
    if args.max_cells is not None:
        specs = itertools.islice(specs, args.max_cells)
        expected = min(expected, args.max_cells)
    if args.resume is not None and not Path(args.resume).exists():
        parser.error(f"--resume report {args.resume} does not exist")
    if args.trace is not None:
        trace.enable(args.trace)
    try:
        if args.resume is not None:
            resume_path = Path(args.resume)
            report, reused = resume_campaign(
                resume_path,
                scenarios=specs,
                engine=args.engine,
                quick=True if args.quick else None,
                store=args.store,
                log_path=args.log,
            )
            print(
                f"resumed from {resume_path}: {reused} cell(s) reused, {expected - reused} re-run"
            )
        else:
            report = run_campaign(
                specs,
                engine=args.engine,
                quick=args.quick,
                name=f"workload-matrix(seed={args.seed})",
                store=args.store,
                log_path=args.log,
            )
        print(report.summary_table())
        if not args.no_report:
            default = Path(args.resume) if args.resume is not None else DEFAULT_MATRIX_REPORT
            path = write_report(report, args.output if args.output is not None else default)
            print(f"report written to {path}")
        ok = report.ok
        if args.min_replayed is not None:
            replayed, total_jobs, fraction, resumed = replay_summary(report)
            print(
                f"store replay: {replayed}/{total_jobs} jobs "
                f"({fraction:.1%}, floor {args.min_replayed:.1%}"
                + (f"; {resumed} resumed cell(s) excluded)" if resumed else ")")
            )
            if fraction < args.min_replayed:
                print(
                    f"FAIL: only {fraction:.1%} of jobs replayed from the store "
                    f"(floor {args.min_replayed:.1%})"
                )
                ok = False
        print(f"workload matrix {'OK' if ok else 'FAILED'}")
        return 0 if ok else 1
    finally:
        if args.trace is not None:
            trace.disable()
            print(f"trace written to {args.trace}")


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
