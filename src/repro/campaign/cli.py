"""``python -m repro.campaign`` — run experiment campaigns from the command line.

Examples
--------

List the bundled scenarios::

    PYTHONPATH=src python -m repro.campaign --list

Run the whole bundle on the caching backend and write the JSON report::

    PYTHONPATH=src python -m repro.campaign

Run two scenarios quickly on their declared backends::

    PYTHONPATH=src python -m repro.campaign classic-cycles-vs-paths \\
        sec2-promise-cycles --quick \\
        --output benchmarks/BENCH_campaign_smoke.json

Sweep against a persistent verdict store — the second invocation replays
settled jobs from disk instead of recomputing them::

    PYTHONPATH=src python -m repro.campaign --quick --store /tmp/verdicts
    PYTHONPATH=src python -m repro.campaign --quick --store /tmp/verdicts \\
        --min-replayed 0.9

Resume an interrupted or partially stale campaign — only scenarios whose
spec digest or verdict is missing/stale are re-run, and the merged report
is written back::

    PYTHONPATH=src python -m repro.campaign \\
        --resume benchmarks/BENCH_campaign.json --store /tmp/verdicts

The process exits non-zero when any scenario misbehaves (a decider that
should verify does not, or an expected failure fails to appear), so CI can
gate on campaign runs directly.  ``--min-replayed`` additionally gates on
the fraction of jobs replayed from the store.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from ..analysis.reporting import format_table
from ..obs import trace
from .runner import (
    DEFAULT_REPORT_PATH,
    replay_summary,
    resume_campaign,
    run_campaign,
    write_report,
)
from .scenarios import all_scenarios, scenario_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run verification/estimation campaigns over the paper's scenarios.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"scenario names to run (default: all). Known: {', '.join(scenario_names())}",
    )
    parser.add_argument("--list", action="store_true", help="list addressable scenarios and exit")
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="register the workload matrix's expanded cells next to the bundled "
        "scenarios (they then run, list and resume by name like any other scenario)",
    )
    parser.add_argument(
        "--matrix-seed",
        type=int,
        default=0,
        metavar="N",
        help="matrix seed used with --workloads (default: 0)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["direct", "synchronous", "cached"],
        help="execution backend override (default: each scenario's declared backend)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller size ladders and fewer Monte-Carlo trials"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override every scenario's sampling/search seed (default: each "
        "spec's declared seed); the seed participates in spec digests, so "
        "--resume never reuses results recorded under a different seed",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="force the full ladders; with --resume this overrides the "
        "resumed report's recorded quick mode (which is otherwise inherited)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent verdict store directory: settled jobs are replayed "
        "from disk across runs instead of recomputed",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="REPORT",
        help="merge into an existing campaign report, re-running only the "
        "scenarios whose spec digest or verdict is missing/stale "
        "(the merged report is written back to REPORT unless --output is given)",
    )
    parser.add_argument(
        "--min-replayed",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail unless at least this fraction of jobs was replayed from "
        "the store (requires --store); used by CI to prove warm sweeps",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=f"where to write the JSON report (default: {DEFAULT_REPORT_PATH})",
    )
    parser.add_argument(
        "--no-report", action="store_true", help="skip writing the JSON report file"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured JSONL span trace of the whole campaign to "
        "PATH (inspect it with `python -m repro.obs report PATH`)",
    )
    return parser


def _list_scenarios() -> str:
    rows = [spec.as_row() for spec in all_scenarios()]
    return format_table(
        ["name", "section", "kind", "engine", "sizes", "title"],
        rows,
        title=f"addressable campaign scenarios ({len(rows)})",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workloads:
        from ..workloads import install_matrix

        install_matrix(seed=args.matrix_seed)
    if args.list:
        print(_list_scenarios())
        return 0
    names: List[str] = args.scenarios or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; see --list")
    if args.min_replayed is not None and args.store is None:
        parser.error("--min-replayed requires --store")
    if args.quick and args.full:
        parser.error("--quick and --full are mutually exclusive")
    if args.resume is not None and not Path(args.resume).exists():
        parser.error(f"--resume report {args.resume} does not exist")
    if args.trace is not None:
        trace.enable(args.trace)
    try:
        if args.resume is not None:
            resume_path = Path(args.resume)
            # quick: explicit flags win; otherwise inherit the report's mode so
            # the merged report stays comparable with itself.
            quick = True if args.quick else (False if args.full else None)
            report, reused = resume_campaign(
                resume_path,
                scenarios=names,
                engine=args.engine,
                quick=quick,
                store=args.store,
                seed=args.seed,
            )
            print(f"resumed from {resume_path}: {reused} scenario(s) reused, "
                  f"{len(names) - reused} re-run")
        else:
            report = run_campaign(
                names,
                engine=args.engine,
                quick=args.quick,
                store=args.store,
                seed=args.seed,
            )
        print(report.summary_table())
        for result in report.results:
            first = result.details.get("first_counterexample")
            if first:
                print(
                    f"  {result.name}: first counter-example {first['kind']} on "
                    f"n={first['num_nodes']} under assignment {first['assignment']}"
                )
        if not args.no_report:
            default = Path(args.resume) if args.resume is not None else None
            path = write_report(report, args.output if args.output is not None else default)
            print(f"report written to {path}")
        ok = report.ok
        if args.min_replayed is not None:
            replayed, total, fraction, resumed = replay_summary(report)
            print(
                f"store replay: {replayed}/{total} jobs "
                f"({fraction:.1%}, floor {args.min_replayed:.1%}"
                + (f"; {resumed} resumed scenario(s) excluded)" if resumed else ")")
            )
            if fraction < args.min_replayed:
                print(
                    f"FAIL: only {fraction:.1%} of jobs replayed from the store "
                    f"(floor {args.min_replayed:.1%})"
                )
                ok = False
        print(f"campaign {'OK' if ok else 'FAILED'}")
        return 0 if ok else 1
    finally:
        if args.trace is not None:
            trace.disable()
            print(f"trace written to {args.trace}")


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
