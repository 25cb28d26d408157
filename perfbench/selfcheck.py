"""Check the benchmark itself: tracing leaves verdicts alone and agrees with the profile.

Run from the root of a checkout (about a minute and a half on two cores)::

    python3 perfbench/selfcheck.py

For every workload it makes one traced run (``--trace 1``), which runs the
workload untraced and traced and fails if any pass's verdict digest
differs between the two.  It then reads the run's trace summary and checks
that the layer with the largest self time is the one cProfile found when
the benchmark was written: ``engine.view_key`` on ``matrix``,
``graphs.induced_subgraph`` in the Cor. 1 part of ``paper`` and
``turing.run`` in its Sec. 3 part.  A change that removes one of these hot
spots is expected to change the findings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

SEED = 0

#: The cProfile findings, as the largest self time per workload and phase.
PROFILE_FINDINGS = {
    "matrix": {"pass": "engine.view_key"},
    "paper": {"cor1": "graphs.induced_subgraph", "sec3": "turing.run"},
}


def main() -> int:
    problems = []
    for workload in sorted(run.bench_workloads.WORKLOADS):
        command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if completed.returncode != 0:
            problems.append(f"{workload}: traced run failed:\n{completed.stderr}")
            continue
        with open(os.path.join(run.OUT_DIR, f"trace-{workload}-seed{SEED}.jsonl")) as handle:
            summary = json.loads(handle.readline())["summary"]
        found = summary["largest_self_time"]
        for phase, expected in PROFILE_FINDINGS.get(workload, {}).items():
            if found.get(phase) != expected:
                problems.append(f"{workload}/{phase}: largest self time is {found.get(phase)}, profile says {expected}")
        print(f"{workload}: verdicts unchanged by tracing; largest self time {found}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
