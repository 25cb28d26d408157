"""Rewrite ``reference.json``: the verdict digest of every pass input for seeds 0 and 1.

Run from the root of a checkout, only when a change to the benchmark's
inputs is intended::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import run  # noqa: F401  (puts the program on sys.path)
from bench_workloads import WORKLOADS, make_workload
from refclock import RefClock

SEEDS = (0, 1)


def main() -> None:
    reference = {}
    for name, cls in WORKLOADS.items():
        reference[name] = {}
        for seed in SEEDS:
            workload = make_workload(name, seed, run.OUT_DIR)
            clock = RefClock(interval=None)
            state = workload.setup(clock)
            try:
                passes = [workload.run_pass(state, index, clock) for index in range(cls.inputs)]
            finally:
                workload.teardown(state)
            failed = [c.name for p in passes for c in p.checks if not c.ok]
            if failed:
                raise SystemExit(f"{name} seed {seed}: verdicts differ from expectation: {failed}")
            reference[name][str(seed)] = [p.digest() for p in passes]
            print(name, seed, reference[name][str(seed)][0][:16], flush=True)
    with open(run.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
