"""Shared fixtures and parameters for the benchmark harness.

Every benchmark regenerates one of the paper's artefacts (the Section-1.1
classification table, Figures 1-3, the promise problems, Theorems 1-2,
Corollary 1) at laptop scale and asserts the qualitative outcome the paper
reports; the measured timings are reported by pytest-benchmark.

Benchmarks that produce a machine-readable record write it through the
``write_bench_record`` fixture into the gitignored ``benchmarks/out/``;
the committed ``benchmarks/BENCH_*.json`` files are baselines that a test
run never overwrites (see ``docs/BENCHMARKS.md`` for how to refresh one).
"""

import json
from pathlib import Path

import pytest

from repro.turing import halting_machine


@pytest.fixture(scope="session")
def machine_outputs_zero():
    """The smallest library machine in L0 (halts with output 0)."""
    return halting_machine("0", delay=0)


@pytest.fixture(scope="session")
def machine_outputs_one():
    """The smallest library machine in L1 (halts with output 1)."""
    return halting_machine("1", delay=0)


#: Where fresh benchmark records are written (gitignored).
BENCH_OUT = Path(__file__).resolve().parent / "out"


@pytest.fixture
def write_bench_record():
    """Return ``write(name, payload)``, which saves a record as ``benchmarks/out/<name>``."""

    def write(name, payload):
        BENCH_OUT.mkdir(exist_ok=True)
        path = BENCH_OUT / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return write
