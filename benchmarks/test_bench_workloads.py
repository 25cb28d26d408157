"""Quick-matrix sweep throughput on the serial caching backend.

Expands the full default workload matrix and runs every cell in quick mode
on ``CachedEngine`` (a fresh engine per cell), asserting that every cell
behaves as declared.  The headline ``cells_per_second_serial`` is gated by
CI through the consolidated ``check_regression.py --gate`` invocation.
"""

import time

from repro.campaign.runner import run_campaign
from repro.workloads import default_matrix

_MATRIX_SEED = 0


def test_bench_workloads_cell_throughput(write_bench_record):
    specs = default_matrix(seed=_MATRIX_SEED).scenarios()
    start = time.perf_counter()
    serial = run_campaign(specs, engine="cached", quick=True, name="bench-workloads(cached)")
    t_serial = time.perf_counter() - start

    assert serial.ok, "serial quick matrix sweep misbehaved"
    cells = len(serial.results)
    assert cells >= 40, f"matrix expanded only {cells} cells"

    cps_serial = cells / t_serial if t_serial > 0 else float("inf")
    payload = {
        "workload": "quick workload-matrix sweep (all cells)",
        "matrix_seed": _MATRIX_SEED,
        "cells": cells,
        "kinds": {
            "verify": sum(1 for r in serial.results if r.kind == "verify"),
            "search": sum(1 for r in serial.results if r.kind == "search"),
        },
        "seconds": {"serial": round(t_serial, 6)},
        "cells_per_second_serial": round(cps_serial, 3),
        "recorded_at_unix": int(time.time()),
    }
    write_bench_record("BENCH_workloads.json", payload)

    # The in-test floor mirrors the CI gate: quick cells are tiny, so even a
    # slow shared runner clears single-digit cells/s by a wide margin.
    assert cps_serial >= 2.0, f"serial quick sweep slowed to {cps_serial:.2f} cells/s"
