"""Expand the workload matrix, inspect its axes, and run a cross-section.

The matrix crosses graph families x properties x decider constructions x
identifier regimes into campaign scenario cells — no hand-written builder
per cell.  This example expands the default matrix, prints how the cells
distribute over the axes, then runs a small cross-section (one structured
family, one degenerate family, one adversarial trap) on each cell's
declared engine and shows the trap's shrunk counter-example.

Run with:  PYTHONPATH=src python examples/workload_matrix.py
"""

from collections import Counter

from repro.campaign.runner import run_campaign
from repro.workloads import default_matrix

MATRIX_SEED = 0


def main() -> None:
    matrix = default_matrix(seed=MATRIX_SEED)
    cells = matrix.cells()
    print(f"default matrix: {len(cells)} expanded scenario cells")
    for axis_name, key in [
        ("families", lambda c: c.family.name),
        ("properties", lambda c: c.axis.name),
        ("regimes", lambda c: c.regime.name),
        ("constructions", lambda c: c.construction.name),
    ]:
        counts = Counter(key(cell) for cell in cells)
        rendered = ", ".join(f"{name} x{n}" for name, n in sorted(counts.items()))
        print(f"  {axis_name:13s} {rendered}")
    print()

    # A cross-section: every regime on a structured and a degenerate family,
    # plus the lazy-guard colouring trap hunted on hypercubes.
    specs = matrix.scenarios(families=["hypercube", "single-edge"], properties=["colouring"])
    report = run_campaign(specs, quick=True, name="example-matrix-slice")
    print(report.summary_table())
    print()
    for result in report.results:
        minimal = result.details.get("minimal")
        if minimal:
            counter = minimal["counterexample"]
            print(
                f"{result.name}: the trap's defeat shrinks to n={counter['num_nodes']} "
                f"under assignment {counter['assignment']} "
                f"({minimal['checks']} shrink probes)"
            )
    print()
    print(f"matrix slice {'OK' if report.ok else 'FAILED'} "
          f"(every cell behaved as the matrix predicts)")


if __name__ == "__main__":
    main()
