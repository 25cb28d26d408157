"""Drive a two-scenario campaign end-to-end and print the report summary.

The sweep pairs an LD* membership proof (cycles against paths) with an
expected-failure scenario (the fixed-budget Id-oblivious candidate of
Section 3 being defeated, counter-example assignment included), and runs
each on the engine its scenario declares.

Run with:  PYTHONPATH=src python examples/campaign_sweep.py
"""

from repro.campaign import run_campaign

SCENARIOS = ["classic-cycles-vs-paths", "sec3-oblivious-budget"]


def main() -> None:
    report = run_campaign(SCENARIOS, quick=True, name="example-sweep")
    print(report.summary_table())
    print()
    for result in report.results:
        first = result.details.get("first_counterexample")
        if first:
            print(
                f"{result.name}: the paper's impossibility shows up as a {first['kind']} "
                f"on an n={first['num_nodes']} instance under the identifier assignment:"
            )
            print(f"  {first['assignment']}")
    print()
    print(f"campaign {'OK' if report.ok else 'FAILED'} "
          f"(every scenario behaved as the paper predicts)")


if __name__ == "__main__":
    main()
