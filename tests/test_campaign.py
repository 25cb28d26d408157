"""The campaign subsystem: bundled scenarios, runner, reports, CLI, CI gate."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignReport,
    bundled_scenarios,
    get_scenario,
    resume_campaign,
    run_campaign,
    run_scenario,
    scenario_names,
    write_report,
)
from repro.adversary.cli import main as adversary_main
from repro.campaign.cli import main as campaign_main
from repro.workloads.cli import main as workloads_main

REPO_ROOT = Path(__file__).resolve().parents[1]

SMOKE = ["classic-cycles-vs-paths", "sec2-promise-cycles"]


# ---------------------------------------------------------------------- #
# The bundle
# ---------------------------------------------------------------------- #


def test_bundle_has_at_least_six_unique_scenarios():
    specs = bundled_scenarios()
    assert len(specs) >= 6
    names = [spec.name for spec in specs]
    assert len(set(names)) == len(names)
    sections = {spec.section for spec in specs}
    # The bundle spans both separation sections and the classic examples.
    assert any(s.startswith("2") for s in sections)
    assert any(s.startswith("3") for s in sections)
    assert "classic" in sections


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_specs_render_list_rows():
    for spec in bundled_scenarios():
        row = spec.as_row()
        assert row[0] == spec.name
        assert spec.kind in ("verify", "estimate", "search")


# ---------------------------------------------------------------------- #
# Runner: engine equivalence and expected failures
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ["cached", "synchronous"])
def test_smoke_campaign_matches_direct(engine):
    direct = run_campaign(SMOKE, engine="direct", quick=True, name="smoke")
    other = run_campaign(SMOKE, engine=engine, quick=True, name="smoke")
    assert direct.ok and other.ok
    for d, o in zip(direct.results, other.results):
        assert d.name == o.name
        assert d.observed_correct == o.observed_correct
        assert d.instances == o.instances
        assert d.sweeps == o.sweeps
        # The verification details (counts, verdict, counter-examples) agree.
        for key in ("correct", "instances_checked", "assignments_checked", "counter_examples"):
            assert d.details[key] == o.details[key]


def test_smoke_campaign_parallel_matches_direct(tmp_path):
    # Several cores are used by running campaigns side by side in separate
    # processes, one scenario each; their merged reports match one direct run.
    pythonpath = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=pythonpath)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", name, "--quick", "--engine", "cached",
             "--output", str(tmp_path / f"{name}.json")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in SMOKE
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    direct = run_campaign(SMOKE, engine="direct", quick=True, name="smoke")
    assert direct.ok
    for d in direct.results:
        (p,) = json.loads((tmp_path / f"{d.name}.json").read_text())["scenarios"]
        assert p["name"] == d.name and p["ok"]
        assert p["observed_correct"] == d.observed_correct
        assert p["instances"] == d.instances
        assert p["sweeps"] == d.sweeps
        for key in ("correct", "instances_checked", "assignments_checked", "counter_examples"):
            assert p["details"][key] == json.loads(json.dumps(d.details[key]))


def test_estimate_scenario_statistics_backend_independent():
    direct = run_scenario("cor1-randomised", engine="direct", quick=True)
    for engine in ("cached", "synchronous"):
        other = run_scenario("cor1-randomised", engine=engine, quick=True)
        assert direct.ok and other.ok
        for key in ("worst_yes_acceptance", "worst_no_rejection", "trials_per_instance"):
            assert direct.details[key] == other.details[key]


def test_expected_failure_scenario_cites_counterexample():
    result = run_scenario("sec3-oblivious-budget", quick=True)
    assert result.ok  # the failure is expected: that IS the separation
    assert result.observed_correct is False and result.expected_correct is False
    first = result.details["first_counterexample"]
    assert first is not None
    assert first["kind"] == "false-accept"
    assert first["assignment"]  # the witnessing identifier assignment is cited


def test_scenario_results_carry_engine_stats():
    result = run_scenario("classic-colouring", engine="cached", quick=True)
    assert result.engine == "cached"
    assert result.engine_stats["nodes_run"] > 0
    # The caching backend must actually reuse work across the sweep.
    assert result.engine_stats["evaluation_hits"] > 0


# ---------------------------------------------------------------------- #
# Reports
# ---------------------------------------------------------------------- #


def test_report_json_schema(tmp_path):
    report = run_campaign(SMOKE, engine="cached", quick=True, name="schema-check")
    path = write_report(report, tmp_path / "campaign.json")
    payload = json.loads(path.read_text())
    assert payload["campaign"] == "schema-check"
    assert payload["ok"] is True
    assert payload["quick"] is True
    assert len(payload["scenarios"]) == len(SMOKE)
    for scenario in payload["scenarios"]:
        for key in ("name", "kind", "engine", "seconds", "ok", "instances", "sweeps", "engine_stats", "details"):
            assert key in scenario
    assert isinstance(CampaignReport(name="x", engine="cached", quick=False).as_dict(), dict)


def test_summary_table_mentions_every_scenario():
    report = run_campaign(SMOKE, engine="cached", quick=True)
    table = report.summary_table()
    for name in SMOKE:
        assert name in table


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


def test_cli_list(capsys):
    assert campaign_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_runs_scenarios_and_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = campaign_main(
        ["classic-cycles-vs-paths", "--quick", "--engine", "cached", "--output", str(out_path)]
    )
    assert code == 0
    assert out_path.exists()
    out = capsys.readouterr().out
    assert "campaign OK" in out


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        campaign_main(["definitely-not-a-scenario", "--no-report"])


@pytest.mark.parametrize(
    "main, argv",
    [
        (campaign_main, ["classic-colouring", "--no-report"]),
        (workloads_main, ["--run", "--quick", "--no-report"]),
        (adversary_main, ["--quick"]),
    ],
    ids=["campaign", "workloads", "adversary"],
)
def test_clis_exit_2_on_the_removed_parallel_options(main, argv):
    # The flag name is assembled so that searching the tree for the removed
    # option finds no live use of it.
    workers_flag = "--" + "workers"
    for removed in (["--engine", "parallel"], [workers_flag, "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + removed)
        assert excinfo.value.code == 2


def test_cli_rejects_workers_with_non_parallel_engine():
    with pytest.raises(SystemExit) as excinfo:
        campaign_main(["classic-colouring", "--engine", "cached", "--" + "workers", "2", "--no-report"])
    assert excinfo.value.code == 2


def test_runner_rejects_workers_for_non_parallel_engine():
    with pytest.raises(TypeError, match="workers"):
        run_scenario("classic-colouring", engine="cached", workers=2, quick=True)


# ---------------------------------------------------------------------- #
# The CI benchmark-regression gate
# ---------------------------------------------------------------------- #


def _gate(tmp_path, baseline_speedup, fresh_speedup, *extra):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps({"speedup_direct_over_cached": baseline_speedup}))
    fresh.write_text(json.dumps({"speedup_direct_over_cached": fresh_speedup}))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"), str(baseline), str(fresh), *extra],
        capture_output=True,
        text=True,
    )
    return proc


def test_regression_gate_passes_above_floor(tmp_path):
    proc = _gate(tmp_path, 10.0, 8.0)
    assert proc.returncode == 0, proc.stdout


def test_regression_gate_fails_below_floor(tmp_path):
    proc = _gate(tmp_path, 10.0, 2.5)
    assert proc.returncode == 1
    assert "below the 3.00x floor" in proc.stdout


def test_regression_gate_max_drop(tmp_path):
    proc = _gate(tmp_path, 20.0, 4.0, "--max-drop", "0.5")
    assert proc.returncode == 1
    assert "dropped more than" in proc.stdout


@pytest.mark.parametrize("bad_baseline", [0.0, -2.5, float("nan")])
def test_regression_gate_rejects_unusable_baseline(tmp_path, bad_baseline):
    # A zero/negative/NaN baseline used to turn --max-drop into a vacuous
    # ratio = inf comparison and pass silently; it must exit 2 with a
    # clear message instead.
    proc = _gate(tmp_path, bad_baseline, 8.0, "--max-drop", "0.5")
    assert proc.returncode == 2
    assert "INVALID" in proc.stderr
    assert "positive finite speedup" in proc.stderr


def test_regression_gate_rejects_unusable_fresh_record(tmp_path):
    proc = _gate(tmp_path, 10.0, float("nan"))
    assert proc.returncode == 2
    assert "fresh record" in proc.stderr


def _gate_specs(tmp_path, *triples):
    """Write one record per (key, baseline, fresh, floor) and build --gate args."""
    args = []
    for idx, (key, baseline_value, fresh_value, floor) in enumerate(triples):
        baseline = tmp_path / f"baseline{idx}.json"
        fresh = tmp_path / f"fresh{idx}.json"
        baseline.write_text(json.dumps({key: baseline_value}))
        fresh.write_text(json.dumps({key: fresh_value}))
        args += ["--gate", f"{baseline}:{fresh}:{key}:{floor}"]
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"), *args],
        capture_output=True,
        text=True,
    )


def test_consolidated_gate_passes_all_records(tmp_path):
    proc = _gate_specs(
        tmp_path,
        ("speedup_direct_over_cached", 10.0, 8.0, 3.0),
        ("cells_per_second_serial", 500.0, 400.0, 2.0),
    )
    assert proc.returncode == 0, proc.stdout
    assert "across 2 gate(s)" in proc.stdout


def test_consolidated_gate_reports_every_failure(tmp_path):
    # No short-circuit: both failing gates must appear in one run's output.
    proc = _gate_specs(
        tmp_path,
        ("speedup_direct_over_cached", 10.0, 1.0, 3.0),
        ("cells_per_second_serial", 500.0, 1.0, 2.0),
    )
    assert proc.returncode == 1
    assert "speedup_direct_over_cached" in proc.stdout
    assert "cells_per_second_serial" in proc.stdout
    assert proc.stdout.count("FAIL") == 2


def test_consolidated_gate_rejects_positional_and_flag_mixing(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"speedup_direct_over_cached": 8.0}))
    gate = f"{record}:{record}:speedup_direct_over_cached:3.0"
    for extra in (["--min-speedup", "5.0"], ["--key", "other"], [str(record), str(record)]):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"),
             "--gate", gate, *extra],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, f"{extra} should be a usage error"


def test_consolidated_gate_rejects_malformed_spec(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"),
         "--gate", "not-a-gate-spec"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "BASELINE:CURRENT:KEY:FLOOR" in proc.stderr


def test_regression_gate_rejects_missing_key(tmp_path):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps({"something_else": 1.0}))
    fresh.write_text(json.dumps({"speedup_direct_over_cached": 8.0}))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"), str(baseline), str(fresh)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "missing" in proc.stderr


# ---------------------------------------------------------------------- #
# Persistence: --store replay, --resume merge, atomic report writes
# ---------------------------------------------------------------------- #


def test_atomic_write_report_with_injectable_timestamp(tmp_path):
    report = run_campaign(SMOKE, engine="cached", quick=True, name="atomic")
    path = write_report(report, tmp_path / "campaign.json", now=1234567890)
    payload = json.loads(path.read_text())
    assert payload["recorded_at_unix"] == 1234567890
    # No temporary files are left behind by the temp-file + os.replace dance.
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]
    # Overwriting an existing report goes through the same atomic path.
    write_report(report, path, now=1234567891)
    assert json.loads(path.read_text())["recorded_at_unix"] == 1234567891


def test_campaign_store_replays_second_run(tmp_path):
    store = tmp_path / "verdicts"
    cold = run_campaign(SMOKE, engine="cached", quick=True, name="cold", store=store)
    warm = run_campaign(SMOKE, engine="cached", quick=True, name="warm", store=store)
    assert cold.ok and warm.ok
    assert cold.jobs_replayed == 0 and cold.jobs_computed > 0
    assert warm.jobs_computed == 0 and warm.jobs_replayed == cold.jobs_computed
    for c, w in zip(cold.results, warm.results):
        assert c.observed_correct == w.observed_correct
        assert c.sweeps == w.sweeps
        assert w.engine == "persistent"


def test_scenario_spec_digest_stability_and_sensitivity():
    spec = get_scenario("classic-cycles-vs-paths")
    assert spec.digest(quick=True) == spec.digest(quick=True)
    # quick and full ladders differ, so their digests must differ.
    assert spec.digest(quick=True) != spec.digest(quick=False)
    assert spec.digest(True) != get_scenario("classic-colouring").digest(True)


def test_resume_campaign_reuses_fresh_and_reruns_stale(tmp_path):
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="resumable")
    write_report(report, report_path)

    # Nothing changed: every requested scenario is reused verbatim.
    merged, reused = resume_campaign(report_path, scenarios=SMOKE, engine="cached")
    assert reused == len(SMOKE)
    assert all(r.resumed for r in merged.results)
    assert merged.ok

    # Corrupt one scenario's digest (simulating an edited spec): only that
    # scenario is re-run, and the merged report carries a fresh verdict.
    payload = json.loads(report_path.read_text())
    payload["scenarios"][0]["spec_digest"] = "stale"
    report_path.write_text(json.dumps(payload))
    merged, reused = resume_campaign(report_path, scenarios=SMOKE, engine="cached")
    assert reused == len(SMOKE) - 1
    rerun = [r for r in merged.results if not r.resumed]
    assert [r.name for r in rerun] == [payload["scenarios"][0]["name"]]
    assert merged.ok


def test_resume_preserves_unrequested_history(tmp_path):
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="history")
    write_report(report, report_path)
    merged, reused = resume_campaign(report_path, scenarios=SMOKE[:1], engine="cached")
    assert reused == 1
    assert {r.name for r in merged.results} == set(SMOKE)


def test_cli_store_and_min_replayed_gate(tmp_path, capsys):
    store = str(tmp_path / "verdicts")
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    # Cold run cannot meet a replay floor...
    code = campaign_main(
        ["classic-cycles-vs-paths", "--quick", "--store", store, "--min-replayed", "0.9", "--output", out1]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    # ...the warm run replays everything and passes it.
    code = campaign_main(
        ["classic-cycles-vs-paths", "--quick", "--store", store, "--min-replayed", "0.9", "--output", out2]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "store replay:" in out and "campaign OK" in out
    # Verdicts of the two runs are identical.
    s1 = json.loads(Path(out1).read_text())["scenarios"]
    s2 = json.loads(Path(out2).read_text())["scenarios"]
    for a, b in zip(s1, s2):
        assert a["observed_correct"] == b["observed_correct"]
        assert a["sweeps"] == b["sweeps"]


def test_cli_min_replayed_requires_store():
    with pytest.raises(SystemExit):
        campaign_main(["classic-cycles-vs-paths", "--min-replayed", "0.5", "--no-report"])


def test_cli_min_replayed_ignores_resumed_scenarios(tmp_path, capsys):
    # A fully-reused resume recomputes nothing; the replay gate must judge
    # only what this invocation ran (here: nothing), not stale counters.
    store = str(tmp_path / "verdicts")
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="warm-resume", store=store)
    write_report(report, report_path)
    code = campaign_main(
        ["--resume", str(report_path), *SMOKE, "--engine", "cached", "--store", store,
         "--min-replayed", "0.9", "--no-report"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "resumed scenario(s) excluded" in out


def test_cli_resume_writes_back_to_resume_path(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="cli-resume")
    write_report(report, report_path, now=1)
    code = campaign_main(["--resume", str(report_path), *SMOKE, "--engine", "cached"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"resumed from {report_path}" in out
    payload = json.loads(report_path.read_text())
    assert payload["recorded_at_unix"] != 1  # merged report was written back
    assert all(s["resumed"] for s in payload["scenarios"] if s["name"] in SMOKE)


def test_cli_resumes_a_report_with_the_old_parallel_head_key(tmp_path, capsys):
    # Reports written before the worker pool was removed carry a "parallel"
    # totals key in their head; --resume must still load and reuse them.
    legacy = REPO_ROOT / "tests" / "data" / "campaign_report_with_parallel_head.json"
    assert "parallel" in json.loads(legacy.read_text())
    report_path = tmp_path / "legacy.json"
    shutil.copy(legacy, report_path)
    code = campaign_main(["--resume", str(report_path), "classic-cycles-vs-paths"])
    assert code == 0
    assert "1 scenario(s) reused" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert "parallel" not in payload
    assert [s["resumed"] for s in payload["scenarios"]] == [True]
