"""Experiment campaigns: declarative scenario sweeps over the paper's constructions.

The campaign subsystem turns the reproduction's validation workloads into a
declarative grid — graph family x size ladder x property x decider class x
execution engine — and runs whole grids in one go:

* :mod:`repro.campaign.spec` — :class:`ScenarioSpec` (the declarative
  cell), :class:`ScenarioWorkload`, :class:`ScenarioResult` and
  :class:`CampaignReport`;
* :mod:`repro.campaign.scenarios` — the bundled scenarios drawn from the
  paper's Sections 2-3 (promise cycles, layered-tree property P, the
  structure verifier, the halting promise, a defeated Id-oblivious
  candidate, Corollary 1's randomised decider), the classic properties
  (colouring, matching, MIS, cycles-vs-paths), and the adversarial
  ``search`` hunts over the :mod:`repro.adversary` trap candidates;
* :mod:`repro.campaign.runner` — executes specs on any execution engine and
  collects verdicts / timings / engine statistics into JSON reports under
  ``benchmarks/``; with a persistent verdict store
  (:class:`~repro.engine.persistent.VerdictStore`) attached, settled jobs
  replay from disk across runs, and :func:`resume_campaign` merges into an
  existing report re-running only missing/stale scenarios;
* :mod:`repro.campaign.cli` — the ``python -m repro.campaign`` command
  (``--store``, ``--resume``, ``--min-replayed``).
"""

from .runner import (
    DEFAULT_REPORT_PATH,
    load_result_log,
    replay_summary,
    resume_campaign,
    run_campaign,
    run_scenario,
    write_report,
)
from .scenarios import bundled_scenarios, get_scenario, scenario_names
from .spec import CampaignReport, ScenarioResult, ScenarioSpec, ScenarioWorkload

__all__ = [
    "DEFAULT_REPORT_PATH",
    "load_result_log",
    "replay_summary",
    "resume_campaign",
    "run_campaign",
    "run_scenario",
    "write_report",
    "bundled_scenarios",
    "get_scenario",
    "scenario_names",
    "CampaignReport",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioWorkload",
]
