"""Declarative workload matrix: families x properties x deciders x id regimes.

The campaign bundle (:mod:`repro.campaign.scenarios`) enumerates
hand-written scenario builders; this subpackage replaces "one builder per
cell" with a declarative cross of four axes:

* **graph families** (:mod:`.families`) — the paper's cycles, paths, grids
  and tori plus seedable hypercubes, random regular graphs, caterpillars,
  disjoint unions and degenerate single-node/single-edge cases;
* **properties** (:mod:`.axes`) — colouring, MIS, matching, path languages
  and hereditary closures, each knowing how to decorate a bare topology
  into yes/no instances;
* **decider constructions** — the property's honest decider and the
  identifier-dependent trap candidates from :mod:`repro.adversary`;
* **identifier regimes** — 1-based promise-style assignments, the bounded
  model (B), and adversarial hunts routed through
  :func:`~repro.adversary.search.find_counterexample`.

:class:`~repro.workloads.matrix.WorkloadMatrix` expands the cross into
:class:`~repro.campaign.spec.ScenarioSpec` cells with deterministic
per-cell digests; they run through the ordinary campaign runner (so a
VerdictStore replays them) and can be
registered next to the bundled scenarios via :func:`install_matrix`.
``python -m repro.workloads`` is the command-line front end.
"""

from .axes import (
    DeciderConstruction,
    IdRegime,
    PropertyAxis,
    bundled_properties,
    bundled_regimes,
    get_property_axis,
    get_regime,
    property_names,
    regime_names,
)
from .families import (
    WorkloadFamily,
    bundled_families,
    family_names,
    get_family,
)
from .matrix import (
    WorkloadCell,
    WorkloadMatrix,
    cell_seed,
    default_matrix,
    expand_json,
    expand_ndjson,
    expand_records,
)
from .sampling import (
    SamplePlan,
    importance_sample,
    stratified_sample,
)

__all__ = [
    "DeciderConstruction",
    "IdRegime",
    "PropertyAxis",
    "WorkloadCell",
    "WorkloadFamily",
    "WorkloadMatrix",
    "bundled_families",
    "bundled_properties",
    "bundled_regimes",
    "SamplePlan",
    "cell_seed",
    "default_matrix",
    "expand_json",
    "expand_ndjson",
    "expand_records",
    "family_names",
    "get_family",
    "get_property_axis",
    "get_regime",
    "importance_sample",
    "install_matrix",
    "property_names",
    "regime_names",
    "stratified_sample",
]


def install_matrix(seed: int = 0, **filters) -> int:
    """Register the matrix cells next to the bundled campaign scenarios.

    After this, ``python -m repro.campaign`` (with ``--workloads``) and
    :func:`repro.campaign.scenarios.get_scenario` resolve matrix cells by
    name exactly like hand-written scenarios.  Returns the number of cells
    registered.
    """
    from ..campaign.scenarios import register_scenarios

    specs = default_matrix(seed=seed).scenarios(**filters)
    register_scenarios(specs, replace=True)
    return len(specs)
