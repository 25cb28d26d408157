"""The workload matrix: a streaming cross of the axes into scenario cells.

A :class:`WorkloadMatrix` crosses **graph families** x **properties** x
**decider constructions** x **identifier regimes** into
:class:`~repro.campaign.spec.ScenarioSpec` cells that run through the
ordinary campaign machinery (:func:`~repro.campaign.runner.run_campaign` /
:func:`~repro.campaign.runner.resume_campaign`), so a
:class:`~repro.engine.persistent.VerdictStore` replays them exactly like
the hand-written bundle.  Compatibility is declarative: a property axis
names the family tags it requires, and trap constructions whitelist the
families they are hunted on.

**Streaming.**  :meth:`WorkloadMatrix.iter_cells` is the primitive: a lazy
generator over the cross in a deterministic total order (families, then
properties, then constructions, then regimes, then the variant ladder)
with O(1) memory — no list of cells ever exists.  :meth:`WorkloadMatrix.cells`
is a thin materialising wrapper kept for the small default matrix, and
:meth:`WorkloadMatrix.count_cells` counts the cross without constructing a
single spec.  The optional variant axes (``size_scales`` x
``sample_counts`` x ``replicas``) multiply the base cross to arbitrary
scale — past a million cells — while the default variant keeps every base
cell's name, spec and digest byte-identical to the unparameterised matrix.

Determinism: every cell derives its sampling/search seed from the matrix
seed and its own name (SHA-256, platform independent), and the expansion
(:func:`expand_records` / :func:`expand_json` / :func:`expand_ndjson`)
contains no timestamps, so the same matrix seed always produces a
byte-identical expansion and the same per-cell spec digests — the property
the resumable sweeps and the determinism tests are built on.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..campaign.spec import ScenarioSpec, ScenarioWorkload
from ..decision.property import InstanceFamily
from .axes import (
    DeciderConstruction,
    IdRegime,
    PropertyAxis,
    bundled_properties,
    bundled_regimes,
)
from .families import WorkloadFamily, bundled_families

__all__ = [
    "WorkloadCell",
    "WorkloadMatrix",
    "default_matrix",
    "expand_records",
    "expand_json",
    "expand_ndjson",
]

#: Offset between the seeds of consecutive ladder rungs of one cell.
_RUNG_SEED_STRIDE = 7919

#: Per-instance search budgets: traps need room to climb, honest deciders
#: are Id-oblivious and settle in one canonical evaluation anyway.
_TRAP_BUDGET, _TRAP_QUICK_BUDGET = 600, 300
_HONEST_BUDGET, _HONEST_QUICK_BUDGET = 64, 32


def cell_seed(matrix_seed: int, name: str) -> int:
    """Derive one cell's deterministic seed from the matrix seed and cell name."""
    token = hashlib.sha256(f"{matrix_seed}|{name}".encode("utf-8")).digest()
    return int.from_bytes(token[:4], "big") & 0x7FFFFFFF


def _make_build(
    family: WorkloadFamily,
    axis: PropertyAxis,
    construction: DeciderConstruction,
    regime: IdRegime,
) -> Callable[[ScenarioSpec, Tuple[int, ...]], ScenarioWorkload]:
    """Build callable for one cell: decorate the family's ladder into a workload."""

    def build(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
        yes, no = [], []
        for idx, size in enumerate(sizes):
            graph = family.build(size, spec.seed + _RUNG_SEED_STRIDE * idx)
            yes_graph = axis.yes_instance(graph)
            if yes_graph is not None:
                yes.append(yes_graph)
            no_graph = axis.no_instance(graph)
            if no_graph is not None:
                no.append(no_graph)
        instances = InstanceFamily(
            name=f"{family.name}:{axis.name}(sizes={sizes})",
            yes_instances=yes,
            no_instances=no,
            description=f"{axis.title} on {family.title}",
        )
        prop = axis.make_property()
        workload = ScenarioWorkload(
            family=instances,
            decider=construction.make(prop, instances),
            prop=prop,
        )
        regime.configure(workload, spec)
        return workload

    return build


@dataclass(frozen=True)
class WorkloadCell:
    """One expanded cell of the matrix: the four axis values plus the spec."""

    family: WorkloadFamily
    axis: PropertyAxis
    construction: DeciderConstruction
    regime: IdRegime
    spec: ScenarioSpec

    @property
    def name(self) -> str:
        return self.spec.name

    def digest(self, quick: bool) -> str:
        """The cell's deterministic workload digest (see ``ScenarioSpec.digest``)."""
        return self.spec.digest(quick)

    def as_record(self) -> Dict[str, object]:
        """JSON-ready record of the cell (the ``--expand`` output row)."""
        return {
            "name": self.name,
            "family": self.family.name,
            "property": self.axis.name,
            "construction": self.construction.name,
            "regime": self.regime.name,
            "kind": self.spec.kind,
            "sizes": list(self.spec.sizes),
            "quick_sizes": list(self.spec.quick_sizes),
            "seed": self.spec.seed,
            "expect_correct": self.spec.expect_correct,
            "digest_full": self.digest(False),
            "digest_quick": self.digest(True),
        }

    def as_row(self) -> List[str]:
        """The ``--list`` table row."""
        return [
            self.name,
            self.spec.kind,
            self.family.name,
            self.axis.name,
            self.construction.name,
            self.regime.name,
            "x".join(str(s) for s in self.spec.sizes) or "-",
        ]


#: The per-cell ``samples`` value of the unparameterised matrix; the
#: variant whose knobs all sit at their defaults keeps the historical
#: unsuffixed cell name (and therefore its digest).
_DEFAULT_SAMPLES = 3
_DEFAULT_VARIANT = (1, _DEFAULT_SAMPLES, 0)


class WorkloadMatrix:
    """Declarative cross of the four axes with per-axis include/exclude filters.

    The optional **variant axes** parameterise the cross into a size/sample
    ladder without changing the base cells:

    * ``size_scales`` — each scale ``s`` multiplies every family's size
      ladder by ``s`` (suffix ``@s{s}...``);
    * ``sample_counts`` — identifier assignments sampled per instance in
      verify cells (suffix ``...k{samples}...``);
    * ``replicas`` — seed replicas: same workload shape, independent
      derived cell seeds (suffix ``...r{replica}``).

    The variant ``(scale=1, samples=3, replica=0)`` — always present when
    the knobs are left at their defaults — carries no suffix, so the
    default matrix's cell names, specs and digests are byte-identical to
    the historical unparameterised expansion.  The cross is only ever
    *streamed* (:meth:`iter_cells`); with the variant axes it reaches
    millions of cells without a list being materialised anywhere.
    """

    def __init__(
        self,
        families: Optional[Sequence[WorkloadFamily]] = None,
        properties: Optional[Sequence[PropertyAxis]] = None,
        regimes: Optional[Sequence[IdRegime]] = None,
        seed: int = 0,
        size_scales: Sequence[int] = (1,),
        sample_counts: Sequence[int] = (_DEFAULT_SAMPLES,),
        replicas: int = 1,
    ) -> None:
        self.families = list(families) if families is not None else bundled_families()
        self.properties = list(properties) if properties is not None else bundled_properties()
        self.regimes = list(regimes) if regimes is not None else bundled_regimes()
        self.seed = seed
        self.size_scales = tuple(int(s) for s in size_scales)
        self.sample_counts = tuple(int(k) for k in sample_counts)
        self.replicas = int(replicas)
        if not self.size_scales or any(s < 1 for s in self.size_scales):
            raise ValueError(f"size_scales must be >= 1, got {size_scales!r}")
        if not self.sample_counts or any(k < 1 for k in self.sample_counts):
            raise ValueError(f"sample_counts must be >= 1, got {sample_counts!r}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")

    # -- variants ---------------------------------------------------------- #

    def variant_count(self) -> int:
        """Number of variant cells each base (family x property x construction x regime) combo expands to."""
        return len(self.size_scales) * len(self.sample_counts) * self.replicas

    def _iter_variants(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(scale, samples, replica)`` triples in deterministic order."""
        for scale in self.size_scales:
            for samples in self.sample_counts:
                for replica in range(self.replicas):
                    yield scale, samples, replica

    @staticmethod
    def _cell_name(
        family: WorkloadFamily,
        axis: PropertyAxis,
        construction: DeciderConstruction,
        regime: IdRegime,
        variant: Tuple[int, int, int] = _DEFAULT_VARIANT,
    ) -> str:
        base = f"mx:{family.name}:{axis.name}:{construction.name}:{regime.name}"
        if variant == _DEFAULT_VARIANT:
            return base
        scale, samples, replica = variant
        return f"{base}@s{scale}k{samples}r{replica}"

    def _spec_for(
        self,
        family: WorkloadFamily,
        axis: PropertyAxis,
        construction: DeciderConstruction,
        regime: IdRegime,
    ) -> ScenarioSpec:
        name = self._cell_name(family, axis, construction, regime)
        trap = construction.expect_defeat
        return ScenarioSpec(
            name=name,
            title=f"{axis.title} | {family.title} | {regime.name} identifiers",
            section="matrix",
            kind=regime.kind,
            graph_family=family.name,
            property_name=axis.name,
            decider_name=construction.name,
            build=_make_build(family, axis, construction, regime),
            sizes=family.sizes,
            quick_sizes=family.quick_sizes,
            samples=3,
            seed=cell_seed(self.seed, name),
            strategy="hill-climb",
            max_evaluations=_TRAP_BUDGET if trap else _HONEST_BUDGET,
            quick_max_evaluations=_TRAP_QUICK_BUDGET if trap else _HONEST_QUICK_BUDGET,
            batch_size=16,
            engine="cached",
            expect_correct=not trap,
            description=f"matrix cell: {family.name} x {axis.name} x {construction.name} x {regime.name}",
        )

    def _variant_spec(self, base: ScenarioSpec, family: WorkloadFamily, name: str, variant: Tuple[int, int, int]) -> ScenarioSpec:
        """Derive one variant's spec from the combo's base spec (cheaply).

        A shallow copy plus five field writes instead of
        :func:`dataclasses.replace` (which re-runs ``__init__``): on
        million-cell crosses the constructor is the dominant per-cell cost.
        """
        if variant == _DEFAULT_VARIANT:
            return base
        scale, samples, _replica = variant
        spec = copy.copy(base)
        write = object.__setattr__  # ScenarioSpec is frozen
        write(spec, "name", name)
        write(spec, "seed", cell_seed(self.seed, name))
        if scale != 1:
            write(spec, "sizes", tuple(size * scale for size in family.sizes))
            write(spec, "quick_sizes", tuple(size * scale for size in family.quick_sizes))
        write(spec, "samples", samples)
        return spec

    # -- streaming expansion ----------------------------------------------- #

    def _validate_filters(
        self,
        families: Optional[Sequence[str]],
        properties: Optional[Sequence[str]],
        regimes: Optional[Sequence[str]],
        constructions: Optional[Sequence[str]],
        kinds: Optional[Sequence[str]],
        exclude_families: Sequence[str],
    ) -> None:
        self._check_filter(families, {f.name for f in self.families}, "family")
        self._check_filter(exclude_families, {f.name for f in self.families}, "family")
        self._check_filter(properties, {p.name for p in self.properties}, "property")
        self._check_filter(regimes, {r.name for r in self.regimes}, "regime")
        self._check_filter(
            constructions,
            {c.name for p in self.properties for c in p.constructions},
            "construction",
        )
        self._check_filter(kinds, {r.kind for r in self.regimes}, "regime kind")

    def _iter_combos(
        self,
        families: Optional[Sequence[str]] = None,
        properties: Optional[Sequence[str]] = None,
        regimes: Optional[Sequence[str]] = None,
        constructions: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        exclude_families: Sequence[str] = (),
    ) -> Iterator[Tuple[WorkloadFamily, PropertyAxis, DeciderConstruction, IdRegime]]:
        """Yield the filtered base (family, axis, construction, regime) combos."""
        for family in self.families:
            if families is not None and family.name not in families:
                continue
            if family.name in exclude_families:
                continue
            for axis in self.properties:
                if properties is not None and axis.name not in properties:
                    continue
                if not axis.supports(family):
                    continue
                for construction in axis.constructions:
                    if constructions is not None and construction.name not in constructions:
                        continue
                    for regime in self.regimes:
                        if regimes is not None and regime.name not in regimes:
                            continue
                        if construction.expect_defeat:
                            # Traps are hunted, never swept: search cells
                            # only, and only on their whitelisted families.
                            if regime.kind != "search":
                                continue
                            if family.name not in construction.trap_families:
                                continue
                        if kinds is not None and regime.kind not in kinds:
                            continue
                        yield family, axis, construction, regime

    def iter_cells(
        self,
        families: Optional[Sequence[str]] = None,
        properties: Optional[Sequence[str]] = None,
        regimes: Optional[Sequence[str]] = None,
        constructions: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        exclude_families: Sequence[str] = (),
        names: Optional[Sequence[str]] = None,
    ) -> Iterator[WorkloadCell]:
        """Stream the matrix cells lazily, applying the per-axis filters.

        Every filter is an include-list of axis names (``None`` = no
        filter); ``exclude_families`` removes families after inclusion and
        ``names`` restricts to exact cell names (the CLI's positional
        arguments).  Unknown names in any filter raise ``KeyError`` so a
        typo cannot silently produce an empty sweep — filter validation
        happens eagerly (before the first cell is yielded); ``names`` that
        match nothing raise when the stream is exhausted.

        The order is a deterministic total order — families, properties,
        constructions, regimes, then the variant ladder (size scales,
        sample counts, replicas) — and memory stays O(1) in the number of
        cells: specs are constructed one at a time and never retained.
        """
        self._validate_filters(families, properties, regimes, constructions, kinds, exclude_families)
        combos = self._iter_combos(families, properties, regimes, constructions, kinds, exclude_families)
        return self._generate_cells(combos, names)

    def _generate_cells(self, combos, names: Optional[Sequence[str]]) -> Iterator[WorkloadCell]:
        wanted = set(names) if names is not None else None
        seen: set = set()
        for family, axis, construction, regime in combos:
            base: Optional[ScenarioSpec] = None
            for variant in self._iter_variants():
                name = self._cell_name(family, axis, construction, regime, variant)
                if wanted is not None and name not in wanted:
                    continue
                if base is None:
                    base = self._spec_for(family, axis, construction, regime)
                spec = self._variant_spec(base, family, name, variant)
                if wanted is not None:
                    seen.add(name)
                yield WorkloadCell(
                    family=family, axis=axis, construction=construction, regime=regime, spec=spec
                )
        if wanted is not None:
            missing = wanted - seen
            if missing:
                self._raise_for_missing(missing)

    def _raise_for_missing(self, missing: set) -> None:
        """Diagnose missing ``names``: a typo vs a cell the filters excluded."""
        # Stream the unfiltered name universe instead of materialising it —
        # with the variant axes engaged it can span millions of names.
        unknown = set(missing)
        for name in self.iter_names():
            unknown.discard(name)
            if not unknown:
                break
        if unknown:
            raise KeyError(f"unknown matrix cell(s) {sorted(unknown)}; see --list")
        raise KeyError(
            f"matrix cell(s) {sorted(missing)} exist but are excluded by the active filters"
        )

    def iter_names(self) -> Iterator[str]:
        """Stream every cell name of the unfiltered cross without building specs."""
        for family, axis, construction, regime in self._iter_combos():
            for variant in self._iter_variants():
                yield self._cell_name(family, axis, construction, regime, variant)

    def cells(
        self,
        families: Optional[Sequence[str]] = None,
        properties: Optional[Sequence[str]] = None,
        regimes: Optional[Sequence[str]] = None,
        constructions: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        exclude_families: Sequence[str] = (),
        names: Optional[Sequence[str]] = None,
    ) -> List[WorkloadCell]:
        """Materialise :meth:`iter_cells` into a list (small matrices only).

        A thin wrapper kept for the default-sized matrix and for callers
        that genuinely need random access; million-cell crosses should
        stay on the iterator.
        """
        return list(
            self.iter_cells(
                families=families,
                properties=properties,
                regimes=regimes,
                constructions=constructions,
                kinds=kinds,
                exclude_families=exclude_families,
                names=names,
            )
        )

    def count_cells(
        self,
        families: Optional[Sequence[str]] = None,
        properties: Optional[Sequence[str]] = None,
        regimes: Optional[Sequence[str]] = None,
        constructions: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        exclude_families: Sequence[str] = (),
        names: Optional[Sequence[str]] = None,
    ) -> int:
        """Count the cells the filters admit without constructing any spec.

        Used by ``--list --count-only`` as a fast sanity check on
        million-cell crosses: the base combos are enumerated (hundreds at
        most) and multiplied by the variant-ladder size.
        """
        self._validate_filters(families, properties, regimes, constructions, kinds, exclude_families)
        combos = self._iter_combos(families, properties, regimes, constructions, kinds, exclude_families)
        if names is None:
            return sum(self.variant_count() for _ in combos)
        wanted, count = set(names), 0
        seen: set = set()
        for family, axis, construction, regime in combos:
            for variant in self._iter_variants():
                name = self._cell_name(family, axis, construction, regime, variant)
                if name in wanted:
                    seen.add(name)
                    count += 1
        missing = wanted - seen
        if missing:
            self._raise_for_missing(missing)
        return count

    def scenarios(self, **filters) -> List[ScenarioSpec]:
        """The expanded cells as plain campaign scenario specs (materialised)."""
        return [cell.spec for cell in self.iter_cells(**filters)]

    def iter_scenarios(self, **filters) -> Iterator[ScenarioSpec]:
        """Stream the expanded cells as plain campaign scenario specs."""
        return (cell.spec for cell in self.iter_cells(**filters))

    @staticmethod
    def _check_filter(chosen: Optional[Sequence[str]], known: set, axis: str) -> None:
        unknown = sorted(set(chosen or ()) - known)
        if unknown:
            raise KeyError(f"unknown {axis} name(s) {unknown}; choose from {sorted(known)}")


def default_matrix(seed: int = 0) -> WorkloadMatrix:
    """The bundled matrix: all bundled families x properties x regimes."""
    return WorkloadMatrix(seed=seed)


def expand_records(cells: Iterable[WorkloadCell]) -> List[Dict[str, object]]:
    """JSON-ready records for a collection of cells (the ``--expand`` payload)."""
    return [cell.as_record() for cell in cells]


def expand_json(cells: Iterable[WorkloadCell]) -> str:
    """Deterministic JSON expansion: same matrix seed, byte-identical output.

    Materialises the whole payload — intended for the default-sized matrix
    where the array form (and its byte-identity across runs) matters.  Use
    :func:`expand_ndjson` to stream arbitrarily large crosses.
    """
    return json.dumps(expand_records(cells), indent=2, sort_keys=True) + "\n"


def expand_ndjson(cells: Iterable[WorkloadCell]) -> Iterator[str]:
    """Stream the expansion as NDJSON: one compact JSON line per cell.

    Consumes ``cells`` lazily and holds only one record at a time, so a
    million-cell cross expands in O(1) memory; each line is
    ``json.dumps(record, sort_keys=True)`` and therefore as deterministic
    as the array form.
    """
    for cell in cells:
        yield json.dumps(cell.as_record(), sort_keys=True)
