"""Experiment E-MR: trace-level miss-ratio comparison across organisations.

Section 2.1 summarises the earlier ICS'97 study [10]: on Spec95, an 8 KB
two-way set-associative cache has an average miss ratio of 13.84%, the I-Poly
cache of the same size and associativity reduces it to 7.14%, and a
fully-associative cache of the same capacity achieves 6.80%.  The point is
that I-Poly indexing recovers almost all of the benefit of full associativity
at two-way cost.

This driver replays the synthetic workload suite through a configurable set
of cache organisations (conventional, skewed-XOR, I-Poly,
fully-associative, victim and column-associative are all available) and
reports per-program and suite-average miss ratios, so the ordering
``conventional > I-Poly >= fully-associative`` — and the near-equality of the
last two — can be checked.

Both engines build every organisation from the same
:class:`~repro.experiments.config.OrganisationSpec` rows
(:func:`study_organisations`) and produce identical miss ratios; the
vectorized engine materialises each program's trace once and prices every
organisation natively.  ``replacement`` selects the replacement policy of
the set-associative, fully-associative and victim organisations (the
column-associative organisation has no replacement freedom).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..engine import (
    ENGINE_REFERENCE,
    SweepOptions,
    TaskFailure,
    check_engine,
)
from ..trace.workloads import workload_names
from .config import PAPER_L1_8KB, CacheGeometry, InputError, OrganisationSpec
from .grid import (
    ProgramTrace,
    TraceOptions,
    run_grid,
    simulate,
)

__all__ = [
    "MissRatioStudyResult",
    "study_organisations",
    "run_miss_ratio_study",
]


@dataclass
class MissRatioStudyResult:
    """Per-program miss ratios (percent) for each cache organisation."""

    accesses_per_program: int
    miss_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Programs that failed under ``on_error="collect"``;
    #: they are excluded from the table and the averages.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def programs(self) -> List[str]:
        """Programs replayed."""
        return list(self.miss_ratios)

    @property
    def organisations(self) -> List[str]:
        """Cache organisations compared."""
        if not self.miss_ratios:
            return []
        return list(next(iter(self.miss_ratios.values())))

    def average(self, organisation: str) -> float:
        """Suite-average miss ratio (percent) of one organisation."""
        return arithmetic_mean([self.miss_ratios[p][organisation]
                                for p in self.programs])

    def averages(self) -> Dict[str, float]:
        """Suite-average miss ratio per organisation."""
        return {org: self.average(org) for org in self.organisations}

    def table(self) -> TableBuilder:
        """Per-program table with an average row."""
        table = TableBuilder(self.organisations, row_label="program")
        for program in self.programs:
            table.add_row(program, self.miss_ratios[program])
        table.add_row("Average", self.averages())
        return table

    def render(self) -> str:
        """Render as text."""
        return self.table().render(title="Load miss ratio (%) by cache organisation")


def study_organisations(geometry: CacheGeometry = PAPER_L1_8KB,
                        replacement: Optional[str] = None,
                        ) -> Dict[str, OrganisationSpec]:
    """The organisations of the Section 2.1 comparison, by label."""
    def spec(kind: str = "set-assoc", scheme: str = "a2",
             ways: int = geometry.ways) -> OrganisationSpec:
        return OrganisationSpec(kind, scheme, replace(geometry, ways=ways),
                                replacement)

    return {
        "conventional-2way": spec(scheme="a2"),
        "skewed-xor-2way": spec(scheme="a2-Hx-Sk"),
        "ipoly-2way": spec(scheme="a2-Hp"),
        "ipoly-skewed-2way": spec(scheme="a2-Hp-Sk"),
        "fully-associative": spec("fully-assoc"),
        "victim-direct+8": spec("victim", ways=1),
        "column-assoc-ipoly": spec("column-assoc"),
    }


def run_miss_ratio_study(programs: Optional[Sequence[str]] = None,
                         accesses: int = 40_000,
                         organisations: Optional[Mapping[str, Any]] = None,
                         seed: int = 12345,
                         engine: str = ENGINE_REFERENCE,
                         replacement: Optional[str] = None,
                         sweep_options: SweepOptions = SweepOptions(),
                         trace_options: TraceOptions = TraceOptions(),
                         workers: Optional[int] = None,
                         ) -> MissRatioStudyResult:
    """Replay the workload suite through every organisation and collect miss ratios.

    Runs :func:`study_organisations` (with ``replacement``; ``None`` means
    the paper's LRU) on either engine through
    :func:`~repro.experiments.grid.run_grid`, one sweep task per program
    (``sweep_options``; under ``on_error="collect"`` a failed program lands
    in ``result.failures`` instead of the table).

    A caller-supplied ``organisations`` mapping (label ->
    :class:`OrganisationSpec`, or a zero-argument cache factory — batch
    caches expose ``run``, anything else is replayed access-at-a-time) is
    not generally picklable, so it runs serially.

    ``trace_options.trace`` replaces the synthetic suite with one recorded
    on-disk trace: the study then has a single row, labelled with the
    trace's file name.

    ``workers=N`` is the older spelling of
    ``sweep_options=SweepOptions(workers=N)``, kept because the benchmark
    workloads in ``perfbench/`` use it; the two may not be combined.
    """
    if workers is not None:
        if sweep_options != SweepOptions():
            raise TypeError("pass workers= or sweep_options=, not both")
        sweep_options = SweepOptions(workers=workers)
    engine = check_engine(engine)
    organisation_map = (dict(organisations) if organisations is not None
                        else study_organisations(replacement=replacement))
    labels, specs = list(organisation_map), list(organisation_map.values())
    if trace_options.trace is not None:
        counts = simulate(trace_options, specs, engine)
        result = MissRatioStudyResult(accesses_per_program=counts[0].accesses)
        result.miss_ratios[trace_options.label] = _percent(labels, counts)
        return result
    if accesses < 1_000:
        raise InputError("accesses should be at least 1000 for stable ratios")
    program_list = list(programs) if programs is not None else workload_names()
    sources = [ProgramTrace(name, accesses, seed) for name in program_list]

    result = MissRatioStudyResult(accesses_per_program=accesses)
    if organisations is not None:
        cells = [simulate(source, specs, engine) for source in sources]
    else:
        cells = run_grid(sources, specs, engine, sweep_options)
    for name, counts in zip(program_list, cells):
        if isinstance(counts, TaskFailure):
            result.failures.append(counts)
        else:
            result.miss_ratios[name] = _percent(labels, counts)
    return result


def _percent(labels: Sequence[str], counts) -> Dict[str, float]:
    return {label: 100.0 * count.load_miss_ratio
            for label, count in zip(labels, counts)}
