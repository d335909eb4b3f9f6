"""Experiment E-CA: column-associative cache with a polynomial rehash.

Section 3.1 (option 4) describes a direct-mapped, physically-tagged cache
that probes a conventional index first and an I-Poly index second, swapping
lines so that hot blocks migrate to their first-probe location.  The paper
reports "a typical probability of around 90% that a hit is detected at the
first probe", and notes that the organisation is only attractive when miss
penalties are large because the occasional second probe lengthens the average
hit time.

This driver measures, per workload: the overall miss ratio, the first-probe
hit probability, the average number of probes per access, and the average hit
time for a configurable second-probe penalty — everything needed to check the
90% claim and the hit-time trade-off.  It is one :func:`~.grid.run_grid` over
the ``"column-assoc"`` organisation, on either engine, with identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..engine import ENGINE_REFERENCE
from ..trace.workloads import workload_names
from .config import PAPER_L1_8KB, CacheGeometry, OrganisationSpec
from .grid import ProgramTrace, run_grid

__all__ = ["ColumnAssocStudyResult", "run_column_assoc_study"]


@dataclass
class ColumnAssocStudyResult:
    """Per-program column-associative statistics."""

    geometry: CacheGeometry
    accesses_per_program: int
    miss_ratio_percent: Dict[str, float] = field(default_factory=dict)
    first_probe_hit_ratio: Dict[str, float] = field(default_factory=dict)
    average_probes: Dict[str, float] = field(default_factory=dict)
    average_hit_time: Dict[str, float] = field(default_factory=dict)

    @property
    def programs(self) -> List[str]:
        """Programs replayed."""
        return list(self.miss_ratio_percent)

    def mean_first_probe_hit_ratio(self) -> float:
        """Suite-average probability that a hit is found on the first probe."""
        return arithmetic_mean(list(self.first_probe_hit_ratio.values()))

    def table(self) -> TableBuilder:
        """Per-program table with an average row."""
        columns = ["miss %", "first-probe hits", "avg probes", "avg hit time"]
        table = TableBuilder(columns, row_label="program")
        for program in self.programs:
            table.add_row(program, {
                "miss %": self.miss_ratio_percent[program],
                "first-probe hits": self.first_probe_hit_ratio[program],
                "avg probes": self.average_probes[program],
                "avg hit time": self.average_hit_time[program],
            })
        table.add_row("Average", {
            "miss %": arithmetic_mean(list(self.miss_ratio_percent.values())),
            "first-probe hits": self.mean_first_probe_hit_ratio(),
            "avg probes": arithmetic_mean(list(self.average_probes.values())),
            "avg hit time": arithmetic_mean(list(self.average_hit_time.values())),
        })
        return table

    def render(self) -> str:
        """Render as text."""
        return self.table().render(precision=3,
                                   title="Column-associative cache with I-Poly rehash")


def run_column_assoc_study(programs: Optional[Sequence[str]] = None,
                           accesses: int = 40_000,
                           geometry: CacheGeometry = PAPER_L1_8KB,
                           second_probe_penalty: float = 1.0,
                           seed: int = 12345,
                           engine: str = ENGINE_REFERENCE
                           ) -> ColumnAssocStudyResult:
    """Replay the workload suite through the column-associative organisation.

    ``engine`` picks the scalar reference cache or its batch twin
    (:class:`~repro.engine.batch_cache.BatchColumnAssociativeCache`); the
    results are identical.
    """
    program_list = list(programs) if programs is not None else workload_names()
    sources = [ProgramTrace(name, accesses, seed) for name in program_list]
    organisation = OrganisationSpec("column-assoc", geometry=geometry)
    result = ColumnAssocStudyResult(geometry=geometry,
                                    accesses_per_program=accesses)
    for name, (counts,) in zip(program_list,
                               run_grid(sources, [organisation], engine)):
        result.miss_ratio_percent[name] = 100.0 * counts.load_miss_ratio
        result.first_probe_hit_ratio[name] = counts.first_probe_hit_ratio
        result.average_probes[name] = counts.average_probes
        result.average_hit_time[name] = counts.average_hit_time(
            second_probe_penalty=second_probe_penalty)
    return result
