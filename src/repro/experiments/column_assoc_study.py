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
90% claim and the hit-time trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..cache.column_assoc import ColumnAssociativeCache
from ..trace.workloads import workload_names
from .config import PAPER_HASH_BITS, PAPER_L1_8KB, CacheGeometry
from .grid import ProgramTrace

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
                           seed: int = 12345) -> ColumnAssocStudyResult:
    """Replay the workload suite through the column-associative organisation."""
    program_list = list(programs) if programs is not None else workload_names()
    sources = [ProgramTrace(name, accesses, seed) for name in program_list]
    result = ColumnAssocStudyResult(geometry=geometry,
                                    accesses_per_program=accesses)
    for name, source in zip(program_list, sources):
        cache = ColumnAssociativeCache(geometry.size_bytes, geometry.block_size,
                                       address_bits=PAPER_HASH_BITS)
        for access in source.accesses():
            cache.access(access.address, is_write=access.is_write)
        result.miss_ratio_percent[name] = 100.0 * cache.stats.load_miss_ratio
        result.first_probe_hit_ratio[name] = cache.first_probe_hit_ratio
        result.average_probes[name] = cache.average_probes
        result.average_hit_time[name] = cache.average_hit_time(
            second_probe_penalty=second_probe_penalty)
    return result
