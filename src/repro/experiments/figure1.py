"""Experiment E-F1: Figure 1 — stride sensitivity of the indexing schemes.

The paper drives four otherwise-identical 8 KB, 32-byte-block, two-way caches
with "repeated accesses to a vector of 64 8-byte elements in which the
elements were separated by stride S", for every stride in ``1 <= S < 4096``,
and plots the frequency distribution of the resulting miss ratios per
indexing scheme.  The headline observations are:

* most strides behave well under every scheme;
* the conventional (``a2``) and skewed-XOR (``a2-Hx-Sk``) schemes are
  pathological (miss ratio > 50%) on more than 6% of strides;
* the skewed I-Poly scheme (``a2-Hp-Sk``) has no pathological strides at all.

:func:`run_figure1` reproduces the sweep and returns one
:class:`~repro.analysis.histograms.MissRatioHistogram` per scheme plus the
pathological-stride fractions.

The sweep runs on either simulation engine: ``engine="reference"`` replays
:class:`~repro.trace.record.MemoryAccess` objects through the scalar cache
model, ``engine="vectorized"`` synthesises the strided addresses directly as
NumPy arrays and drives the batch engine
(:class:`~repro.engine.batch_cache.BatchSetAssociativeCache`) — bit-exact,
an order of magnitude faster, and therefore the path of choice for the full
4096-stride sweep.  ``workers`` additionally fans the strides across a
process pool via :func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.histograms import MissRatioHistogram
from ..engine import (
    ENGINE_REFERENCE,
    SweepOptions,
    TaskFailure,
    check_engine,
)
from .config import (
    INDEX_SCHEMES,
    PAPER_L1_8KB,
    CacheGeometry,
    InputError,
    OrganisationSpec,
)
from .grid import (
    StrideTrace,
    TraceOptions,
    run_grid,
    simulate,
)

__all__ = ["Figure1Result", "stride_miss_ratio", "run_figure1"]


@dataclass
class Figure1Result:
    """Outcome of the Figure 1 sweep."""

    geometry: CacheGeometry
    strides: int
    histograms: Dict[str, MissRatioHistogram] = field(default_factory=dict)
    miss_ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: Strides that failed under ``on_error="collect"``; they carry
    #: ``nan`` ratios and are absent from the histograms.
    failures: List[TaskFailure] = field(default_factory=list)

    def pathological_fraction(self, scheme: str, threshold: float = 0.5) -> float:
        """Fraction of strides whose miss ratio exceeds ``threshold``."""
        return self.histograms[scheme].fraction_above(threshold)

    def summary(self, threshold: float = 0.5) -> Dict[str, float]:
        """Pathological-stride fraction per scheme."""
        return {scheme: self.pathological_fraction(scheme, threshold)
                for scheme in self.histograms}

    def render(self) -> str:
        """Human-readable rendering of all histograms plus the summary."""
        parts = [h.render() for h in self.histograms.values()]
        parts.append("pathological strides (miss ratio > 50%):")
        for scheme, fraction in self.summary().items():
            parts.append(f"  {scheme:10s} {100 * fraction:6.2f}%")
        return "\n\n".join(parts)


def stride_miss_ratio(scheme: str, stride: int,
                      geometry: CacheGeometry = PAPER_L1_8KB,
                      elements: int = 64, element_size: int = 8,
                      sweeps: int = 8, address_bits: int = 19,
                      engine: str = ENGINE_REFERENCE,
                      replacement: Optional[str] = None,
                      ) -> float:
    """Miss ratio of one (scheme, stride) pair under the Figure 1 workload.

    ``sweeps`` controls how many times the vector is traversed; the first
    sweep's compulsory misses are amortised over the rest, as in the paper's
    "repeated accesses".  ``engine`` picks the scalar reference model or the
    bit-exact batch engine; ``replacement`` the replacement policy (``None``
    means the paper's LRU).
    """
    spec = OrganisationSpec(scheme=scheme, geometry=geometry,
                            replacement=replacement, address_bits=address_bits)
    source = StrideTrace(stride, elements, element_size, sweeps)
    return simulate(source, [spec], check_engine(engine))[0].miss_ratio


def run_figure1(max_stride: int = 4096,
                schemes: Optional[Sequence[str]] = None,
                geometry: CacheGeometry = PAPER_L1_8KB,
                elements: int = 64, sweeps: int = 8,
                stride_step: int = 1,
                engine: str = ENGINE_REFERENCE,
                address_bits: int = 19,
                replacement: Optional[str] = None,
                sweep_options: SweepOptions = SweepOptions(),
                trace_options: TraceOptions = TraceOptions(),
                ) -> Figure1Result:
    """Run the Figure 1 stride sweep over ``1 <= S < max_stride``.

    Every ``stride_step``-th stride is one sweep task simulating each of
    ``schemes`` (default: the four of Figure 1) with ``replacement``
    (``None`` means the paper's LRU) on ``engine``; ``sweep_options``
    fans the strides across workers, and under ``on_error="collect"`` a
    failed stride lands in ``result.failures`` and reads ``nan``.
    ``trace_options.trace`` replaces the strides with one recorded trace:
    the result then has one miss ratio per scheme.
    """
    engine = check_engine(engine)
    schemes = list(schemes) if schemes is not None else list(INDEX_SCHEMES)
    specs = [OrganisationSpec(scheme=scheme, geometry=geometry,
                              replacement=replacement,
                              address_bits=address_bits)
             for scheme in schemes]
    if trace_options.trace is not None:
        cells = [simulate(trace_options, specs, engine)]
        strides = 1
    else:
        if max_stride < 2:
            raise InputError("max_stride must be at least 2")
        if stride_step < 1:
            raise InputError("stride_step must be positive")
        sources = [StrideTrace(stride, elements, sweeps=sweeps)
                   for stride in range(1, max_stride, stride_step)]
        cells = run_grid(sources, specs, engine, sweep_options)
        strides = len(sources)

    result = Figure1Result(geometry=geometry, strides=strides)
    for counts in cells:
        if isinstance(counts, TaskFailure):
            result.failures.append(counts)
    for position, scheme in enumerate(schemes):
        ratios = [float("nan") if isinstance(counts, TaskFailure)
                  else counts[position].miss_ratio for counts in cells]
        histogram = MissRatioHistogram(label=scheme)
        for ratio in ratios:
            if not math.isnan(ratio):
                histogram.add(ratio)
        result.histograms[scheme] = histogram
        result.miss_ratios[scheme] = ratios
    return result
