"""Experiment E-RP: replacement policy x cache organisation sweep.

The paper's central trade-off is about *placement*, but placement interacts
with *replacement*: a conflict-avoiding (skewed, pseudo-randomly indexed)
cache cannot implement true per-set LRU cheaply, because the candidate
frames of one block live in different sets of every bank and no small
per-set state covers them.  The practical alternatives are the policies a
skewed cache *can* implement — FIFO counters, tree-PLRU bits, or a
pseudo-random pick.  This study quantifies what those alternatives cost, by
sweeping every replacement policy across three organisations at equal data
capacity:

* a conventional two-way set-associative cache (``a2``), where true LRU is
  cheap — the baseline cost of abandoning it;
* the paper's skewed I-Poly cache (``a2-Hp-Sk``), where LRU is the
  impractical policy the ablation replaces;
* a direct-mapped cache with a victim buffer, where replacement only
  matters inside the tiny fully-associative buffer.

If the skewed organisation's miss ratio is (nearly) policy-insensitive
while the conventional one degrades without LRU, the paper's position —
that giving up true LRU is a small price for conflict-avoiding placement —
is supported by this reproduction.

Both engines run the study; the vectorized path uses the replacement-aware
batch kernels (including :class:`~repro.engine.batch_cache.BatchVictimCache`)
and produces bit-identical ratios to the scalar models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..cache.replacement import REPLACEMENT_POLICIES
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
    "ReplacementStudyResult",
    "run_replacement_study",
]


@dataclass
class ReplacementStudyResult:
    """Suite-average load miss ratios (percent) per organisation x policy."""

    accesses_per_program: int
    programs: List[str] = field(default_factory=list)
    policies: List[str] = field(default_factory=list)
    #: ``miss_ratios[organisation][policy]`` -> suite-average percent.
    miss_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Programs that failed under ``on_error="collect"``;
    #: the averages cover the surviving programs only.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def organisations(self) -> List[str]:
        """Organisations swept."""
        return list(self.miss_ratios)

    def policy_spread(self, organisation: str) -> float:
        """Worst-minus-best miss ratio across policies (percentage points).

        The organisation's *replacement sensitivity*: how much choosing the
        wrong (or the only implementable) policy can cost.
        """
        values = self.miss_ratios[organisation].values()
        return max(values) - min(values)

    def lru_penalty(self, organisation: str, policy: str) -> float:
        """Miss-ratio cost (percentage points) of ``policy`` versus LRU."""
        row = self.miss_ratios[organisation]
        return row[policy] - row["lru"]

    def table(self) -> TableBuilder:
        """Organisation x policy table with a spread column."""
        table = TableBuilder(self.policies + ["spread"],
                             row_label="organisation")
        for organisation in self.organisations:
            row = dict(self.miss_ratios[organisation])
            row["spread"] = self.policy_spread(organisation)
            table.add_row(organisation, row)
        return table

    def render(self) -> str:
        """Render as text, with the replacement-sensitivity summary."""
        lines = [self.table().render(
            title="Load miss ratio (%) by organisation and replacement policy")]
        lines.append("")
        lines.append("replacement sensitivity (max - min across policies):")
        for organisation in self.organisations:
            lines.append(f"  {organisation:20s} "
                         f"{self.policy_spread(organisation):6.2f} pp")
        return "\n".join(lines)


def _study_organisations(geometry: CacheGeometry,
                         policy: str) -> Dict[str, OrganisationSpec]:
    """The organisations swept against every policy, by label."""
    direct = replace(geometry, ways=1)
    return {
        "conventional-2way": OrganisationSpec(
            scheme="a2", geometry=geometry, replacement=policy),
        "skewed-ipoly-2way": OrganisationSpec(
            scheme="a2-Hp-Sk", geometry=geometry, replacement=policy),
        "victim-direct+8": OrganisationSpec(
            "victim", geometry=direct, replacement=policy),
    }


def run_replacement_study(programs: Optional[Sequence[str]] = None,
                          accesses: int = 40_000,
                          policies: Optional[Sequence[str]] = None,
                          geometry: CacheGeometry = PAPER_L1_8KB,
                          seed: int = 12345,
                          engine: str = ENGINE_REFERENCE,
                          sweep_options: SweepOptions = SweepOptions(),
                          trace_options: TraceOptions = TraceOptions(),
                          trace: Optional[str] = None,
                          trace_chunk: int = TraceOptions.trace_chunk,
                          ) -> ReplacementStudyResult:
    """Sweep replacement policy x organisation over the workload suite.

    Replays every program's trace through each (organisation, policy) pair
    on either engine — identical numbers — and reports suite-average load
    miss ratios.  Runs through :func:`~repro.experiments.grid.run_grid`, one
    sweep task per program (``sweep_options``; under
    ``on_error="collect"`` a failed program lands in ``result.failures`` and
    the averages cover the surviving programs).

    ``trace_options.trace`` replaces the synthetic suite with one recorded
    on-disk trace; the reported ratios are then that trace's.

    ``trace=FILE, trace_chunk=N`` is the older spelling of
    ``trace_options=TraceOptions(FILE, N)``, kept because the benchmark
    workloads in ``perfbench/`` use it; the two may not be combined.
    """
    if trace is not None:
        if trace_options != TraceOptions():
            raise TypeError("pass trace= or trace_options=, not both")
        trace_options = TraceOptions(trace, trace_chunk)
    engine = check_engine(engine)
    policy_list = list(policies) if policies is not None else list(REPLACEMENT_POLICIES)
    if not policy_list:
        raise InputError("at least one replacement policy is required")
    per_policy = {policy: _study_organisations(geometry, policy)
                  for policy in policy_list}
    labels = list(per_policy[policy_list[0]])
    keys = [(label, policy) for label in labels for policy in policy_list]
    specs = [per_policy[policy][label] for label, policy in keys]
    if trace_options.trace is not None:
        counts = simulate(trace_options, specs, engine)
        cells = [counts]
        program_list = [trace_options.label]
        accesses = counts[0].accesses
    else:
        if accesses < 1_000:
            raise InputError("accesses should be at least 1000 for stable ratios")
        program_list = list(programs) if programs is not None else workload_names()
        cells = run_grid([ProgramTrace(name, accesses, seed)
                          for name in program_list],
                         specs, engine, sweep_options)

    result = ReplacementStudyResult(accesses_per_program=accesses,
                                    programs=program_list,
                                    policies=policy_list)
    per_pair: Dict[tuple, List[float]] = {key: [] for key in keys}
    for counts in cells:
        if isinstance(counts, TaskFailure):
            result.failures.append(counts)
            continue
        for key, count in zip(keys, counts):
            per_pair[key].append(100.0 * count.load_miss_ratio)
    for label in labels:
        result.miss_ratios[label] = {
            policy: arithmetic_mean(per_pair[(label, policy)])
            for policy in policy_list}
    return result
