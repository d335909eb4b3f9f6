"""Experiment E-T3: Table 3 — the high-conflict programs in isolation.

Table 3 repeats the Table 2 metrics for the three programs with high conflict
miss ratios (tomcatv, swim, wave5), adds their averages ("Average-bad") and
the averages of the remaining fifteen programs ("Average-good").  The paper's
headline numbers derived from this table are:

* the bad programs gain about 27% IPC from I-Poly indexing even with the XOR
  stage on the critical path and no address prediction, and about 33% with
  prediction — up to 16% more than simply doubling the cache to 16 KB;
* the good programs lose only about 1.7% IPC when the XOR stage is on the
  critical path, and nothing when it is not.

:func:`run_table3` reuses the Table 2 machinery (optionally an existing
:class:`~repro.experiments.table2.Table2Result`) and adds the group rows and
the derived improvement percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.metrics import geometric_mean, percent_change
from ..analysis.reporting import TableBuilder
from ..engine import ENGINE_REFERENCE, SweepOptions
from ..trace.workloads import HIGH_CONFLICT_PROGRAMS, LOW_CONFLICT_PROGRAMS
from .table2 import Table2Result, run_table2

__all__ = ["Table3Result", "run_table3"]


@dataclass
class Table3Result:
    """Table 3 view over a full Table 2 run."""

    table2: Table2Result

    @property
    def bad_programs(self) -> List[str]:
        """The high-conflict programs present in the underlying run."""
        return [p for p in self.table2.programs if p in HIGH_CONFLICT_PROGRAMS]

    @property
    def good_programs(self) -> List[str]:
        """The low-conflict programs present in the underlying run."""
        return [p for p in self.table2.programs if p in LOW_CONFLICT_PROGRAMS]

    def group_ipc(self, programs: List[str], configuration: str) -> float:
        """Geometric-mean IPC of a program group under one configuration."""
        return geometric_mean([self.table2.ipc(p, configuration) for p in programs])

    def ipc_table(self) -> TableBuilder:
        """Per-program rows for the bad programs plus the two average rows."""
        columns = self.table2.configurations
        table = TableBuilder(columns, row_label="program")
        for program in self.bad_programs:
            table.add_row(program, {cfg: self.table2.ipc(program, cfg)
                                    for cfg in columns})
        if self.bad_programs:
            table.add_row("Average-bad", {cfg: self.group_ipc(self.bad_programs, cfg)
                                          for cfg in columns})
        if self.good_programs:
            table.add_row("Average-good", {cfg: self.group_ipc(self.good_programs, cfg)
                                           for cfg in columns})
        return table

    def improvement_summary(self) -> Dict[str, float]:
        """The paper's headline percentages, computed from the simulated IPCs.

        Keys:

        ``bad_ipoly_cp_vs_8k_conv``
            IPC gain of the bad programs from I-Poly with the XOR stage on the
            critical path and no prediction (paper: ~27%).
        ``bad_ipoly_cp_pred_vs_8k_conv``
            As above but with address prediction (paper: ~33%).
        ``bad_ipoly_cp_pred_vs_16k_conv``
            I-Poly 8 KB with prediction versus doubling the cache (paper: ~16%).
        ``good_ipoly_cp_pred_vs_8k_conv``
            IPC change of the good programs with I-Poly on the critical path
            and prediction (paper: about -1.7% without prediction; with
            prediction the deficit should shrink towards zero).
        ``good_ipoly_cp_vs_8k_conv``
            IPC change of the good programs with the XOR stage on the critical
            path and no prediction.
        """
        bad, good = self.bad_programs, self.good_programs
        summary: Dict[str, float] = {}
        if bad:
            base_bad = self.group_ipc(bad, "8K-conv")
            summary["bad_ipoly_cp_vs_8k_conv"] = percent_change(
                base_bad, self.group_ipc(bad, "8K-ipoly-CP"))
            summary["bad_ipoly_cp_pred_vs_8k_conv"] = percent_change(
                base_bad, self.group_ipc(bad, "8K-ipoly-CP-pred"))
            summary["bad_ipoly_cp_pred_vs_16k_conv"] = percent_change(
                self.group_ipc(bad, "16K-conv"),
                self.group_ipc(bad, "8K-ipoly-CP-pred"))
        if good:
            base_good = self.group_ipc(good, "8K-conv")
            summary["good_ipoly_cp_vs_8k_conv"] = percent_change(
                base_good, self.group_ipc(good, "8K-ipoly-CP"))
            summary["good_ipoly_cp_pred_vs_8k_conv"] = percent_change(
                base_good, self.group_ipc(good, "8K-ipoly-CP-pred"))
        return summary

    def render(self) -> str:
        """Render the Table 3 IPC view and the headline percentages."""
        lines = [self.ipc_table().render(title="Table 3 (IPC)")]
        lines.append("")
        for key, value in self.improvement_summary().items():
            lines.append(f"{key}: {value:+.1f}%")
        return "\n".join(lines)


def run_table3(instructions: int = 30_000,
               table2_result: Optional[Table2Result] = None,
               seed: int = 2027,
               engine: str = ENGINE_REFERENCE,
               sweep_options: SweepOptions = SweepOptions()) -> Table3Result:
    """Run (or reuse) the underlying simulations and build the Table 3 view.

    When ``table2_result`` is provided it must contain at least the three
    high-conflict programs (``ValueError`` names the missing ones);
    otherwise the full 18-program Table 2 experiment is run first, with
    ``engine`` and ``sweep_options`` forwarded to :func:`run_table2`.
    """
    if table2_result is None:
        table2_result = run_table2(instructions=instructions, seed=seed,
                                   engine=engine, sweep_options=sweep_options)
    else:
        missing = [p for p in HIGH_CONFLICT_PROGRAMS
                   if p not in table2_result.results]
        if missing:
            raise ValueError(f"table2_result lacks the high-conflict "
                             f"programs {missing}; Table 3 needs all of "
                             f"{HIGH_CONFLICT_PROGRAMS}")
    return Table3Result(table2=table2_result)
