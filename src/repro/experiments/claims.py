"""The paper's claims as one ledger: paper value, measured value and bound.

Each :class:`Claim` row names the paper section it comes from, quotes the
paper's value, reads one number from the result of one experiment and
bounds it.  :func:`run_experiments` runs every experiment once and
:func:`check_claims` measures every row on those results;
``repro-experiments claims`` prints the rendered :class:`Ledger` and exits 1
when a claim fails.  The README carries its output.

The programs are synthetic Spec95-like models, so the rows check the
paper's shape (directions, orderings, rough magnitudes), not its absolute
numbers.  A row that compares two measured quantities bounds their
difference or ratio; a per-program row bounds the worst program.  Every
measured value is the same number on both engines and both kernel tiers.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..core.index import IPolyIndexing
from ..engine import ENGINE_VECTORIZED, BatchSetAssociativeCache
from ..trace.workloads import HIGH_CONFLICT_PROGRAMS
from .column_assoc_study import run_column_assoc_study
from .config import PAPER_L1_8KB, OrganisationSpec, build_cache
from .critical_path import run_critical_path_study
from .figure1 import run_figure1
from .grid import ProgramTrace, StrideTrace, run_grid, simulate
from .holes_study import run_holes_study
from .miss_ratio_study import run_miss_ratio_study
from .table2 import miss_ratio_std_dev, run_table2
from .table3 import run_table3

__all__ = ["Claim", "CLAIMS", "Ledger", "run_experiments", "check_claims"]

_OPERATORS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Claim:
    """One row: ``measure`` reads a number from the result of
    ``experiment``; ``bound`` is one or two ``operator, limit`` pairs, flat
    (``(">", -6.0, "<=", 3.0)``), that the number must meet."""

    id: str
    section: str
    quantity: str
    paper: str
    experiment: str
    measure: Callable[[Any], float]
    bound: Tuple
    note: str = ""

    def holds(self, value: float) -> bool:
        """Whether ``value`` meets the bound (never for ``nan``)."""
        return all(_OPERATORS[op](value, limit)
                   for op, limit in zip(self.bound[::2], self.bound[1::2]))

    def bound_text(self) -> str:
        return " and ".join(f"{op} {limit!r}" for op, limit
                            in zip(self.bound[::2], self.bound[1::2]))


def _polynomial_ablation(engine: str) -> Dict[str, float]:
    """Worst miss ratio over even strides 2..510 (64 8-byte elements, six
    sweeps) of an 8 KB two-way unskewed I-Poly cache, per modulus."""
    worst = {}
    for label, poly in (("irreducible", 0b10000011),    # x^7 + x + 1
                        ("reducible", 0b10000001)):     # x^7 + 1 = (x+1)(...)
        fn = IPolyIndexing(PAPER_L1_8KB.num_sets, ways=2, address_bits=19,
                           polynomials=[poly])
        factory = (functools.partial(BatchSetAssociativeCache, 8 * 1024, 32,
                                     ways=2, index_function=fn)
                   if engine == ENGINE_VECTORIZED else
                   functools.partial(build_cache, PAPER_L1_8KB,
                                     index_function=fn))
        cells = run_grid([StrideTrace(stride, sweeps=6)
                          for stride in range(2, 512, 2)], [factory], engine)
        worst[label] = max(counts.miss_ratio for (counts,) in cells)
    return worst


def _policy_ablation(engine: str) -> Dict[str, float]:
    """Load miss ratio of swim (20k accesses) on the 8 KB skewed I-Poly
    cache, per replacement policy."""
    policies = ("lru", "random", "plru")
    counts = simulate(ProgramTrace("swim", 20_000, 12345),
                      [OrganisationSpec(scheme="a2-Hp-Sk", replacement=policy)
                       for policy in policies], engine)
    return {policy: c.load_miss_ratio for policy, c in zip(policies, counts)}


def run_experiments(engine: str) -> Dict[str, Any]:
    """Every experiment the ledger reads, run once on ``engine``, by name.
    The Table 3 view reads the one full 18-program Table 2 run."""
    table2 = run_table2(instructions=12_000, engine=engine)
    return {
        "figure1": run_figure1(max_stride=4096, sweeps=8, stride_step=2,
                               engine=engine),
        "skewing": run_figure1(max_stride=1024, sweeps=8, stride_step=2,
                               schemes=["a2-Hp", "a2-Hp-Sk"], engine=engine),
        "polynomial": _polynomial_ablation(engine),
        "policy": _policy_ablation(engine),
        "miss-ratio": run_miss_ratio_study(accesses=40_000, engine=engine),
        "table2": table2,
        "table3": run_table3(table2_result=table2),
        "holes": run_holes_study(l2_sizes=[64 * 1024, 256 * 1024],
                                 accesses=40_000, engine=engine),
        "column-assoc": run_column_assoc_study(accesses=40_000,
                                               engine=engine),
        # 7- and 8-bit indexes over 19 address bits; CLA at 13 and 19 bits.
        "critical-path": run_critical_path_study(),
    }


def _gap(read: Callable, a: str, b: str, combine=operator.sub) -> Callable:
    """``combine`` of ``read(result, a)`` and ``read(result, b)``."""
    return lambda result: combine(read(result, a), read(result, b))


def _pathological(result, scheme):
    return result.summary()[scheme]


def _average(result, organisation):
    return result.averages()[organisation]


def _combined_ipc(result, configuration):
    return result.ipc_table().get("Combined average", configuration)


def _summary(result, key):
    return result.improvement_summary()[key]


def _each(a: str, b: str, worst: Callable, programs=()) -> Callable:
    """The ``worst`` (``min`` or ``max``) IPC of ``a`` minus that of ``b``
    over ``programs`` (default: every program of the run)."""
    return lambda result: worst(result.ipc(p, a) - result.ipc(p, b)
                                for p in programs or result.programs)


_SEVEN = "7-bit index / 19 address bits"

#: The ledger, in paper order.
CLAIMS: Tuple[Claim, ...] = (
    Claim("fig1-a2-pathological", "Fig. 1",
          "a2: share of strides with miss ratio > 50%", "> 6%", "figure1",
          lambda r: _pathological(r, "a2"), (">", 0.03),
          note="Strides 1, 3, ..., 4095. The paper quotes > 6% for a2 and "
               "for skewed XOR (a2-Hx-Sk); its XOR functions are pathological "
               "on more strides than the full-window XOR fold implemented "
               "here, so no row bounds a2-Hx-Sk."),
    Claim("fig1-ipoly-skewed-none", "Fig. 1", "the same share, a2-Hp-Sk",
          "0", "figure1", lambda r: _pathological(r, "a2-Hp-Sk"),
          ("==", 0.0)),
    Claim("fig1-ipoly-unskewed", "Fig. 1", "the same share, a2-Hp minus a2",
          "a2-Hp: a handful of strides", "figure1",
          _gap(_pathological, "a2-Hp", "a2"), ("<", 0.0)),
    Claim("fig1-low-miss-majority", "Fig. 1",
          "smallest share of strides with miss ratio <= 20%, over the "
          "schemes", "most strides behave well", "figure1",
          lambda r: min((h.counts[0] + h.counts[1]) / h.total
                        for h in r.histograms.values()), (">", 0.5),
          note="The compulsory-miss floor of the 8-sweep workload is 12.5%, "
               "so the first two deciles are the low-miss region."),
    Claim("ablation-skewing", "§2",
          "share of pathological strides < 1024, a2-Hp-Sk minus a2-Hp",
          "none (ablation)", "skewing",
          _gap(_pathological, "a2-Hp-Sk", "a2-Hp"), ("<=", 0.0)),
    Claim("ablation-irreducible", "§2",
          "worst stride miss ratio, modulus x^7+x+1 minus x^7+1",
          "none (ablation)", "polynomial",
          _gap(dict.get, "irreducible", "reducible"), ("<=", 0.0)),
    Claim("ablation-policy", "§2",
          "worst swim load miss ratio on a2-Hp-Sk, LRU/random/PLRU",
          "none (ablation)", "policy", lambda r: max(r.values()),
          ("<", 0.35)),
    Claim("s21-conv-vs-ipoly", "§2.1",
          "mean miss ratio (points), conventional minus I-Poly skewed",
          "13.84% - 7.14%", "miss-ratio",
          _gap(_average, "conventional-2way", "ipoly-skewed-2way"),
          (">", 3.0)),
    Claim("s21-ipoly-vs-full", "§2.1",
          "the same, I-Poly skewed minus fully associative",
          "7.14% - 6.80%", "miss-ratio",
          _gap(_average, "ipoly-skewed-2way", "fully-associative"),
          (">", -6.0, "<=", 3.0)),
    Claim("s21-unskewed-ipoly", "§2.1",
          "the same, I-Poly unskewed minus conventional",
          "I-Poly beats conventional", "miss-ratio",
          _gap(_average, "ipoly-2way", "conventional-2way"), ("<", 0.0)),
    Claim("s21-victim", "§2.1",
          "the same, direct-mapped + 8 victims minus I-Poly skewed",
          "victim cache short of I-Poly", "miss-ratio",
          _gap(_average, "victim-direct+8", "ipoly-skewed-2way"), (">", 0.0)),
    Claim("t2-miss-cut", "Table 2",
          "combined load miss ratio, 8K-ipoly-noCP / 8K-conv",
          "9.68% / 16.53%", "table2",
          _gap(lambda r, c: r.miss_ratio_table().get("Combined average", c),
               "8K-ipoly-noCP", "8K-conv", operator.truediv), ("<", 0.8)),
    Claim("t2-ipc-ipoly", "Table 2",
          "combined IPC, 8K-ipoly-noCP minus 8K-conv", "a gain", "table2",
          _gap(_combined_ipc, "8K-ipoly-noCP", "8K-conv"), (">", 0.0)),
    Claim("t2-ipc-cp", "Table 2",
          "combined IPC, 8K-ipoly-CP minus 8K-ipoly-noCP",
          "the XOR stage costs IPC", "table2",
          _gap(_combined_ipc, "8K-ipoly-CP", "8K-ipoly-noCP"), ("<=", 1e-9)),
    Claim("t2-ipc-pred", "Table 2",
          "combined IPC, 8K-ipoly-CP-pred minus 8K-ipoly-CP",
          "prediction wins it back", "table2",
          _gap(_combined_ipc, "8K-ipoly-CP-pred", "8K-ipoly-CP"), (">=", 0.0)),
    Claim("t2-ipc-pred-vs-nocp", "Table 2",
          "combined IPC, 8K-ipoly-CP-pred minus 8K-ipoly-noCP",
          "about 0", "table2",
          _gap(_combined_ipc, "8K-ipoly-CP-pred", "8K-ipoly-noCP"),
          (">=", -0.02)),
    Claim("t2-ipc-16k", "Table 2", "combined IPC, 16K-conv minus 8K-conv",
          "a gain", "table2", _gap(_combined_ipc, "16K-conv", "8K-conv"),
          (">=", 0.0)),
    Claim("t2-std-dev", "Conclusions",
          "std-dev of program miss ratios, 8K-ipoly-noCP / 8K-conv",
          "5.16 / 18.49", "table2",
          _gap(lambda r, c: miss_ratio_std_dev(r)[c], "8K-ipoly-noCP",
               "8K-conv", operator.truediv), ("<", 0.6)),
    Claim("t2-bad-ipc", "Table 2",
          "smallest IPC gain of a bad program, 8K-ipoly-noCP minus 8K-conv",
          "large gains", "table2",
          _each("8K-ipoly-noCP", "8K-conv", min, HIGH_CONFLICT_PROGRAMS),
          (">", 0.0)),
    Claim("t2-bad-miss", "Table 2",
          "largest bad-program load miss ratio, 8K-ipoly-noCP / 8K-conv",
          "conflicts removed", "table2",
          lambda r: max(r.miss_ratio_percent(p, "8K-ipoly-noCP")
                        / r.miss_ratio_percent(p, "8K-conv")
                        for p in HIGH_CONFLICT_PROGRAMS),
          ("<", 0.5)),
    Claim("t2-cp-each", "Table 2",
          "largest program IPC change, 8K-ipoly-CP minus 8K-ipoly-noCP",
          "never a gain", "table2",
          _each("8K-ipoly-CP", "8K-ipoly-noCP", max), ("<=", 1e-9)),
    Claim("t2-pred-each", "Table 2",
          "smallest program IPC change, 8K-ipoly-CP-pred minus 8K-ipoly-CP",
          "never a loss", "table2",
          _each("8K-ipoly-CP-pred", "8K-ipoly-CP", min), (">=", -1e-9)),
    Claim("t3-bad-cp", "Table 3",
          "bad programs' IPC gain (%), 8K-ipoly-CP over 8K-conv", "~27",
          "table3", lambda r: _summary(r, "bad_ipoly_cp_vs_8k_conv"),
          (">", 15.0)),
    Claim("t3-bad-pred-vs-cp", "Table 3",
          "the same gain with prediction minus without (points)",
          "~33 - ~27", "table3",
          _gap(_summary, "bad_ipoly_cp_pred_vs_8k_conv",
               "bad_ipoly_cp_vs_8k_conv"), (">=", 0.0)),
    Claim("t3-bad-pred-vs-16k", "Table 3",
          "bad programs' IPC gain (%), 8K-ipoly-CP-pred over 16K-conv",
          "up to 16", "table3",
          lambda r: _summary(r, "bad_ipoly_cp_pred_vs_16k_conv"), (">", 0.0)),
    Claim("t3-good-cp", "Table 3",
          "good programs' IPC change (%), 8K-ipoly-CP over 8K-conv",
          "about -1.7", "table3",
          lambda r: _summary(r, "good_ipoly_cp_vs_8k_conv"),
          (">", -6.0, "<=", 1.0)),
    Claim("t3-good-pred-vs-cp", "Table 3",
          "the same change with prediction minus without (points)",
          "the deficit shrinks", "table3",
          _gap(_summary, "good_ipoly_cp_pred_vs_8k_conv",
               "good_ipoly_cp_vs_8k_conv"), (">", -1e-9)),
    Claim("holes-model-256k", "§3.3", "eq. (ix) P_H, 8 KB L1 / 256 KB L2",
          "0.031", "holes",
          lambda r: r.predicted_hole_probability[256 * 1024],
          ("==", 255 / 8192)),
    Claim("holes-model-64k", "§3.3", "eq. (ix) P_H, 8 KB L1 / 64 KB L2",
          "(2^8 - 1) / 2^11", "holes",
          lambda r: r.predicted_hole_probability[64 * 1024],
          ("==", 255 / 2048)),
    Claim("holes-sim-vs-model", "§3.3",
          "largest simulated hole rate minus P_H, 64 KB and 256 KB L2",
          "below the model", "holes",
          lambda r: max(r.simulated_hole_rate[s]
                        - r.predicted_hole_probability[s] for s in r.l2_sizes),
          ("<=", 0.02)),
    Claim("holes-sim-nonnegative", "§3.3", "smallest simulated hole rate",
          "a rate", "holes", lambda r: min(r.simulated_hole_rate.values()),
          (">=", 0.0)),
    Claim("holes-l2-misses", "§3.3", "fewest L2 misses of the two L2 sizes",
          "some", "holes", lambda r: min(r.l2_misses.values()), (">", 0)),
    Claim("holes-bigger-l2", "§3.3",
          "simulated hole rate, 256 KB minus 64 KB L2", "no more holes",
          "holes",
          _gap(lambda r, s: r.simulated_hole_rate[s], 256 * 1024, 64 * 1024),
          ("<=", 1e-9)),
    Claim("ca-first-probe", "§3.1", "mean share of hits on the first probe",
          "about 90%", "column-assoc",
          lambda r: r.mean_first_probe_hit_ratio(), (">", 0.85)),
    Claim("ca-hit-time-mean", "§3.1", "mean average hit time (probes)",
          "slightly above 1", "column-assoc",
          lambda r: r.table().get("Average", "avg hit time"), ("<", 1.2)),
    Claim("ca-hit-time-min", "§3.1", "smallest program average hit time",
          "at least 1", "column-assoc",
          lambda r: min(r.average_hit_time.values()), (">=", 1.0)),
    Claim("ca-hit-time-max", "§3.1", "largest program average hit time",
          "below 1.5 (swim)", "column-assoc",
          lambda r: max(r.average_hit_time.values()), ("<", 1.5)),
    Claim("ca-probes-min", "§3.1", "smallest program probes per access",
          "at least 1", "column-assoc",
          lambda r: min(r.average_probes.values()), (">=", 1.0)),
    Claim("ca-probes-max", "§3.1", "largest program probes per access",
          "well below 2", "column-assoc",
          lambda r: max(r.average_probes.values()), ("<", 1.9)),
    Claim("cp-fan-in", "§3", "largest XOR fan-in, 7-bit index, 19 bits",
          "never above 5", "critical-path",
          lambda r: r.costs[_SEVEN].max_fan_in, ("<=", 5)),
    Claim("cp-index-bits", "§3", "index bits of that function", "7",
          "critical-path", lambda r: r.costs[_SEVEN].index_bits, ("==", 7)),
    Claim("cp-gates", "§3", "its 2-input XOR gates", "tens",
          "critical-path", lambda r: r.costs[_SEVEN].two_input_gates,
          ("<", 40)),
    Claim("cp-cla-19", "§3.4", "CLA delays until 19 low bits are ready",
          "about 9", "critical-path",
          lambda r: r.cla_delays[19]["low_bits_delay"], ("==", 9)),
    Claim("cp-cla-full", "§3.4", "CLA delays of the full 64-bit add",
          "about 11", "critical-path",
          lambda r: r.cla_delays[19]["full_add_delay"], ("==", 11)),
    Claim("cp-cla-slack", "§3.4", "slack of the 19 low bits (delays)",
          "the XOR stage fits", "critical-path",
          lambda r: r.cla_delays[19]["slack"], (">=", 1)),
    Claim("cp-cla-13", "§3.4", "CLA delays until 13 low bits are ready",
          "earlier", "critical-path",
          lambda r: r.cla_delays[13]["low_bits_delay"], ("<=", 9)),
)


def _format(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Ledger:
    """Every claim with the value measured for it."""

    rows: Tuple[Tuple[Claim, float], ...]

    def render(self) -> str:
        """The ledger as a Markdown table, then the rows' notes."""
        lines = ["| claim | section | measured quantity | paper | measured "
                 "| bound | result |", "|---|---|---|---|---|---|---|"]
        lines += [f"| `{claim.id}` | {claim.section} | {claim.quantity} "
                  f"| {claim.paper} | {_format(value)} | {claim.bound_text()} "
                  f"| {'pass' if claim.holds(value) else 'FAIL'} |"
                  for claim, value in self.rows]
        notes = [f"- `{claim.id}`: {claim.note}"
                 for claim, _ in self.rows if claim.note]
        return "\n".join(lines + ([""] + notes if notes else []))

    def failure_report(self) -> str:
        """One line per failed claim, or ``""`` when every claim holds."""
        failed = [
            f"  {claim.id}: measured {_format(value)}, bound "
            f"{claim.bound_text()}" for claim, value in self.rows
            if not claim.holds(value)]
        if not failed:
            return ""
        return "\n".join([f"{len(failed)} claim(s) failed:"] + failed)


def check_claims(results: Dict[str, Any]) -> Ledger:
    """Measure every row of :data:`CLAIMS` on ``results``
    (:func:`run_experiments`)."""
    return Ledger(tuple((claim, claim.measure(results[claim.experiment]))
                        for claim in CLAIMS))
