"""Experiment E-CP: critical-path analysis of the I-Poly XOR stage.

Section 3 makes two hardware claims that can be checked analytically:

* the XOR trees are small — "the implementation of such a function for a
  cache with an 8-bit index would require just eight XOR gates" and "the
  number of inputs is never higher than 5" for the polynomials used in the
  experiments;
* the 19 low-order address bits the hash consumes are available (in a binary
  carry-lookahead adder for 64-bit addresses) after about 9 block delays,
  versus about 11 for the complete addition, so the XOR stage can hide in the
  slack unless the design already overlaps cache access with the add.

This driver derives the XOR matrices of the experiment's index functions,
reports their fan-in / gate-count / tree-depth costs, and evaluates the CLA
timing model for a configurable range of hash widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..analysis.reporting import TableBuilder
from ..core.index import IPolyIndexing
from ..core.xor_matrix import HardwareCost, choose_low_fanin_polynomial, derive_xor_matrix
from ..models.cla_timing import ClaTimingModel

__all__ = ["CriticalPathResult", "run_critical_path_study"]


@dataclass
class CriticalPathResult:
    """Hardware-cost and timing figures for a set of index-function widths."""

    address_bits: int
    costs: Dict[str, HardwareCost] = field(default_factory=dict)
    cla_delays: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def cost_table(self) -> TableBuilder:
        """XOR-tree cost per index configuration."""
        columns = ["index bits", "max fan-in", "mean fan-in", "2-input gates",
                   "tree depth"]
        table = TableBuilder(columns, row_label="configuration")
        for label, cost in self.costs.items():
            table.add_row(label, {
                "index bits": cost.index_bits,
                "max fan-in": cost.max_fan_in,
                "mean fan-in": cost.mean_fan_in,
                "2-input gates": cost.two_input_gates,
                "tree depth": cost.tree_depth_gates,
            })
        return table

    def timing_table(self) -> TableBuilder:
        """CLA availability of the hash input bits versus the full addition."""
        columns = ["low-bits delay", "full-add delay", "slack", "xor hidden"]
        table = TableBuilder(columns, row_label="hash bits")
        for bits, row in self.cla_delays.items():
            table.add_row(str(bits), {
                "low-bits delay": row["low_bits_delay"],
                "full-add delay": row["full_add_delay"],
                "slack": row["slack"],
                "xor hidden": "yes" if row["slack"] >= 1 else "no",
            })
        return table

    def render(self) -> str:
        """Render both tables."""
        return (self.cost_table().render(title="XOR-tree implementation cost")
                + "\n\n"
                + self.timing_table().render(title="CLA timing (block delays)"))


def run_critical_path_study(
        index_bit_widths: Sequence[int] = (7, 8),
        address_bits: int = 19,
        hash_bit_widths: Sequence[int] = (13, 19),
        cla_address_bits: int = 64) -> CriticalPathResult:
    """Evaluate XOR-tree costs and CLA slack for the paper's configurations.

    For each index width the polynomial is chosen with
    :func:`~repro.core.xor_matrix.choose_low_fanin_polynomial`, modelling a
    designer who picks the cheapest irreducible polynomial — which is how the
    paper's "never higher than 5" figure arises.
    """
    result = CriticalPathResult(address_bits=address_bits)
    for bits in index_bit_widths:
        poly = choose_low_fanin_polynomial(bits, address_bits)
        func = IPolyIndexing(1 << bits, address_bits=address_bits,
                             polynomials=[poly])
        cost = derive_xor_matrix(func).cost()
        result.costs[f"{bits}-bit index / {address_bits} address bits"] = cost

    model = ClaTimingModel(address_bits=cla_address_bits, block_bits=2)
    for bits in hash_bit_widths:
        result.cla_delays[bits] = {
            "low_bits_delay": model.delay_for_bits(bits),
            "full_add_delay": model.full_add_delay,
            "slack": model.slack_for_bits(bits),
        }
    return result
