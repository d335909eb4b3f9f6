"""Hardware view of linear (XOR-based) index functions.

Both the conventional bit-select function and the I-Poly modulus are *linear*
over GF(2): each output index bit is the XOR of a fixed subset of input
address bits.  That means the whole placement function can be described by a
GF(2) bit matrix — exactly what a hardware implementation is: one XOR tree
per index bit whose inputs are the matrix's ones.

This module derives that matrix from any :class:`~repro.core.index.IndexFunction`
by probing it with single-bit inputs, checks that the probed function really
is linear, and reports the hardware cost figures the paper quotes in
Section 3 (per-bit fan-in, gate counts, XOR-tree depth).

The paper states that for its experiments the per-bit fan-in never exceeds 5
and that an 8-bit index needs "just eight XOR gates with fan-in of 3 or 4";
``tests/test_xor_matrix.py`` checks those claims against the polynomials used
by the experiment drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from .index import IndexFunction

__all__ = [
    "XorMatrix",
    "HardwareCost",
    "derive_xor_matrix",
    "is_linear",
    "choose_low_fanin_polynomial",
]


@dataclass(frozen=True)
class HardwareCost:
    """Summary of the XOR-tree implementation cost of an index function.

    Attributes
    ----------
    index_bits:
        Number of output bits (one XOR tree each).
    max_fan_in:
        Largest number of address bits feeding any single index bit.
    mean_fan_in:
        Average fan-in over all index bits.
    total_inputs:
        Total number of (address-bit, index-bit) connections.
    two_input_gates:
        Number of 2-input XOR gates needed if each tree is built from
        2-input gates (``fan_in - 1`` per tree).
    tree_depth_gates:
        Depth of the deepest balanced XOR tree in 2-input-gate levels
        (``ceil(log2(fan_in))``); this is the extra delay the index function
        adds to the address path.
    """

    index_bits: int
    max_fan_in: int
    mean_fan_in: float
    total_inputs: int
    two_input_gates: int
    tree_depth_gates: int


@dataclass
class XorMatrix:
    """GF(2) matrix mapping address bits to index bits.

    ``rows[i]`` is an integer bit-mask over the input address bits: bit ``j``
    of ``rows[i]`` is set when address bit ``j`` participates in the XOR that
    produces index bit ``i``.
    """

    address_bits: int
    rows: List[int] = field(default_factory=list)

    @property
    def index_bits(self) -> int:
        """Number of output (index) bits."""
        return len(self.rows)

    def fan_in(self, index_bit: int) -> int:
        """Number of address bits XORed to produce ``index_bit``."""
        return bin(self.rows[index_bit]).count("1")

    def inputs_of(self, index_bit: int) -> List[int]:
        """The address-bit positions feeding ``index_bit``, ascending."""
        row = self.rows[index_bit]
        return [j for j in range(self.address_bits) if row >> j & 1]

    def apply(self, block_number: int) -> int:
        """Evaluate the matrix on ``block_number`` (for cross-checking)."""
        masked = block_number & ((1 << self.address_bits) - 1)
        result = 0
        for i, row in enumerate(self.rows):
            parity = bin(masked & row).count("1") & 1
            result |= parity << i
        return result

    def cost(self) -> HardwareCost:
        """Return the :class:`HardwareCost` summary for this matrix."""
        fan_ins = [self.fan_in(i) for i in range(self.index_bits)]
        max_fan_in = max(fan_ins) if fan_ins else 0
        total = sum(fan_ins)
        gates = sum(max(f - 1, 0) for f in fan_ins)
        depth = max((math.ceil(math.log2(f)) if f > 1 else 0) for f in fan_ins) if fan_ins else 0
        return HardwareCost(
            index_bits=self.index_bits,
            max_fan_in=max_fan_in,
            mean_fan_in=total / self.index_bits if self.index_bits else 0.0,
            total_inputs=total,
            two_input_gates=gates,
            tree_depth_gates=depth,
        )

    def pretty(self) -> str:
        """Render the matrix as a small table (index bit -> address bits)."""
        lines = []
        for i in range(self.index_bits):
            inputs = ", ".join(f"a{j}" for j in self.inputs_of(i))
            lines.append(f"index[{i}] = XOR({inputs})")
        return "\n".join(lines)


def derive_xor_matrix(func: IndexFunction, way: int = 0) -> XorMatrix:
    """Derive the XOR matrix of a linear index function by single-bit probing.

    Raises :class:`ValueError` if the function is not linear over GF(2)
    (e.g. a block-number modulus), because such a function has no pure-XOR
    hardware realisation.
    """
    bits = func.address_bits_used
    if func.index(0, way) != 0:
        raise ValueError(f"{func.name} is not linear: f(0) != 0")
    rows = [0] * func.index_bits
    for j in range(bits):
        column = func.index(1 << j, way)
        for i in range(func.index_bits):
            if column >> i & 1:
                rows[i] |= 1 << j
    matrix = XorMatrix(address_bits=bits, rows=rows)
    if not is_linear(func, matrix, way=way):
        raise ValueError(f"{func.name} is not a linear (XOR-realisable) index function")
    return matrix


def choose_low_fanin_polynomial(index_bits: int, address_bits: int,
                                max_candidates: int = 64) -> int:
    """Pick the irreducible polynomial minimising the worst XOR fan-in.

    The paper emphasises that its index functions never need XOR gates with
    more than five inputs.  Fan-in depends on both the polynomial and the
    number of address bits fed to the hash, so this helper enumerates up to
    ``max_candidates`` irreducible polynomials of the right degree, derives
    each one's XOR matrix for ``address_bits`` inputs, and returns the
    polynomial whose largest per-bit fan-in is smallest (ties broken by total
    gate count, then by numeric value for determinism).
    """
    from .gf2 import irreducible_polynomials
    from .index import IPolyIndexing

    if index_bits < 1 or address_bits < index_bits:
        raise ValueError("address_bits must be at least index_bits (both positive)")
    best_poly = None
    best_key = None
    for count, poly in enumerate(irreducible_polynomials(index_bits)):
        if count >= max_candidates:
            break
        func = IPolyIndexing(1 << index_bits, address_bits=address_bits,
                             polynomials=[poly])
        cost = derive_xor_matrix(func).cost()
        key = (cost.max_fan_in, cost.total_inputs, poly)
        if best_key is None or key < best_key:
            best_key = key
            best_poly = poly
    if best_poly is None:
        raise ValueError(f"no irreducible polynomial of degree {index_bits} found")
    return best_poly


def is_linear(func: IndexFunction, matrix: XorMatrix, way: int = 0, samples: int = 256) -> bool:
    """Check that ``matrix`` reproduces ``func`` on a deterministic sample of inputs.

    Linearity is verified by comparing the matrix evaluation against the
    original function for a spread of block numbers, including all single-bit
    and adjacent two-bit patterns plus a deterministic pseudo-random sweep.
    """
    bits = func.address_bits_used
    probes = set()
    for j in range(bits):
        probes.add(1 << j)
        if j + 1 < bits:
            probes.add((1 << j) | (1 << (j + 1)))
    # Deterministic LCG sweep keeps the check reproducible without `random`.
    state = 0x9E3779B97F4A7C15
    for _ in range(samples):
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        probes.add(state & ((1 << bits) - 1))
    return all(func.index(p, way) == matrix.apply(p) for p in probes)
