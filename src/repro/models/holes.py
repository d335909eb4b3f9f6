"""Analytical model of Inclusion "holes" (Section 3.3, equations vii-ix).

With pseudo-random index functions at L1 (virtual) and L2 (physical) there is
no correlation between where a datum sits in the two levels.  When L2 evicts
a line, the probability that the same line is also resident in a
direct-mapped L1 is the capacity ratio

    P_r = 2^m1 / 2^m2 = 2^(m1 - m2)                                   (vii)

where ``m1`` and ``m2`` are the number of index bits at L1 and L2.  If it is
resident, the back-invalidation only creates a *hole* when the invalidated L1
frame is not the very frame being refilled by the miss that triggered the L2
replacement, which happens with probability

    P_d = (2^m1 - 1) / 2^m1                                           (viii)

giving a net hole probability per L2 miss of

    P_H = P_d * P_r = (2^m1 - 1) / 2^m2                               (ix)

The paper evaluates this for an 8 KB L1 / 256 KB L2 with 32-byte lines
(``P_H ~= 0.031``) and notes that the expected increase in L1 miss ratio is
``P_H`` times the L2 miss ratio, a negligible quantity for realistic size
ratios.  These functions reproduce those numbers; the holes rows of the
claims ledger (:mod:`repro.experiments.claims`) check them against the
:class:`~repro.cache.virtual_real.VirtualRealHierarchy` simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "index_bits_for",
    "resident_probability",
    "displacement_probability",
    "hole_probability",
    "expected_l1_missratio_increase",
    "HoleModel",
]


def index_bits_for(size_bytes: int, block_size: int, ways: int = 1) -> int:
    """Number of index bits of a cache with the given geometry.

    For the analytical model the paper treats the caches as direct-mapped, in
    which case the index covers every block; for an associative cache the
    natural generalisation (used here) is ``log2(blocks / ways)`` sets, but
    callers studying the paper's formula verbatim should pass ``ways=1``.
    """
    if size_bytes <= 0 or block_size <= 0 or ways <= 0:
        raise ValueError("sizes and ways must be positive")
    if size_bytes % (block_size * ways):
        raise ValueError("size_bytes must be a multiple of block_size * ways")
    sets = size_bytes // (block_size * ways)
    bits = math.log2(sets)
    if not bits.is_integer():
        raise ValueError(f"number of sets ({sets}) is not a power of two")
    return int(bits)


def resident_probability(m1: int, m2: int) -> float:
    """Equation (vii): probability an evicted L2 line is also resident in L1."""
    _check_bits(m1, m2)
    return 2.0 ** (m1 - m2)


def displacement_probability(m1: int) -> float:
    """Equation (viii): probability the invalidated L1 line is not the one being refilled."""
    if m1 < 0:
        raise ValueError("m1 must be non-negative")
    return (2.0 ** m1 - 1.0) / 2.0 ** m1


def hole_probability(m1: int, m2: int) -> float:
    """Equation (ix): net probability that an L2 miss creates an L1 hole."""
    _check_bits(m1, m2)
    return (2.0 ** m1 - 1.0) / 2.0 ** m2


def expected_l1_missratio_increase(m1: int, m2: int, l2_miss_ratio: float) -> float:
    """Expected additional L1 miss ratio caused by holes.

    The paper models the increase in (compulsory) L1 miss ratio as the
    product of ``P_H`` and the L2 miss ratio, and reports that the
    approximation is accurate for L2:L1 size ratios of 16 or more.
    """
    if not 0.0 <= l2_miss_ratio <= 1.0:
        raise ValueError("l2_miss_ratio must be a probability")
    return hole_probability(m1, m2) * l2_miss_ratio


def _check_bits(m1: int, m2: int) -> None:
    if m1 < 0 or m2 < 0:
        raise ValueError("index bit counts must be non-negative")
    if m1 > m2:
        raise ValueError("the model assumes L2 has at least as many sets as L1")


@dataclass(frozen=True)
class HoleModel:
    """Convenience wrapper evaluating the hole model for a cache-size pair.

    >>> model = HoleModel(l1_bytes=8 * 1024, l2_bytes=256 * 1024, block_size=32)
    >>> round(model.hole_probability, 3)
    0.031
    """

    l1_bytes: int
    l2_bytes: int
    block_size: int = 32

    @property
    def m1(self) -> int:
        """Index bits of the (direct-mapped view of the) L1."""
        return index_bits_for(self.l1_bytes, self.block_size)

    @property
    def m2(self) -> int:
        """Index bits of the (direct-mapped view of the) L2."""
        return index_bits_for(self.l2_bytes, self.block_size)

    @property
    def resident_probability(self) -> float:
        """Equation (vii) for this size pair."""
        return resident_probability(self.m1, self.m2)

    @property
    def displacement_probability(self) -> float:
        """Equation (viii) for this size pair."""
        return displacement_probability(self.m1)

    @property
    def hole_probability(self) -> float:
        """Equation (ix) for this size pair."""
        return hole_probability(self.m1, self.m2)

    def missratio_increase(self, l2_miss_ratio: float) -> float:
        """Expected L1 miss-ratio increase for a given L2 miss ratio."""
        return expected_l1_missratio_increase(self.m1, self.m2, l2_miss_ratio)
