"""Vectorized replacement-policy state: one table holder per structure.

The scalar policies in :mod:`repro.cache.replacement` keep their decision
state in flat per-``(way, set)`` Python tables.  Every batch structure — a
set-associative cache, and a victim cache's main cache and buffer — keeps
the same state in one :class:`PolicyTables`: a ``ways x num_sets`` timestamp
table, a ``num_sets x (ways-1)`` PLRU bit-tree table and the random
policy's seed and draw counter.  Both kernel tiers read and write these
tables in place: the compiled kernels of :mod:`repro.engine.ckernels` and
their Python mirror :mod:`repro.engine.pykernels`, whose ``policy_touch`` /
``policy_victim`` hold the decision logic.  Those use the same primitives
as the scalar policies — the PLRU tree walk, ``splitmix64`` and the
``(timestamp, way)`` ordering — which is what makes every (organisation,
policy) pair bit-exact across engines, including identical random-victim
sequences from the shared :data:`~repro.cache.replacement.DEFAULT_RANDOM_SEED`.

The module also holds the vectorized splitmix64 finalizer of the columnar
workload synthesis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cache.replacement import DEFAULT_RANDOM_SEED, plru_tree_size

__all__ = [
    "SPLITMIX64_GAMMA",
    "splitmix64_finalize_array",
    "PolicyTables",
]


#: The splitmix64 state increment (the golden-ratio constant).
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalize_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 output finalizer of every element of ``x``.

    ``x`` holds already-incremented generator states (``uint64``); the
    result is a new ``uint64`` array, ``x`` is left untouched.  This is the
    one vectorized copy of the finalizer's constants; the columnar workload
    synthesis goes through it.
    """
    # The multiplies wrap by design; NumPy warns about that only for 0-d
    # input, which it computes as scalars.
    with np.errstate(over="ignore"):
        z = x ^ (x >> np.uint64(30))
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


class PolicyTables:
    """Replacement state of one batch structure of ``ways x num_sets``
    frames, as the kernels take it.

    ``stamps`` (int64, ``ways x num_sets``) holds each frame's last-use
    (LRU, PLRU) or fill (FIFO) time, and is ``None`` for random; ``bits``
    (uint8, ``num_sets x max(ways - 1, 1)``) holds the PLRU direction bits
    and is ``None`` for every other policy.  The ``n``-th random victim is
    ``splitmix64(seed + n) % ways`` — the scalar
    :class:`~repro.cache.replacement.RandomReplacement` sequence — and
    ``draws`` counts the victims drawn so far.  A flushed cache builds new
    tables: the scalar flush forgets the replacement state too.
    """

    def __init__(self, policy: str, ways: int, num_sets: int,
                 seed: Optional[int] = None) -> None:
        if seed is None:
            seed = DEFAULT_RANDOM_SEED
        self.seed = int(seed) & ((1 << 64) - 1)
        self.draws = 0
        self.stamps = (None if policy == "random"
                       else np.zeros((ways, num_sets), dtype=np.int64))
        self.bits = (np.zeros((num_sets, plru_tree_size(ways)),
                              dtype=np.uint8)
                     if policy == "plru" else None)
