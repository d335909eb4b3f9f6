"""Sweep-wide memoisation of block-number arrays.

A sweep runs many tasks over the same few traces: the replacement study
drives every (organisation, policy) pair with one program trace, the
miss-ratio study drives seven organisations with it, and Figure 1 revisits
each stride once per scheme.  Each task shifts the same addresses down to
block numbers; that array is a pure function of the trace and the block
size, so this module keeps one small, size-bounded, process-global memo
table for it (each worker process of a fan-out sweep holds its own; the
threads of one process share it, which is why
:class:`~repro.core.memo_util.BoundedMemo` is lock-guarded).  Set indices
are not memoised: the kernels compute them per access from the cache's
placement descriptor (:mod:`repro.engine.index_vec`).

Keys combine the block size with the *object* identity of the address
array.  Two safety rules keep identity-keying sound:

* the entry stores a strong reference to its input and is only served
  while that reference still ``is`` the argument, so a recycled ``id()``
  can never alias two different traces;
* only **immutable** input arrays participate at all — a writable array
  can be mutated in place between runs, which no identity check can see,
  so writable inputs are recomputed fresh every call (exactly the
  un-memoised behaviour).

The trace cache in :mod:`repro.trace.batching` hands out read-only arrays
with stable identity, which is what makes its traces memoisable here.
Results are marked read-only before they are shared.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.memo_util import BoundedMemo

__all__ = [
    "cached_block_numbers",
    "memo_info",
    "memo_clear",
]

#: Block-number arrays per (addresses identity, block size).
_BLOCKS = BoundedMemo(32, 32 * 1024 * 1024)


def cached_block_numbers(batch, block_size: int) -> np.ndarray:
    """``batch.block_numbers(block_size)``, memoised on the address array.

    Only *immutable* address arrays participate (the trace cache hands
    those out): a writable array can be mutated in place between runs, and
    the identity anchor cannot see that — serving the stale derivation
    would silently simulate the old trace.  Writable inputs are computed
    fresh on every call, exactly like the un-memoised engine did.
    """
    addresses = batch.addresses
    if addresses.flags.writeable:
        return batch.block_numbers(block_size)

    def build() -> np.ndarray:
        blocks = batch.block_numbers(block_size)
        blocks.flags.writeable = False
        return blocks

    return _BLOCKS.get((id(addresses), block_size), build, anchor=addresses)


def memo_info() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters of the memo table (for tests and reports)."""
    return {"blocks": _BLOCKS.info()}


def memo_clear() -> None:
    """Drop every memoised array and zero the counters."""
    _BLOCKS.clear()
