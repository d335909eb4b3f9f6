"""Sweep-wide memoisation of derived address arrays.

A sweep runs many tasks over the same few traces: the replacement study
drives every (organisation, policy) pair with one program trace, the
miss-ratio study drives seven organisations with it, and Figure 1 revisits
each stride once per scheme.  Each task re-derives the same two arrays from
scratch — the block numbers of the batch and the per-way set indices of the
cache's placement function.  Both are pure functions of long-lived inputs,
so this module keeps small, size-bounded, process-global memo tables for
them (each worker process of a fan-out sweep holds its own; the threads
of one process share its tables, which is why
:class:`~repro.core.memo_util.BoundedMemo` is lock-guarded).

Keys combine the *semantic* identity of the computation (block size, the
index function's :attr:`~repro.core.index.IndexFunction.cache_key`, the way)
with the *object* identity of the input array.  Two safety rules keep
identity-keying sound:

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
    "cached_set_indices",
    "memo_info",
    "memo_clear",
]

#: Block-number arrays per (addresses identity, block size).
_BLOCKS = BoundedMemo(32, 32 * 1024 * 1024)
#: Set-index arrays per (index-function key, way, blocks identity).
_SETS = BoundedMemo(64, 32 * 1024 * 1024)


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


def cached_set_indices(vec_index, blocks: np.ndarray, way: int) -> np.ndarray:
    """One way's set indices for ``blocks`` as a shared int64 array.

    Memoised per (index-function ``cache_key``, way, blocks identity) when
    ``blocks`` is immutable; writable block arrays — and functions that do
    not declare a :attr:`cache_key` — are computed fresh every time (never
    cached, never aliased).
    """
    fn_key = vec_index.scalar.cache_key
    if fn_key is None or blocks.flags.writeable:
        return vec_index.way_indices(blocks, way).astype(np.int64)

    def build() -> np.ndarray:
        sets = vec_index.way_indices(blocks, way).astype(np.int64)
        sets.flags.writeable = False
        return sets

    return _SETS.get((fn_key, way, id(blocks)), build, anchor=blocks)


def memo_info() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters of the memo tables (for tests and reports)."""
    return {"blocks": _BLOCKS.info(), "sets": _SETS.info()}


def memo_clear() -> None:
    """Drop every memoised array (all tables) and zero the counters."""
    _BLOCKS.clear()
    _SETS.clear()
