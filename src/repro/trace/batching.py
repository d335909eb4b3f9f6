"""Materialising traces into NumPy arrays for the batch engine.

The generators in :mod:`repro.trace.generators` yield
:class:`~repro.trace.record.MemoryAccess` objects lazily; the batch engine
wants plain address / store-mask arrays.  :func:`to_arrays` converts any
trace, and the ``*_arrays`` builders synthesise the workloads directly as
arrays — no per-access object is ever created, which matters when a sweep
needs millions of references per configuration.
:func:`~repro.trace.workloads.workload_arrays` (re-exported here) builds the
synthetic programs, :func:`strided_vector_arrays` Figure 1's vectors.

Array builders are bit-exact with their generator counterparts (asserted in
``tests/test_engine_equivalence.py`` and ``tests/test_trace_workloads.py``).

The trace cache
---------------

:func:`cached_workload_arrays` keeps the last workload trace it built and
hands the same read-only arrays to a repeat of that call.  It holds one
entry: each sweep task owns one trace source, so a larger cache only kept
finished tasks' traces alive.  Nothing downstream keys on the arrays'
identity; the batch kernels shift addresses to blocks themselves.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Tuple

import numpy as np

from .record import MemoryAccess
from .workloads import workload_arrays

__all__ = [
    "to_arrays",
    "strided_vector_arrays",
    "workload_arrays",
    "cached_workload_arrays",
    "trace_cache_info",
    "trace_cache_clear",
]


def to_arrays(trace: Iterable[MemoryAccess]) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise a trace into ``(addresses, is_write)`` NumPy arrays.

    ``addresses`` is ``uint64``, ``is_write`` is ``bool``; both have one
    entry per access, in trace order.
    """
    addresses = []
    writes = []
    for access in trace:
        addresses.append(access.address)
        writes.append(access.is_write)
    if not addresses:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=bool)
    return (np.array(addresses, dtype=np.uint64),
            np.array(writes, dtype=bool))


def strided_vector_arrays(
    stride: int,
    elements: int = 64,
    element_size: int = 8,
    sweeps: int = 4,
    base: int = 0,
    is_write: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Array-native :func:`~repro.trace.generators.strided_vector`.

    Returns the same address sequence as the generator (Figure 1's repeated
    strided sweeps) without constructing any :class:`MemoryAccess` objects.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if elements < 1 or sweeps < 1:
        raise ValueError("elements and sweeps must be positive")
    if base < 0:
        raise ValueError("base must be non-negative")
    step = stride * element_size
    top = base + (elements - 1) * step
    if top >= 1 << 64:
        # The scalar generator keeps arbitrary-precision ints, so a uint64
        # wraparound here would silently diverge from it instead of failing.
        raise ValueError(
            f"address overflow: base {base:#x} plus the last element offset "
            f"{(elements - 1) * step:#x} reaches {top:#x}, past the uint64 "
            "address space")
    offsets = np.arange(elements, dtype=np.uint64)
    if elements > 1:
        offsets = offsets * np.uint64(step)
    one_sweep = np.uint64(base) + offsets
    addresses = np.tile(one_sweep, sweeps)
    writes = np.full(addresses.shape[0], bool(is_write), dtype=bool)
    return addresses, writes


# --------------------------------------------------------------------- #
# process-global trace cache
# --------------------------------------------------------------------- #

@functools.lru_cache(maxsize=1)
def _frozen_workload_arrays(name: str, length: int, block_size: int,
                            seed: int) -> Tuple[np.ndarray, np.ndarray]:
    addresses, writes = workload_arrays(name, length=length,
                                        block_size=block_size, seed=seed)
    # Shared arrays must be immutable: a task scribbling on its "own"
    # trace would silently corrupt the next task's input.
    addresses.flags.writeable = False
    writes.flags.writeable = False
    return addresses, writes


def cached_workload_arrays(name: str, length: int = 100_000,
                           block_size: int = 32,
                           seed: int = 12345) -> Tuple[np.ndarray, np.ndarray]:
    """Materialised ``(addresses, is_write)`` of one synthetic workload.

    :func:`workload_arrays` behind the one-entry trace cache: a repeat of
    the last call returns the identical read-only arrays, any other call
    synthesises afresh and replaces the entry.
    """
    return _frozen_workload_arrays(str(name), int(length), int(block_size),
                                   int(seed))


def trace_cache_info() -> Dict[str, int]:
    """Entry count and hit/miss counters of the trace cache."""
    info = _frozen_workload_arrays.cache_info()
    return {"entries": info.currsize, "hits": info.hits,
            "misses": info.misses}


def trace_cache_clear() -> None:
    """Drop the cached trace and zero the hit/miss counters."""
    _frozen_workload_arrays.cache_clear()
