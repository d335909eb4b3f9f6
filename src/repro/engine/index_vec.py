"""Placement as data: the per-way descriptor the kernels evaluate.

Every placement function of :mod:`repro.core.index` is linear over GF(2):
bit selection, the XOR fold (skewed or not), I-Poly (skewed or not) and the
single set of a fully-associative cache.  A linear function is fully
described by the image of each address bit — the set of the block number
``1 << j`` — because the set of any block is the XOR of the images of its
set bits (the paper's §3.4 XOR trees; see
:func:`repro.core.xor_matrix.derive_xor_matrix`).  Bits at or above the
function's window (``address_bits_used``) have image 0.

:func:`way_function` probes one way of a function once per ``cache_key``;
:class:`Placement` gathers the way-functions a cache needs (one for a
conventional cache, one per way for a skewed cache, primary and secondary
for a column-associative cache) as the array the kernels take.  The C
kernels expand the images into per-byte XOR tables at call start and
compute the sets of a chunk of accesses at a time, one table lookup per
byte of the window for every two functions; :meth:`Placement.sets` is the
NumPy mirror of that evaluation for the Python kernel tier, and
:class:`PlacementIndexing` the scalar one for the Python out-of-order core.
The scalar :meth:`~repro.core.index.IndexFunction.index` stays the oracle.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.gf2 import gf2_mod
from ..core.index import (
    BitSelectIndexing,
    IndexFunction,
    IPolyIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
    _check_block_and_way,
)

__all__ = [
    "WayFunction",
    "way_function",
    "Placement",
    "placement",
    "PlacementIndexing",
    # Read by perfbench/rep.py on every timed run.
    "remainder_table",
]

#: The linear families: their way-functions are probed.
_LINEAR = (BitSelectIndexing, SingleSetIndexing, XorFoldIndexing,
           IPolyIndexing)


class WayFunction(NamedTuple):
    """One way's placement: the XOR of ``images[j]`` over the block's set
    bits ``j < len(images)``."""

    images: Tuple[int, ...]


#: Way-functions per (``cache_key``, way).
_WAY_FUNCTIONS: Dict[tuple, WayFunction] = {}


def way_function(fn: IndexFunction, way: int) -> WayFunction:
    """The descriptor of ``fn``'s ``way``, probed once per ``cache_key``.

    Raises ``ValueError`` for a function outside the registered families.
    """
    if isinstance(fn, PlacementIndexing):
        fn = fn.base
    if not isinstance(fn, _LINEAR):
        raise ValueError(
            f"no placement descriptor for index function {type(fn).__name__}")
    key = fn.cache_key
    found = _WAY_FUNCTIONS.get((key, way)) if key is not None else None
    if found is not None:
        return found
    found = WayFunction(tuple(fn.index(1 << j, way)
                              for j in range(fn.address_bits_used)))
    if key is not None:
        _WAY_FUNCTIONS[(key, way)] = found
    return found


@functools.lru_cache(maxsize=None)
def remainder_table(polynomial: int, address_bits: int) -> Tuple[int, ...]:
    """The images of an I-Poly window: ``x**j mod polynomial`` for each bit
    ``j < address_bits`` — what :func:`way_function` probes from an
    :class:`~repro.core.index.IPolyIndexing` way using ``polynomial``."""
    return tuple(gf2_mod(1 << j, polynomial) for j in range(address_bits))


def _byte_tables(images: Sequence[int]) -> np.ndarray:
    """``bytes x 256`` XOR tables: entry ``[k, v]`` is the XOR of the
    images of the set bits of ``v << 8 * k`` (as ckernels.c builds them)."""
    padded = list(images) + [0] * (-len(images) % 8)
    tables = np.zeros((len(padded) // 8, 256), dtype=np.int64)
    for k in range(tables.shape[0]):
        for j in range(8):
            span = 1 << j
            tables[k, span:2 * span] = tables[k, :span] ^ padded[8 * k + j]
    return tables


class Placement:
    """The way-functions of one cache as the kernels take them.

    ``images`` is ``funcs x bits`` int64, each row zero-padded to the
    widest window.  Set-associative kernels use function 0 for every way
    when ``funcs`` is 1 and function ``w`` for way ``w`` otherwise; the
    column-associative kernel uses 0 as the primary and 1 as the
    secondary.  The kernel wrappers check the images against the cache's
    sets.
    """

    def __init__(self, functions: Sequence[WayFunction]) -> None:
        bits = max((len(f.images) for f in functions), default=0)
        self.images = np.zeros((len(functions), bits), dtype=np.int64)
        for row, f in zip(self.images, functions):
            row[:len(f.images)] = f.images
        self._tables = None

    @property
    def funcs(self) -> int:
        """Number of way-functions."""
        return self.images.shape[0]

    def tables(self) -> List[np.ndarray]:
        """Each function's per-byte XOR tables (built on first use)."""
        if self._tables is None:
            self._tables = [_byte_tables(row) for row in self.images]
        return self._tables

    def sets(self, blocks: np.ndarray) -> List[np.ndarray]:
        """Every function's set of each of ``blocks`` (non-negative int64):
        the kernels' evaluation in NumPy."""
        blocks = blocks.view(np.uint64)
        result = []
        for tables in self.tables():
            sets = np.zeros(blocks.shape, dtype=np.int64)
            for k, table in enumerate(tables):
                sets ^= table[(blocks >> np.uint64(8 * k)) & np.uint64(255)]
            result.append(sets)
        return result


def placement(fn: IndexFunction, ways: int) -> Placement:
    """The placement of a ``ways``-way cache indexed by ``fn``: one
    function for a conventional cache, one per way for a skewed one."""
    return Placement([way_function(fn, way)
                      for way in range(ways if fn.is_skewed else 1)])


class PlacementIndexing(IndexFunction):
    """A registered index function evaluated through its descriptor's byte
    tables, one scalar lookup per byte of the window: the L1 placement of
    the Python out-of-order core on ``index_engine="vectorized"``.

    Bit-exact with ``base`` for ways below ``ways``; it declares no
    ``cache_key`` of its own.
    """

    def __init__(self, base: IndexFunction, ways: int) -> None:
        super().__init__(base.num_sets)
        self.base = base
        self.name = base.name
        self._placement = placement(base, ways)
        self._lists = [tables.tolist()
                       for tables in self._placement.tables()]

    @property
    def is_skewed(self) -> bool:
        return self.base.is_skewed

    @property
    def address_bits_used(self) -> int:
        return self.base.address_bits_used

    def index(self, block_number: int, way: int = 0) -> int:
        _check_block_and_way(block_number, way)
        tables = self._lists[way if len(self._lists) > 1 else 0]
        result = 0
        for table in tables:
            result ^= table[block_number & 255]
            block_number >>= 8
        return result
