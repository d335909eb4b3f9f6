"""Vectorized placement functions: whole-array set-index computation.

The scalar :mod:`repro.core.index` functions map one block number to one set
index; every trace-level experiment calls them once per access (and, for
skewed caches, once per way).  This module computes the same indices for a
whole NumPy array of block numbers at once:

* bit selection is a vectorized mask;
* the XOR fold is two vectorized field extractions, a per-way rotate and an
  XOR;
* the I-Poly remainder exploits the linearity of GF(2) division — the
  remainder of a sum (XOR) of terms is the XOR of the terms' remainders — so
  the polynomial remainder of every address bit can be precomputed once into
  per-byte lookup tables (:class:`GF2RemainderTable`) and the whole-array
  remainder becomes a handful of table gathers and XORs;
* the prime-modulus scheme is a vectorized ``%``.

Every vectorized function is built *from* a scalar
:class:`~repro.core.index.IndexFunction` instance via :func:`vectorize_index`
and is bit-exact with it by construction; the differential test-suite
(``tests/test_engine_equivalence.py`` and the Hypothesis properties in
``tests/test_engine_properties.py``) asserts element-wise agreement for all
families.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Type

import numpy as np

from ..core.gf2 import gf2_mod
from ..core.index import (
    BitSelectIndexing,
    IndexFunction,
    IPolyIndexing,
    PrimeModuloIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
)

__all__ = [
    "GF2RemainderTable",
    "remainder_table",
    "VectorizedIndex",
    "vectorize_index",
]

#: Width (in bits) of one lookup-table chunk.  Eight keeps every table at 256
#: entries, small enough to stay resident in L1 while the gather runs.
_CHUNK_BITS = 8
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1


class GF2RemainderTable:
    """Precomputed GF(2) remainders of byte-aligned chunks for one polynomial.

    ``gf2_mod`` is linear over GF(2): ``rem(a ^ b) == rem(a) ^ rem(b)``.
    Splitting an ``address_bits``-wide block number into 8-bit chunks
    therefore reduces the whole-array remainder to one 256-entry table lookup
    per chunk plus XORs — no per-element Python division at all.

    Parameters
    ----------
    polynomial:
        The modulus polynomial (integer bit-encoding, as in
        :mod:`repro.core.gf2`).
    address_bits:
        Number of low-order block-number bits that participate; higher bits
        are truncated exactly like the scalar
        :class:`~repro.core.index.IPolyIndexing` does.
    """

    def __init__(self, polynomial: int, address_bits: int) -> None:
        if polynomial <= 1:
            raise ValueError("polynomial must have degree >= 1")
        if address_bits < 1:
            raise ValueError("address_bits must be positive")
        self.polynomial = polynomial
        self.address_bits = address_bits
        self._address_mask = np.uint64((1 << address_bits) - 1)
        num_chunks = (address_bits + _CHUNK_BITS - 1) // _CHUNK_BITS
        tables = np.empty((num_chunks, _CHUNK_SIZE), dtype=np.uint64)
        for chunk in range(num_chunks):
            shift = chunk * _CHUNK_BITS
            for value in range(_CHUNK_SIZE):
                tables[chunk, value] = gf2_mod(value << shift, polynomial)
        self._tables = tables
        # Plain-Python view of the same tables for scalar (per-int) lookups.
        self.scalar_tables: List[List[int]] = tables.astype(int).tolist()

    def reduce(self, blocks: np.ndarray) -> np.ndarray:
        """Return ``gf2_mod(block & mask, polynomial)`` for a whole array."""
        masked = blocks.astype(np.uint64, copy=False) & self._address_mask
        result = self._tables[0][masked & np.uint64(_CHUNK_MASK)]
        for chunk in range(1, self._tables.shape[0]):
            shift = np.uint64(chunk * _CHUNK_BITS)
            result ^= self._tables[chunk][(masked >> shift) & np.uint64(_CHUNK_MASK)]
        return result

    def reduce_scalar(self, block: int) -> int:
        """Scalar chunked lookup, bit-exact with :func:`~repro.core.gf2.gf2_mod`."""
        if block < 0:
            raise ValueError("block_number must be non-negative")
        masked = block & ((1 << self.address_bits) - 1)
        result = 0
        chunk = 0
        while masked:
            result ^= self.scalar_tables[chunk][masked & _CHUNK_MASK]
            masked >>= _CHUNK_BITS
            chunk += 1
        return result


@functools.lru_cache(maxsize=None)
def remainder_table(polynomial: int, address_bits: int) -> GF2RemainderTable:
    """Shared, cached :class:`GF2RemainderTable` per (polynomial, window).

    Filling a table runs hundreds of scalar GF(2) divisions; sweeps that
    build one cache per configuration (e.g. Figure 1's per-stride caches)
    would otherwise rebuild identical tables thousands of times.  Tables are
    immutable after construction, so sharing them is safe.
    """
    return GF2RemainderTable(polynomial, address_bits)


def _check_blocks(blocks: np.ndarray) -> np.ndarray:
    """Validate and normalise a block-number array.

    Rejects negative entries (which a silent cast to an unsigned dtype would
    wrap to huge positive block numbers) and entries at or above ``2**63``
    (which would overflow the engine's signed tag stores) — mirroring the
    scalar functions' ``ValueError`` on negative input.
    """
    blocks = np.asarray(blocks)
    if blocks.dtype.kind not in "iu":
        raise ValueError(f"block numbers must be integers, got dtype {blocks.dtype}")
    if blocks.dtype.kind == "i" and blocks.size and int(blocks.min()) < 0:
        raise ValueError("block numbers must be non-negative")
    if blocks.size and int(blocks.max()) >= (1 << 63):
        raise ValueError("block numbers must be below 2**63")
    return blocks.astype(np.uint64, copy=False)


class VectorizedIndex:
    """Array-at-a-time view of one scalar :class:`IndexFunction`.

    Obtained from :func:`vectorize_index`; computes per-way set indices for
    whole block-number arrays, bit-exactly matching ``scalar.index`` element
    by element.
    """

    def __init__(self, scalar: IndexFunction) -> None:
        self._scalar = scalar

    @property
    def scalar(self) -> IndexFunction:
        """The scalar function this vectorization was built from."""
        return self._scalar

    @property
    def num_sets(self) -> int:
        """Number of sets indexed into (same as the scalar function)."""
        return self._scalar.num_sets

    def way_indices(self, blocks: np.ndarray, way: int = 0) -> np.ndarray:
        """Set index of every block in ``blocks`` for one way (uint64 array)."""
        if way < 0:
            raise ValueError("way must be non-negative")
        return self._way_indices(_check_blocks(blocks), way)

    # Subclasses implement the actual computation on validated uint64 input.
    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        raise NotImplementedError


class _VecBitSelect(VectorizedIndex):
    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        return blocks & np.uint64(self.num_sets - 1)


class _VecSingleSet(VectorizedIndex):
    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        return np.zeros(blocks.shape, dtype=np.uint64)


class _VecPrimeModulo(VectorizedIndex):
    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        return blocks % np.uint64(self._scalar.prime)


class _VecXorFold(VectorizedIndex):
    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        scalar = self._scalar
        m = scalar.index_bits
        mask = np.uint64(scalar.num_sets - 1)
        low = blocks & mask
        high = (blocks >> np.uint64(m)) & mask
        if scalar.is_skewed:
            amount = way % m if m else 0
            if amount:
                high = ((high << np.uint64(amount))
                        | (high >> np.uint64(m - amount))) & mask
        return low ^ high


class _VecIPoly(VectorizedIndex):
    def __init__(self, scalar: IPolyIndexing) -> None:
        super().__init__(scalar)
        address_bits = scalar.address_bits_used
        self._tables: Dict[int, GF2RemainderTable] = {
            poly: remainder_table(poly, address_bits)
            for poly in scalar.polynomials
        }

    def table_for_way(self, way: int) -> GF2RemainderTable:
        """The remainder table serving ``way``."""
        return self._tables[self._scalar.polynomial_for_way(way)]

    def _way_indices(self, blocks: np.ndarray, way: int) -> np.ndarray:
        return self.table_for_way(way).reduce(blocks)


_VECTORIZERS: Dict[Type[IndexFunction], Type[VectorizedIndex]] = {
    BitSelectIndexing: _VecBitSelect,
    SingleSetIndexing: _VecSingleSet,
    PrimeModuloIndexing: _VecPrimeModulo,
    XorFoldIndexing: _VecXorFold,
    IPolyIndexing: _VecIPoly,
}


def vectorize_index(fn: IndexFunction) -> VectorizedIndex:
    """Build the vectorized counterpart of a scalar index function.

    Dispatches on the concrete class (subclasses inherit their parent's
    vectorization, so e.g. :class:`~repro.cache.fully_assoc` single-set
    functions and tabulated I-Poly variants are covered automatically).
    """
    for klass in type(fn).__mro__:
        vectorizer = _VECTORIZERS.get(klass)
        if vectorizer is not None:
            return vectorizer(fn)
    raise ValueError(
        f"no vectorization registered for index function {type(fn).__name__}"
    )
