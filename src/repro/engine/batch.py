"""Array-resident address batches — the engine's trace representation.

The reference simulators consume one :class:`~repro.trace.record.MemoryAccess`
object at a time; the batch engine instead works on a pair of parallel NumPy
arrays (addresses and a store mask), which the vectorized index functions and
the batch cache kernels can chew through without per-access object overhead.

Batches validate their input once, up front: negative addresses and addresses
at or above ``2**63`` raise :class:`ValueError` instead of being silently
wrapped by an unsigned cast — the classic NumPy foot-gun the differential
harness is designed to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ..trace.batching import to_arrays
from ..trace.record import MemoryAccess

__all__ = ["AddressBatch", "materialise_batch"]

#: Largest representable address: tags live in signed 64-bit stores (with -1
#: as the invalid sentinel), so block numbers — and a fortiori addresses —
#: must stay below 2**63.
MAX_ADDRESS = (1 << 63) - 1


def _validated_addresses(addresses: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    array = np.asarray(addresses)
    if array.ndim != 1:
        raise ValueError(f"addresses must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        # An empty Python list infers float64; an empty batch is still valid.
        return np.empty(0, dtype=np.uint64)
    if array.dtype.kind == "f":
        raise ValueError("addresses must be integers, got a floating-point array")
    if array.dtype.kind == "O":
        # Object arrays arise from Python ints too large for int64; validate
        # them in Python before the (then safe) cast.
        for value in array:
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"addresses must be integers, got {type(value).__name__}")
            if value < 0:
                raise ValueError("addresses must be non-negative")
            if value > MAX_ADDRESS:
                raise ValueError(f"address {value:#x} out of range (>= 2**63)")
        return array.astype(np.uint64)
    if array.dtype.kind not in "iu":
        raise ValueError(f"addresses must be integers, got dtype {array.dtype}")
    if array.size:
        if array.dtype.kind == "i" and int(array.min()) < 0:
            raise ValueError("addresses must be non-negative")
        if int(array.max()) > MAX_ADDRESS:
            raise ValueError("addresses out of range (>= 2**63)")
    return array.astype(np.uint64, copy=False)


@dataclass(frozen=True)
class AddressBatch:
    """A trace materialised into parallel NumPy arrays.

    Attributes
    ----------
    addresses:
        Byte addresses, ``uint64``.
    is_write:
        Store mask, ``bool``; ``is_write[i]`` is True when access ``i`` is a
        store.
    """

    addresses: np.ndarray
    is_write: np.ndarray

    def __len__(self) -> int:
        return self.addresses.shape[0]

    @classmethod
    def from_arrays(cls, addresses: Union[np.ndarray, Iterable[int]],
                    is_write: Optional[Union[np.ndarray, Iterable[bool]]] = None,
                    ) -> "AddressBatch":
        """Build a batch from raw arrays, validating the address range.

        ``is_write`` defaults to all-loads.
        """
        array = _validated_addresses(addresses)
        if is_write is None:
            writes = np.zeros(array.shape[0], dtype=bool)
        else:
            writes = np.asarray(is_write, dtype=bool)
            if writes.shape != array.shape:
                raise ValueError(
                    f"is_write shape {writes.shape} does not match "
                    f"addresses shape {array.shape}"
                )
        return cls(addresses=array, is_write=writes)

    @classmethod
    def from_trace(cls, trace: Iterable[MemoryAccess]) -> "AddressBatch":
        """Materialise an iterable of :class:`MemoryAccess` records."""
        addresses, writes = to_arrays(trace)
        return cls.from_arrays(addresses, writes)

    def block_numbers(self, block_size: int) -> np.ndarray:
        """Addresses shifted down to block numbers, a fresh ``int64``
        array.  The kernels shift addresses themselves; the 3C classifier
        asks for the array."""
        if block_size < 1 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        offset_bits = np.uint64(block_size.bit_length() - 1)
        # Addresses are validated below 2**63, so the view is exact.
        return (self.addresses >> offset_bits).view(np.int64)

    def slice(self, start: int, stop: int) -> "AddressBatch":
        """A view batch over ``[start, stop)``."""
        return AddressBatch(addresses=self.addresses[start:stop],
                            is_write=self.is_write[start:stop])


def materialise_batch(trace: Iterable[MemoryAccess]) -> AddressBatch:
    """Materialise a lazy trace into an :class:`AddressBatch`.

    Convenience alias for :meth:`AddressBatch.from_trace`, mirroring
    :func:`repro.trace.record.materialise`.
    """
    return AddressBatch.from_trace(trace)
