"""Vectorized virtual->real translation: the batch page-table walk.

The scalar :class:`~repro.memory.paging.PageTable` answers one virtual
address at a time.  The batch engine needs the same answers for a whole
:class:`AddressBatch` before its index pipeline runs:
:func:`batch_page_frames` resolves the frame of every access in one pass.
Unmapped pages are faulted through :meth:`PageTable.frame_of` in
first-touch trace order — the exact order a per-access loop would fault
them — so the resulting mapping, the allocator state and the
``page_faults`` counter are identical to the scalar walk sequence (the
scatter allocator rejection-samples against the set of frames in use *at
allocation time*, which only the first-touch order reproduces).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..memory.paging import PageTable
from . import ckernels
from .batch import AddressBatch

__all__ = ["batch_page_frames"]


def _address_array(addresses: Union[AddressBatch, np.ndarray]) -> np.ndarray:
    if isinstance(addresses, AddressBatch):
        addresses = addresses.addresses
    addresses = np.asarray(addresses)
    if addresses.dtype == np.uint64:
        # A view, not a copy: it wraps an address past 2**63 as a cast
        # would (a batch holds none).
        return addresses.view(np.int64)
    return addresses.astype(np.int64, copy=False)


def batch_page_frames(page_table: PageTable,
                      addresses: Union[AddressBatch, np.ndarray],
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve ``(vpns, frames)`` (int64 arrays) for every access.

    Pages not yet mapped are demand-allocated through the scalar
    :meth:`PageTable.frame_of` in first-touch trace order, so page-table
    state and ``page_faults`` end up identical to translating each address
    in sequence.  The distinct pages come from one compiled
    ``repro_first_touch`` pass, or from ``np.unique`` without the compiled
    kernels.
    """
    addr = _address_array(addresses)
    # Page sizes are powers of two, so the shift is the floor division.
    vpns = addr >> (int(page_table.page_size).bit_length() - 1)
    if ckernels.available():
        pages, ordinals = ckernels.first_touch(vpns)
    else:
        pages, ordinals = _first_touch(vpns)
    frame_of = page_table.frame_of
    frame_lut = np.fromiter((frame_of(page) for page in pages.tolist()),
                            dtype=np.int64, count=len(pages))
    return vpns, frame_lut[ordinals]


def _first_touch(vpns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`ckernels.first_touch` in NumPy: the distinct pages in
    first-touch order and each access's index among them."""
    uniq, first_idx, inverse = np.unique(vpns, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse]

