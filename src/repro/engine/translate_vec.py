"""Vectorized virtual->real translation: batch page-table walks and TLB runs.

The scalar translation front-end (:mod:`repro.memory.paging` /
:mod:`repro.memory.translation`) answers one virtual address at a time.  The
batch engine needs the same answers for a whole :class:`AddressBatch` before
its index pipeline runs, so this module provides array counterparts that
drive the *same* scalar objects and stay bit-exact with per-access use:

* :func:`batch_page_frames` resolves the frame of every access in one pass.
  Unmapped pages are faulted through :meth:`PageTable.frame_of` in
  first-touch trace order — the exact order a per-access loop would fault
  them — so the resulting mapping, the allocator state and the
  ``page_faults`` counter are identical to the scalar walk sequence (the
  scatter allocator rejection-samples against the set of frames in use *at
  allocation time*, which only the first-touch order reproduces).
* :func:`run_tlb_kernel` replays a batch of translations against a scalar
  :class:`~repro.memory.paging.TLB` with runs of equal pages collapsed:
  within a run of accesses to one page, every access after the first is a
  guaranteed hit that only re-touches the MRU entry, so one real
  lookup/insert plus a counter bump reproduces the per-access ``hits`` /
  ``misses`` counters and the exact LRU order of ``TLB._table``.

The batch paths assume the TLB's contents were produced by the same page
table (always true unless internals are hand-doctored): a TLB hit then
yields the same frame the page table would.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..memory.paging import TLB, PageTable
from . import ckernels
from .batch import AddressBatch

__all__ = ["batch_page_frames", "run_tlb_kernel"]


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


def run_tlb_kernel(tlb: TLB, vpns: np.ndarray,
                   frames: np.ndarray) -> np.ndarray:
    """Replay a page-number stream against a scalar TLB; returns the hit mask.

    ``frames[i]`` must be the page-table frame of ``vpns[i]`` (see
    :func:`batch_page_frames`); it is what a miss inserts, exactly as the
    scalar :meth:`AddressTranslator.lookup` does after its walk.  Counters
    (``hits``/``misses``) and the recency order of ``TLB._table`` match the
    per-access sequence bit-exactly.
    """
    n = len(vpns)
    hit = np.ones(n, dtype=bool)
    if n == 0:
        return hit
    starts = np.flatnonzero(np.r_[True, vpns[1:] != vpns[:-1]])
    ends = np.r_[starts[1:], n]
    table = tlb._table
    entries = tlb.entries
    hits = tlb.hits
    misses = tlb.misses
    for vpn, frame, s, e in zip(vpns[starts].tolist(), frames[starts].tolist(),
                                starts.tolist(), ends.tolist()):
        if vpn in table:
            table.move_to_end(vpn)
            hits += 1
        else:
            misses += 1
            hit[s] = False
            table[vpn] = frame
            if len(table) > entries:
                table.popitem(last=False)
        # The rest of the run re-touches the (already MRU) entry: pure hits.
        hits += e - s - 1
    tlb.hits = hits
    tlb.misses = misses
    return hit
