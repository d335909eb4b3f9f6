"""Batch virtual-real hierarchy: the holes study's two levels in one loop.

Twin of the scalar :class:`~repro.cache.virtual_real.VirtualRealHierarchy`,
where an L2 miss that evicts a line L1 still holds back-invalidates the L1
copy (the "holes" of Sections 3.2/3.3 of the paper).  It runs one
trace-order loop over the two levels' array state — ``run_hierarchy`` of
:mod:`repro.engine.ckernels`, or of its Python mirror
:mod:`repro.engine.pykernels` without a C compiler — that accesses each
level through the set-associative kernel's per-access body.  A run hands
the loop the virtual addresses for L1, their translations for L2, the one
block shift both levels share, and one array, the physical line each L1
frame holds, derived from L1's tags; the loop shifts the addresses to
blocks itself, keys its line -> L1 frame map by physical line (a hash over
the L1 frames in C, a ``dict`` in Python) and reads an evicted L2 block
from the tag its fill replaced, so nothing is compacted or kept between
runs.  The scalar model's pointer maps are not kept: they always equal
{resident L1 line -> its translation}, since a page mapping never changes
once made and at most one alias of a line is resident at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..memory.paging import PageTable
from . import ckernels, pykernels
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache
from .translate_vec import batch_page_frames

__all__ = ["HierarchyBatchResult", "BatchVirtualRealHierarchy"]


@dataclass
class HierarchyBatchResult:
    """Per-access outcome arrays of one batch through the hierarchy.

    ``l2_hits`` follows the scalar access results: it is True wherever L1 hit
    (the request never probed L2, or only as write-through propagation) and
    carries the real L2 outcome on L1 misses.
    """

    l1_hits: np.ndarray
    l2_hits: np.ndarray

    def __len__(self) -> int:
        return len(self.l1_hits)

    @property
    def memory_accesses(self) -> int:
        """Number of accesses that missed both levels."""
        return int(np.count_nonzero(~self.l1_hits & ~self.l2_hits))


class BatchVirtualRealHierarchy:
    """Batch twin of :class:`~repro.cache.virtual_real.VirtualRealHierarchy`.

    Instead of a scalar ``translate`` callable it takes the
    :class:`~repro.memory.paging.PageTable` itself, because translation
    must run array-at-a-time in front of the index pipeline; page faults
    happen in first-touch trace order so the table and its fault counter
    stay bit-exact with per-access translation (see
    :mod:`repro.engine.translate_vec`).  Same construction rules and
    counters as the scalar model; :meth:`run` consumes an
    :class:`AddressBatch` and leaves both levels' state, statistics and the
    hole counters exactly where the scalar model would after the same
    trace.
    """

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache,
                 page_table: PageTable) -> None:
        for cache, label in ((l1, "L1"), (l2, "L2")):
            if not isinstance(cache, BatchSetAssociativeCache):
                raise TypeError(f"{label} must be a BatchSetAssociativeCache, "
                                f"got {type(cache).__name__}")
            if cache._classifier is not None:
                raise ValueError("the batch multi-level engine does not "
                                 "support 3C miss classification (enabled "
                                 f"on {label})")
        if l1.block_size != l2.block_size:
            raise ValueError("the virtual-real protocol requires equal "
                             f"L1/L2 block sizes ({l1.block_size} vs "
                             f"{l2.block_size})")
        if l2.size_bytes < l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")
        page_size = page_table.page_size
        if page_size < l1.block_size or page_size % l1.block_size:
            raise ValueError("page_size must be a multiple of the cache "
                             f"block size ({page_size} vs {l1.block_size})")
        self.l1 = l1
        self.l2 = l2
        self._page_table = page_table
        self._bpp = page_size // l1.block_size  # cache blocks per page
        self.holes_created = 0
        self.l2_misses_causing_holes = 0
        self.alias_invalidations = 0
        self.external_invalidations = 0

    def dispatch_strategy(self, batch: Optional[AddressBatch] = None) -> str:
        """Name of the loop :meth:`run` executes: ``"compiled-hierarchy"``
        on the compiled tier, ``"hierarchy-loop"`` (Python) without it."""
        return ("compiled-hierarchy" if ckernels.available()
                else "hierarchy-loop")

    @property
    def page_table(self) -> PageTable:
        """The page table translating this hierarchy's virtual addresses."""
        return self._page_table

    def _physical_lines(self, virt_lines: np.ndarray) -> np.ndarray:
        """Each virtual line's physical line, ``-1`` for a negative entry
        or an unmapped page (nothing is faulted in)."""
        mapping = self._page_table.mapping
        bpp = self._bpp
        frames = np.array([mapping.get(v // bpp, -1) if v >= 0 else -1
                           for v in virt_lines.tolist()], dtype=np.int64)
        return np.where(frames >= 0, frames * bpp + virt_lines % bpp, -1)

    def run(self, batch: AddressBatch) -> HierarchyBatchResult:
        """Simulate a whole batch of virtual addresses in trace order;
        state carries over to the next call."""
        addresses = np.ascontiguousarray(batch.addresses)
        _vpns, frames = batch_page_frames(self._page_table, addresses)
        # Page sizes are powers of two: a frame's base is a shift and the
        # offset a mask (frames are non-negative, so the view is exact).
        page = self._page_table.page_size
        physical = ((frames.view(np.uint64)
                     << np.uint64(page.bit_length() - 1))
                    | (addresses & np.uint64(page - 1)))
        l1, l2 = self.l1, self.l2
        s1, s2 = l1._kernel_state(), l2._kernel_state()
        kernels = ckernels if ckernels.available() else pykernels
        l1_hits, l2_hits, counts1, counts2, events = kernels.run_hierarchy(
            addresses, physical,
            np.ascontiguousarray(batch.is_write).view(np.uint8),
            shift=l1.block_shift, l1=s1, l2=s2,
            l1_line=self._physical_lines(s1["tags"].reshape(-1)))
        l1._kernel_done(s1["io"], counts1)
        l2._kernel_done(s2["io"], counts2)
        holes, back, aliases = events.tolist()
        l1.stats.invalidations += back + aliases
        l1.stats.holes_created += holes
        self.holes_created += holes
        self.l2_misses_causing_holes += holes
        self.alias_invalidations += aliases
        return HierarchyBatchResult(l1_hits, l2_hits)

    @property
    def hole_rate_per_l2_miss(self) -> float:
        """Fraction of L2 misses that created at least one L1 hole."""
        misses = self.l2.stats.misses
        return self.l2_misses_causing_holes / misses if misses else 0.0

    def flush(self) -> None:
        """Empty both levels."""
        self.l1.flush()
        self.l2.flush()

    def external_invalidate(self, physical_address: int) -> bool:
        """Scalar-identical physically-addressed coherence invalidation:
        L2 drops the line, and L1 its resident copy, if any."""
        phys_block = self.l2.block_number_of(physical_address)
        self.l2.invalidate_block(phys_block)
        resident = np.array(self.l1.resident_blocks(), dtype=np.int64)
        copies = resident[self._physical_lines(resident) == phys_block]
        if not (copies.size and self.l1.invalidate_block(int(copies[0]))):
            return False
        self.external_invalidations += 1
        return True

    def check_inclusion(self) -> bool:
        """Verify that every valid L1 line's physical image is present in L2."""
        l2_resident = set(self.l2.resident_blocks())
        resident = np.array(self.l1.resident_blocks(), dtype=np.int64)
        return all(p in l2_resident
                   for p in self._physical_lines(resident).tolist())
