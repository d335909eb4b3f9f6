"""Batch multi-level engine: two-level and virtual-real hierarchies.

Twins of the scalar :class:`~repro.cache.hierarchy.TwoLevelHierarchy` and
:class:`~repro.cache.virtual_real.VirtualRealHierarchy`, where an L2 miss
that evicts a line L1 still holds back-invalidates the L1 copy (the "holes"
of Sections 3.2/3.3 of the paper).  Both run one trace-order loop over the
two levels' array state — ``run_hierarchy`` of :mod:`repro.engine.ckernels`,
or of its Python mirror :mod:`repro.engine.pykernels` without a C
compiler — that accesses each level through the set-associative kernel's
per-access body.  A run hands the loop an L1 and an L2 address array with
each level's block shift, and one array, the line each L1 frame holds,
derived from L1's tags; the loop shifts the addresses to blocks and lines
itself, keys its line -> L1 frame map by line number (a hash over the L1
frames in C, a ``dict`` in Python) and reads an evicted L2 block from the
tag its fill replaced, so nothing is compacted or kept between runs.  A
line is the L1 block (two-level: the batch's addresses at both levels) or
the physical line behind the virtually-tagged L1 line (virtual-real: the
virtual addresses at L1, their translations at L2, one shift).  The scalar
virtual-real model's pointer maps are not kept: they always equal
{resident L1 line -> its translation}, since a page mapping never changes
once made and at most one alias of a line is resident at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..memory.paging import TLB, PageTable
from . import ckernels, pykernels
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache
from .translate_vec import batch_page_frames, run_tlb_kernel

__all__ = [
    "HierarchyBatchResult",
    "BatchTwoLevelHierarchy",
    "BatchVirtualRealHierarchy",
    "batch_hierarchy_like",
    "batch_virtual_real_like",
]


@dataclass
class HierarchyBatchResult:
    """Per-access outcome arrays of one batch through a two-level engine.

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


class _BatchHierarchy:
    """What both twins share: two batch levels, the hole counters and the
    loop (:meth:`_run`).  Each twin checks its block sizes in
    ``_check_blocks(l1_block, l2_block)``."""

    _enforce_inclusion = True

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache) -> None:
        for cache, label in ((l1, "L1"), (l2, "L2")):
            if not isinstance(cache, BatchSetAssociativeCache):
                raise TypeError(f"{label} must be a BatchSetAssociativeCache, "
                                f"got {type(cache).__name__}")
            if cache._classifier is not None:
                raise ValueError("the batch multi-level engine does not "
                                 "support 3C miss classification (enabled "
                                 f"on {label})")
        self._check_blocks(l1.block_size, l2.block_size)
        if l2.size_bytes < l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")
        self.l1 = l1
        self.l2 = l2
        self.holes_created = 0
        self.l2_misses_causing_holes = 0

    def dispatch_strategy(self, batch: Optional[AddressBatch] = None) -> str:
        """Name of the loop :meth:`run` executes: ``"compiled-hierarchy"``
        on the compiled tier, ``"hierarchy-loop"`` (Python) without it."""
        return ("compiled-hierarchy" if ckernels.available()
                else "hierarchy-loop")

    def _run(self, l1_addresses: np.ndarray, l2_addresses: np.ndarray,
             writes: np.ndarray,
             resident_lines: Callable[[np.ndarray], np.ndarray]):
        """One batch through both levels in trace order: L1 looks up the
        blocks of ``l1_addresses``, L2 those of ``l2_addresses``, whose
        lines are the L1-sized blocks; ``resident_lines`` maps L1 tags to
        a fresh array of lines (``-1`` for none).  Returns the result,
        back-invalidations and alias invalidations."""
        l1, l2 = self.l1, self.l2
        s1, s2 = l1._kernel_state(), l2._kernel_state()
        kernels = ckernels if ckernels.available() else pykernels
        l1_hits, l2_hits, counts1, counts2, events = kernels.run_hierarchy(
            l1_addresses, l2_addresses,
            np.ascontiguousarray(writes).view(np.uint8),
            l1_shift=l1.block_shift, l2_shift=l2.block_shift,
            inclusive=self._enforce_inclusion, l1=s1, l2=s2,
            l1_line=resident_lines(s1["tags"].reshape(-1)))
        l1._kernel_done(s1["io"], counts1)
        l2._kernel_done(s2["io"], counts2)
        holes, causing, back, aliases = events.tolist()
        l1.stats.invalidations += back + aliases
        l1.stats.holes_created += holes
        self.holes_created += holes
        self.l2_misses_causing_holes += causing
        return HierarchyBatchResult(l1_hits, l2_hits), back, aliases

    @property
    def hole_rate_per_l2_miss(self) -> float:
        """Fraction of L2 misses that created at least one L1 hole."""
        misses = self.l2.stats.misses
        return self.l2_misses_causing_holes / misses if misses else 0.0

    def flush(self) -> None:
        """Empty both levels."""
        self.l1.flush()
        self.l2.flush()


class BatchTwoLevelHierarchy(_BatchHierarchy):
    """Batch twin of :class:`~repro.cache.hierarchy.TwoLevelHierarchy`.

    Same construction rules and counters; :meth:`run` consumes an
    :class:`AddressBatch` and leaves both levels' state, statistics and the
    hole counters exactly where the scalar model would after the same trace.
    """

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache,
                 enforce_inclusion: bool = True) -> None:
        super().__init__(l1, l2)
        self._ratio = l2.block_size // l1.block_size
        self._enforce_inclusion = enforce_inclusion
        self.back_invalidations = 0

    @staticmethod
    def _check_blocks(l1_block: int, l2_block: int) -> None:
        if l1_block > l2_block:
            raise ValueError("L1 block size must not exceed the L2 block "
                             f"size ({l1_block} vs {l2_block})")
        if l2_block % l1_block:
            raise ValueError("L2 block size must be a multiple of the L1 "
                             f"block size ({l2_block} vs {l1_block})")

    @property
    def inclusion_enforced(self) -> bool:
        """Whether back-invalidation is active."""
        return self._enforce_inclusion

    def run(self, batch: AddressBatch) -> HierarchyBatchResult:
        """Simulate a whole batch; state carries over to the next call."""
        addresses = np.ascontiguousarray(batch.addresses)
        result, back, _aliases = self._run(addresses, addresses,
                                           batch.is_write, np.copy)
        self.back_invalidations += back
        return result

    @property
    def l2_miss_count(self) -> int:
        """Number of L2 misses observed so far."""
        return self.l2.stats.misses

    def check_inclusion(self) -> bool:
        """Verify that every valid L1 block is also present in L2."""
        if not self._enforce_inclusion:
            return True
        l2_resident = set(self.l2.resident_blocks())
        return all(b // self._ratio in l2_resident
                   for b in self.l1.resident_blocks())


class BatchVirtualRealHierarchy(_BatchHierarchy):
    """Batch twin of :class:`~repro.cache.virtual_real.VirtualRealHierarchy`.

    Instead of a scalar ``translate`` callable it takes the
    :class:`~repro.memory.paging.PageTable` itself (plus an optional TLB),
    because translation must run array-at-a-time in front of the index
    pipeline; page faults happen in first-touch trace order so the table,
    the fault counter and the TLB counters stay bit-exact with per-access
    translation (see :mod:`repro.engine.translate_vec`).
    """

    def __init__(self, l1: BatchSetAssociativeCache,
                 l2: BatchSetAssociativeCache,
                 page_table: PageTable,
                 tlb: Optional[TLB] = None) -> None:
        super().__init__(l1, l2)
        page_size = page_table.page_size
        if page_size < l1.block_size or page_size % l1.block_size:
            raise ValueError("page_size must be a multiple of the cache "
                             f"block size ({page_size} vs {l1.block_size})")
        if tlb is not None and tlb._page_size != page_size:
            raise ValueError("TLB and page table must agree on page size")
        self._page_table = page_table
        self._tlb = tlb
        self._bpp = page_size // l1.block_size  # cache blocks per page
        self.alias_invalidations = 0
        self.external_invalidations = 0

    @staticmethod
    def _check_blocks(l1_block: int, l2_block: int) -> None:
        if l1_block != l2_block:
            raise ValueError("the virtual-real protocol requires equal "
                             f"L1/L2 block sizes ({l1_block} vs {l2_block})")

    @property
    def page_table(self) -> PageTable:
        """The page table translating this hierarchy's virtual addresses."""
        return self._page_table

    @property
    def tlb(self) -> Optional[TLB]:
        """The TLB fronting translation, if any."""
        return self._tlb

    def _physical_lines(self, virt_lines: np.ndarray) -> np.ndarray:
        """Each virtual line's physical line, ``-1`` for a negative entry
        or an unmapped page (nothing is faulted in)."""
        mapping = self._page_table.mapping
        bpp = self._bpp
        frames = np.array([mapping.get(v // bpp, -1) if v >= 0 else -1
                           for v in virt_lines.tolist()], dtype=np.int64)
        return np.where(frames >= 0, frames * bpp + virt_lines % bpp, -1)

    def run(self, batch: AddressBatch) -> HierarchyBatchResult:
        """Simulate a whole batch of virtual addresses."""
        addresses = np.ascontiguousarray(batch.addresses)
        vpns, frames = batch_page_frames(self._page_table, addresses)
        if self._tlb is not None:
            run_tlb_kernel(self._tlb, vpns, frames)
        # Page sizes are powers of two: a frame's base is a shift and the
        # offset a mask (frames are non-negative, so the view is exact).
        page = self._page_table.page_size
        physical = ((frames.view(np.uint64)
                     << np.uint64(page.bit_length() - 1))
                    | (addresses & np.uint64(page - 1)))
        result, _back, aliases = self._run(
            addresses, physical, batch.is_write, self._physical_lines)
        self.alias_invalidations += aliases
        return result

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


def batch_hierarchy_like(hierarchy) -> BatchTwoLevelHierarchy:
    """Build a cold batch twin of a scalar :class:`TwoLevelHierarchy`."""
    from .replay import batch_cache_like

    return BatchTwoLevelHierarchy(
        batch_cache_like(hierarchy.l1), batch_cache_like(hierarchy.l2),
        enforce_inclusion=hierarchy.inclusion_enforced)


def batch_virtual_real_like(vr, page_table: PageTable,
                            tlb: Optional[TLB] = None
                            ) -> BatchVirtualRealHierarchy:
    """Build a cold batch twin of a scalar :class:`VirtualRealHierarchy`.

    The scalar model only holds a ``translate`` callable, so pass the twin
    its *own* ``PageTable`` (and ``TLB``, if the scalar side translated
    through one), seeded identically: translation mutates them.
    """
    from .replay import batch_cache_like

    return BatchVirtualRealHierarchy(
        batch_cache_like(vr.l1), batch_cache_like(vr.l2), page_table,
        tlb=tlb)
