"""Two-level virtual-real cache hierarchy (Wang, Baer & Levy, ISCA 1989).

The paper identifies this organisation as the most promising way to deploy
I-Poly indexing at L1: the first-level cache is virtually indexed and
virtually tagged (so the index function can use as many address bits as it
likes without waiting for translation), while the second level is physically
indexed and tagged.  The protocol between the two levels provides:

* translation — L1 misses are translated once on the way to L2;
* alias control — at most one virtual alias of any physical line may be
  resident in L1 at a time;
* Inclusion — when L2 evicts a physical line, any L1 copy is invalidated,
  creating a *hole* (Section 3.3).

Because the L1 index is computed from virtual addresses with one pseudo-random
function and the L2 index from physical addresses with another, the two
indices are uncorrelated; the analytical hole model in
:mod:`repro.models.holes` captures exactly this situation and the simulator
below measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .set_assoc import SetAssociativeCache

__all__ = ["VirtualRealAccessResult", "VirtualRealHierarchy"]


@dataclass
class VirtualRealAccessResult:
    """Outcome of one access to a :class:`VirtualRealHierarchy`."""

    virtual_block: int
    physical_block: int
    l1_hit: bool
    l2_hit: bool
    alias_invalidation: bool = False
    hole_created: bool = False

    @property
    def memory_access(self) -> bool:
        """True when the request went to main memory."""
        return not self.l1_hit and not self.l2_hit


class VirtualRealHierarchy:
    """Virtually-indexed L1 over a physically-indexed, inclusive L2.

    Parameters
    ----------
    l1:
        Virtually-indexed first-level cache (any placement function).
    l2:
        Physically-indexed second-level cache.  Must use the same block size
        as L1 (the Wang-style protocol keeps the mapping one-to-one).
    translate:
        Callable mapping a virtual byte address to a physical byte address
        (typically :meth:`repro.memory.paging.PageTable.translate`).
    page_size:
        Optional page size (bytes) of the translation behind ``translate``.
        When given, it is validated against the cache geometry — the same
        rules the batch twin derives from its page table — and exposed as
        :attr:`page_size`; translation itself still goes through
        ``translate``.
    """

    def __init__(
        self,
        l1: SetAssociativeCache,
        l2: SetAssociativeCache,
        translate: Callable[[int], int],
        page_size: Optional[int] = None,
    ) -> None:
        if l1.block_size != l2.block_size:
            raise ValueError(
                "the virtual-real protocol requires equal L1/L2 block sizes "
                f"({l1.block_size} vs {l2.block_size})"
            )
        if l2.size_bytes < l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")
        if page_size is not None:
            if page_size < 1 or page_size & (page_size - 1):
                raise ValueError(
                    f"page_size must be a power of two, got {page_size}")
            if page_size < l1.block_size or page_size % l1.block_size:
                raise ValueError(
                    "page_size must be a multiple of the cache block size "
                    f"({page_size} vs {l1.block_size})"
                )
        self.l1 = l1
        self.l2 = l2
        self._translate = translate
        self._page_size = page_size
        # Forward/reverse maps between the virtual line resident in L1 and
        # its physical line; this is the "pointer" state the Wang protocol
        # keeps so physically-addressed events can find the L1 copy without
        # reverse translation hardware.
        self._virt_of_phys: Dict[int, int] = {}
        self._phys_of_virt: Dict[int, int] = {}

        self.alias_invalidations = 0
        self.holes_created = 0
        self.l2_misses_causing_holes = 0
        self.external_invalidations = 0

    # ------------------------------------------------------------------ #

    @property
    def page_size(self) -> Optional[int]:
        """Declared page size of the translation, when one was given."""
        return self._page_size

    def access(self, virtual_address: int, is_write: bool = False) -> VirtualRealAccessResult:
        """Perform one access using a virtual address."""
        if virtual_address < 0:
            raise ValueError("virtual_address must be non-negative")
        virt_block = self.l1.block_number_of(virtual_address)
        physical_address = self._translate(virtual_address)
        phys_block = self.l2.block_number_of(physical_address)

        # Alias control: if this physical line is already resident under a
        # different virtual address, remove that alias first.
        alias_invalidation = False
        resident_virt = self._virt_of_phys.get(phys_block)
        if resident_virt is not None and resident_virt != virt_block:
            if self.l1.invalidate_block(resident_virt):
                alias_invalidation = True
                self.alias_invalidations += 1
            self._unmap(resident_virt)

        l1_result = self.l1.access_block(virt_block, is_write=is_write)
        if l1_result.hit:
            if is_write:
                # Write-through L1: the write is forwarded to L2.
                self.l2.access_block(phys_block, is_write=True)
            return VirtualRealAccessResult(virt_block, phys_block, True, True,
                                           alias_invalidation=alias_invalidation)

        # L1 miss.  If the miss allocated a frame, maintain the maps —
        # including dropping the mapping of whatever L1 line was evicted.
        if l1_result.evicted_block is not None:
            self._unmap(l1_result.evicted_block)
        if l1_result.way is not None:
            self._map(virt_block, phys_block)

        l2_result = self.l2.access_block(phys_block, is_write=is_write)
        hole = False
        if not l2_result.hit and l2_result.evicted_block is not None:
            hole = self._handle_l2_eviction(l2_result.evicted_block,
                                            filling_virt_block=virt_block)
            if hole:
                self.l2_misses_causing_holes += 1
        return VirtualRealAccessResult(virt_block, phys_block, False, l2_result.hit,
                                       alias_invalidation=alias_invalidation,
                                       hole_created=hole)

    def external_invalidate(self, physical_address: int) -> bool:
        """Handle a physically-addressed coherence invalidation.

        Returns True when an L1 line had to be invalidated.  (The L2 line is
        always invalidated.)  This is the third hole source listed in
        Section 3.3; it is counted separately because it occurs regardless of
        the indexing scheme.
        """
        phys_block = self.l2.block_number_of(physical_address)
        self.l2.invalidate_block(phys_block)
        virt_block = self._virt_of_phys.get(phys_block)
        if virt_block is None:
            return False
        invalidated = self.l1.invalidate_block(virt_block)
        self._unmap(virt_block)
        if invalidated:
            self.external_invalidations += 1
        return invalidated

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _map(self, virt_block: int, phys_block: int) -> None:
        self._phys_of_virt[virt_block] = phys_block
        self._virt_of_phys[phys_block] = virt_block

    def _unmap(self, virt_block: int) -> None:
        phys = self._phys_of_virt.pop(virt_block, None)
        if phys is not None and self._virt_of_phys.get(phys) == virt_block:
            del self._virt_of_phys[phys]

    def _handle_l2_eviction(self, evicted_phys_block: int,
                            filling_virt_block: Optional[int]) -> bool:
        """Back-invalidate the L1 copy of an evicted L2 line, if present."""
        virt_block = self._virt_of_phys.get(evicted_phys_block)
        if virt_block is None:
            return False
        invalidated = self.l1.invalidate_block(virt_block)
        self._unmap(virt_block)
        if not invalidated:
            return False
        if filling_virt_block is not None and virt_block == filling_virt_block:
            # The line being removed is the one being replaced anyway; no hole.
            return False
        self.holes_created += 1
        self.l1.stats.holes_created += 1
        return True

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #

    @property
    def hole_rate_per_l2_miss(self) -> float:
        """Fraction of L2 misses that created an L1 hole."""
        misses = self.l2.stats.misses
        return self.l2_misses_causing_holes / misses if misses else 0.0

    def check_inclusion(self) -> bool:
        """Verify that every valid L1 line's physical image is present in L2."""
        l2_resident = set(self.l2.resident_blocks())
        for virt_block in self.l1.resident_blocks():
            phys_block = self._phys_of_virt.get(virt_block)
            if phys_block is None or phys_block not in l2_resident:
                return False
        return True

    def flush(self) -> None:
        """Empty both levels and the alias maps."""
        self.l1.flush()
        self.l2.flush()
        self._virt_of_phys.clear()
        self._phys_of_virt.clear()
