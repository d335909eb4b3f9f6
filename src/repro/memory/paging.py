"""Paging: a demand-allocated virtual-to-physical page table.

Section 3.1 of the paper is entirely about the interaction between cache
indexing and virtual memory: the I-Poly hash wants to see address bits above
the minimum page size, which a conventional virtually-indexed,
physically-tagged L1 cannot provide.  :class:`PageTable` maps virtual pages
to physical frames on first touch, with a configurable page size.  The
default allocation policy hands out physical frames in a pseudo-random (but
deterministic) order, modelling the fact that consecutive virtual pages
rarely get consecutive physical frames; a sequential policy is available for
experiments that want the identity-like behaviour of large contiguous
segments.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set

from .address import log2_exact, page_number, page_offset

__all__ = ["PageTable"]


class PageTable:
    """Demand-paged virtual to physical mapping.

    Parameters
    ----------
    page_size:
        Page size in bytes (power of two).
    allocation:
        ``"scatter"`` (default) allocates physical frames in a deterministic
        pseudo-random order; ``"sequential"`` allocates them in increasing
        order.  Scatter is the realistic case and the one that makes the L2's
        physical index uncorrelated with the L1's virtual index.
    seed:
        Seed for the scatter order (deterministic run-to-run).
    """

    def __init__(self, page_size: int = 4096, allocation: str = "scatter",
                 seed: int = 0xC0FFEE) -> None:
        log2_exact(page_size, "page_size")
        if allocation not in ("scatter", "sequential"):
            raise ValueError("allocation must be 'scatter' or 'sequential'")
        self._page_size = page_size
        self._allocation = allocation
        self._frames: Dict[int, int] = {}
        # The frames of _frames' values, kept beside it so a scatter fault
        # costs O(1); None until the next fault rebuilds it.
        self._used: Optional[Set[int]] = None
        self._next_frame = 0
        self._state = seed & 0xFFFFFFFFFFFFFFFF or 0xC0FFEE
        self.page_faults = 0

    @property
    def page_size(self) -> int:
        """Page size in bytes."""
        return self._page_size

    @property
    def mapped_pages(self) -> int:
        """Number of virtual pages currently mapped."""
        return len(self._frames)

    @property
    def mapping(self) -> Mapping[int, int]:
        """A read-only view of the virtual page -> frame map."""
        return MappingProxyType(self._frames)

    @property
    def _mapping(self) -> Dict[int, int]:
        """The virtual page -> frame dict itself, for code that edits it.
        Whoever takes it may change it, so the used-frame set is rebuilt
        at the next fault; take it again for each edit."""
        self._used = None
        return self._frames

    def _next_scatter(self) -> int:
        # SplitMix64 step: uniform, deterministic, and cheap.
        self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def _allocate_frame(self) -> int:
        if self._allocation == "sequential":
            frame = self._next_frame
            self._next_frame += 1
            return frame
        if self._used is None:
            self._used = set(self._frames.values())
        while True:
            frame = self._next_scatter() & 0xFFFFF  # 2^20 frames = 4 GB of 4K pages
            if frame not in self._used:
                return frame

    def frame_of(self, virtual_page: int) -> int:
        """Return (allocating on demand) the physical frame of ``virtual_page``."""
        if virtual_page < 0:
            raise ValueError("virtual_page must be non-negative")
        frame = self._frames.get(virtual_page)
        if frame is None:
            frame = self._allocate_frame()
            self._frames[virtual_page] = frame
            if self._used is not None:
                self._used.add(frame)
            self.page_faults += 1
        return frame

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual byte address to a physical byte address."""
        vpn = page_number(virtual_address, self._page_size)
        offset = page_offset(virtual_address, self._page_size)
        return (self.frame_of(vpn) * self._page_size) + offset
