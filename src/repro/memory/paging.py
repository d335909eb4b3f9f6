"""Paging: page tables, page-size policy and a simple TLB.

Section 3.1 of the paper is entirely about the interaction between cache
indexing and virtual memory: the I-Poly hash wants to see address bits above
the minimum page size, which a conventional virtually-indexed,
physically-tagged L1 cannot provide.  To study the alternatives we need a
small but real paging substrate:

* :class:`PageTable` — demand-allocated virtual-to-physical page mapping with
  configurable page size.  The default allocation policy hands out physical
  frames in a pseudo-random (but deterministic) order, modelling the fact
  that consecutive virtual pages rarely get consecutive physical frames; a
  sequential policy is available for experiments that want the identity-like
  behaviour of large contiguous segments.
* :class:`TLB` — a small set-associative translation buffer with its own hit
  and miss statistics, used by the processor model when address translation
  happens before indexing (Section 3.1, option 1).
* :class:`PageSizePolicy` — the bookkeeping needed for option 2: track the
  page size of each segment and report whether every active segment is large
  enough to enable I-Poly indexing at L1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set

from .address import log2_exact, page_number, page_offset

__all__ = ["PageTable", "TLB", "Segment", "PageSizePolicy"]


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

    def is_mapped(self, virtual_address: int) -> bool:
        """True if the page containing ``virtual_address`` has been touched before."""
        return page_number(virtual_address, self._page_size) in self._frames


class TLB:
    """A small fully-associative (LRU) translation look-aside buffer."""

    def __init__(self, entries: int = 64, page_size: int = 4096) -> None:
        if entries < 1:
            raise ValueError("entries must be positive")
        log2_exact(page_size, "page_size")
        self._entries = entries
        self._page_size = page_size
        self._table: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def entries(self) -> int:
        """Capacity of the TLB."""
        return self._entries

    @property
    def hit_ratio(self) -> float:
        """TLB hit ratio."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, virtual_address: int) -> Optional[int]:
        """Return the cached frame number for the page, updating LRU state."""
        vpn = page_number(virtual_address, self._page_size)
        frame = self._table.get(vpn)
        if frame is not None:
            self._table.move_to_end(vpn)
            self.hits += 1
            return frame
        self.misses += 1
        return None

    def insert(self, virtual_address: int, frame: int) -> None:
        """Install a translation (evicting the LRU entry when full)."""
        vpn = page_number(virtual_address, self._page_size)
        self._table[vpn] = frame
        self._table.move_to_end(vpn)
        while len(self._table) > self._entries:
            self._table.popitem(last=False)

    def flush(self) -> None:
        """Drop all translations (context switch)."""
        self._table.clear()


@dataclass
class Segment:
    """A contiguous virtual region with a single page size (for option 2)."""

    base: int
    length: int
    page_size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.length <= 0:
            raise ValueError("segment base must be >= 0 and length > 0")
        log2_exact(self.page_size, "page_size")

    def contains(self, virtual_address: int) -> bool:
        """True when ``virtual_address`` falls inside this segment."""
        return self.base <= virtual_address < self.base + self.length


class PageSizePolicy:
    """Tracks per-segment page sizes and decides when I-Poly indexing is safe.

    Section 3.1 option 2: the operating system enables polynomial indexing at
    L1 only while *every* segment in use has pages of at least a threshold
    size (the paper's example: 256 KB pages for an 8 KB cache, exposing 13
    unmapped physical bits to a 7-bit hash).  Changing the decision requires
    an L1 flush, which the policy counts.
    """

    def __init__(self, threshold: int = 256 * 1024) -> None:
        log2_exact(threshold, "threshold")
        self._threshold = threshold
        self._segments: Dict[str, Segment] = {}
        self._poly_enabled = False
        self.flushes_required = 0

    @property
    def threshold(self) -> int:
        """Minimum page size for which I-Poly indexing may be enabled."""
        return self._threshold

    @property
    def poly_indexing_enabled(self) -> bool:
        """Current decision."""
        return self._poly_enabled

    def add_segment(self, name: str, segment: Segment) -> None:
        """Register (or replace) a segment and re-evaluate the decision."""
        self._segments[name] = segment
        self._reevaluate()

    def remove_segment(self, name: str) -> None:
        """Remove a segment and re-evaluate the decision."""
        self._segments.pop(name, None)
        self._reevaluate()

    def unmapped_bits(self, cache_offset_bits: int) -> int:
        """Physical address bits available to the hash below the smallest page."""
        if not self._segments:
            return 0
        smallest = min(s.page_size for s in self._segments.values())
        return max(0, log2_exact(smallest) - cache_offset_bits)

    def _reevaluate(self) -> None:
        enabled = bool(self._segments) and all(
            s.page_size >= self._threshold for s in self._segments.values()
        )
        if enabled != self._poly_enabled:
            # The paper requires an L1 flush whenever the index function changes.
            self.flushes_required += 1
            self._poly_enabled = enabled
