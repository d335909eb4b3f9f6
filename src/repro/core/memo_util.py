"""A thread-safe bounded memo shared by the engine's caching layers.

Both the process-global trace cache (:mod:`repro.trace.batching`) and the
derived-array memos (:mod:`repro.engine.memo`) need the same machinery: an
LRU table bounded by entry count *and* retained bytes (oversized caches
pin dead arrays and degrade kernel locality), hit/miss accounting, an
oversize bypass so one huge value cannot monopolise the budget, and a lock
(the threads of one process share its caches).  This
module holds that machinery once, parameterised over the value type.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

__all__ = ["BoundedMemo"]

#: Default sentinel: entries without an identity anchor.
_NO_ANCHOR = object()


class BoundedMemo:
    """Thread-safe LRU memo bounded by entry count and retained bytes.

    Parameters
    ----------
    limit:
        Maximum number of entries; least-recently-used evicted first.
    byte_limit:
        Maximum bytes retained across all entry values, as measured by
        ``nbytes_of``.  A value bigger than half this budget is returned
        *uncached* — at that size rebuilding is cheaper than letting one
        value monopolise (and repeatedly flush) the cache.
    nbytes_of:
        Measures one value's retained bytes; defaults to its ``nbytes``
        attribute (a NumPy array).  Identity anchors are not counted —
        they are usually shared between entries.

    :meth:`get` optionally takes an identity ``anchor``: the entry is only
    served while the stored anchor *is* the passed object, which lets
    callers key on ``id()`` of an input array without ever serving an
    entry for a recycled id.  The anchor reference also keeps the input
    alive, guaranteeing the id cannot be recycled while the entry exists.
    """

    def __init__(self, limit: int, byte_limit: int,
                 nbytes_of: Optional[Callable[[Any], int]] = None) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        if byte_limit < 1:
            raise ValueError("byte_limit must be positive")
        self.limit = limit
        self.byte_limit = byte_limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self._nbytes_of = nbytes_of or (lambda value: value.nbytes)
        self._bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Tuple[Any, Any]]" = OrderedDict()

    def get(self, key: tuple, build: Callable[[], Any],
            anchor: Any = _NO_ANCHOR) -> Any:
        """The cached value for ``key``, building (and caching) on a miss.

        ``build`` runs outside the lock — it must be deterministic, so two
        racing threads at worst duplicate work (the last insert wins).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is anchor:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[1]
            self.misses += 1
        value = build()
        if self._nbytes_of(value) > self.byte_limit // 2:
            with self._lock:
                self.bypasses += 1
            return value
        with self._lock:
            stale = self._entries.pop(key, None)
            if stale is not None:
                self._bytes -= self._nbytes_of(stale[1])
            self._entries[key] = (anchor, value)
            self._bytes += self._nbytes_of(value)
            self._evict_over_bounds()
        return value

    def _evict_over_bounds(self) -> None:
        while (len(self._entries) > self.limit
               or self._bytes > self.byte_limit):
            _, (_, dropped) = self._entries.popitem(last=False)
            self._bytes -= self._nbytes_of(dropped)
            self.evictions += 1

    def set_limit(self, limit: int) -> int:
        """Change the entry bound (evicting immediately); returns the old."""
        if limit < 1:
            raise ValueError("limit must be positive")
        with self._lock:
            old = self.limit
            self.limit = limit
            self._evict_over_bounds()
        return old

    def clear(self) -> None:
        """Drop every entry and zero every counter."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bypasses = 0

    @property
    def nbytes(self) -> int:
        """Bytes retained by the entry values (anchors not counted)."""
        return self._bytes

    def stats(self) -> dict:
        """One consistent snapshot of the memo's accounting.

        Taken under the lock, so the counters and occupancy are mutually
        consistent even while threads hammer the memo concurrently: hits,
        misses, evictions, oversize bypasses, live entry count, retained
        bytes, and both bounds.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bypasses": self.bypasses,
                "limit": self.limit,
                "byte_limit": self.byte_limit,
                "nbytes": self._bytes,
            }

    def info(self) -> dict:
        """Alias of :meth:`stats` (the historical name)."""
        return self.stats()

    def __len__(self) -> int:
        return len(self._entries)
