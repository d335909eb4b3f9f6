"""Load/store queue behaviour: store buffering and store-to-load forwarding.

In the modelled machine (as in the PA8000 the paper cites) stores are issued
to memory only when they commit, so that exceptions stay precise; loads that
depend on an earlier, still-buffered store obtain their data by *forwarding*:
the effective addresses are compared and, on a match, the store's data is
supplied directly without waiting for (or accessing) the cache.  Memory
dependences are otherwise speculated — a load never waits for an older store
with an unresolved address — which matches the ARB-style mechanism the paper
assumes and means the dependence machinery never throttles the experiments.

The model keeps the most recent buffered store per address.  A load forwards
when such a store exists, its address was computed no later than the load is
ready to issue, and it has not yet drained from the store buffer (i.e. it
commits after the load issues).  Forwarded loads complete with a one-cycle
latency and do not access the data cache, so they do not perturb the miss
ratios the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["BufferedStore", "StoreForwardingBuffer"]


@dataclass(frozen=True)
class BufferedStore:
    """The forwarding-relevant facts about one buffered store."""

    seq: int
    address: int
    address_ready_cycle: int
    commit_cycle: int


class StoreForwardingBuffer:
    """Tracks buffered stores and answers forwarding queries from younger loads."""

    #: Default cycles from a forwarding decision to data availability.
    FORWARD_LATENCY = 1

    def __init__(self, forward_latency: int = FORWARD_LATENCY) -> None:
        if forward_latency < 0:
            raise ValueError("forward_latency must be non-negative")
        self._forward_latency = forward_latency
        self._by_address: Dict[int, BufferedStore] = {}
        self.stores_observed = 0
        self.forwards = 0

    @property
    def forward_latency(self) -> int:
        """Cycles from a forwarding decision to data availability."""
        return self._forward_latency

    def record_store(self, seq: int, address: int, address_ready_cycle: int,
                     commit_cycle: int) -> None:
        """Register a store (the youngest store per address wins)."""
        if address < 0:
            raise ValueError("address must be non-negative")
        existing = self._by_address.get(address)
        if existing is None or existing.seq < seq:
            self._by_address[address] = BufferedStore(seq, address,
                                                      address_ready_cycle,
                                                      commit_cycle)
        self.stores_observed += 1

    def forward(self, load_seq: int, address: int,
                load_ready_cycle: int) -> Optional[int]:
        """Return the cycle at which forwarded data is available, or ``None``.

        ``None`` means the load must access the cache.
        """
        store = self._by_address.get(address)
        if store is None or store.seq >= load_seq:
            return None
        if store.commit_cycle <= load_ready_cycle:
            # The store has already drained to the cache; no forwarding.
            return None
        self.forwards += 1
        return max(load_ready_cycle, store.address_ready_cycle) + self._forward_latency

    def reset(self) -> None:
        """Clear all buffered stores and statistics."""
        self._by_address.clear()
        self.stores_observed = 0
        self.forwards = 0
