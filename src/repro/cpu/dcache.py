"""Data-cache timing model for the processor simulator.

This wraps a functional :class:`~repro.cache.set_assoc.SetAssociativeCache`
(which decides hit or miss, and collects the load/store miss ratios the
paper's tables report) with the timing behaviour of the modelled L1:

* two-cycle hit time;
* an optional extra cycle when the I-Poly XOR stage sits on the critical path
  of the address computation ("Xor in CP" in Tables 2 and 3), which a correct
  address prediction removes;
* a 20-cycle miss penalty to an infinite L2;
* a lockup-free design with 8 MSHRs — up to eight outstanding misses to
  different lines, with misses to an already-outstanding line merged into the
  existing entry;
* a 64-bit L1/L2 bus on which each line transfer is busy for four cycles;
* two cache ports shared by loads (stores are written through at commit and
  are assumed to use free port slots from the store buffer, as in the paper's
  machine where stores leave the critical path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cache.set_assoc import SetAssociativeCache
from ..memory.main_memory import Bus
from .resources import ThroughputLimiter

__all__ = ["DataCacheTiming", "LoadTiming", "DataCacheModel"]


@dataclass(frozen=True)
class DataCacheTiming:
    """Latency parameters of the L1 data cache (paper Section 4 values)."""

    hit_time: int = 2
    miss_penalty: int = 20
    xor_in_critical_path: bool = False
    xor_penalty: int = 1
    ports: int = 2
    mshr_entries: int = 8
    bus_cycles_per_line: int = 4

    def __post_init__(self) -> None:
        if self.hit_time < 1 or self.miss_penalty < 0:
            raise ValueError("hit_time must be >= 1 and miss_penalty >= 0")
        if self.xor_penalty < 0 or self.ports < 1:
            raise ValueError("xor_penalty must be >= 0 and ports >= 1")
        if self.mshr_entries < 1 or self.bus_cycles_per_line < 1:
            raise ValueError("mshr_entries and bus_cycles_per_line must be >= 1")


@dataclass
class LoadTiming:
    """Timing outcome of one load's cache access."""

    start_cycle: int
    ready_cycle: int
    hit: bool
    merged: bool = False
    xor_penalty_paid: bool = False

    @property
    def latency(self) -> int:
        """Observed load-use latency contribution of the cache."""
        return self.ready_cycle - self.start_cycle


class DataCacheModel:
    """Functional + timing model of the lockup-free L1 data cache.

    With ``record_stream=True`` the model additionally records the
    ``(address, is_store)`` sequence of every *functional* cache access, in
    the exact order the underlying cache sees them — loads at issue (merged
    secondary misses included; forwarded loads never reach the cache and are
    therefore absent) and stores at commit.  Replaying that stream through a
    fresh cache of the same configuration reproduces the functional
    statistics exactly, which is what lets the differential fuzz harness
    of the test suite (``tests/fuzz_harness.py``) cross-check the
    processor's cache behaviour against the batch kernels.
    """

    def __init__(self, cache: SetAssociativeCache,
                 timing: Optional[DataCacheTiming] = None,
                 record_stream: bool = False) -> None:
        self._cache = cache
        self._timing = timing or DataCacheTiming()
        self._ports = ThroughputLimiter(self._timing.ports, name="cache-ports")
        self._bus = Bus(self._timing.bus_cycles_per_line)
        # Completion cycles of in-flight line fills, keyed by block number:
        # one per busy MSHR, so it also bounds the outstanding misses.
        self._inflight: dict = {}
        self.load_accesses = 0
        self.store_accesses = 0
        self.merged_misses = 0
        self.mshr_stall_cycles = 0
        self._record_stream = record_stream
        self.recorded_addresses: List[int] = []
        self.recorded_is_store: List[bool] = []

    @property
    def cache(self) -> SetAssociativeCache:
        """The underlying functional cache (holds the miss-ratio statistics)."""
        return self._cache

    @property
    def timing(self) -> DataCacheTiming:
        """Latency parameters in force."""
        return self._timing

    @property
    def load_miss_ratio(self) -> float:
        """Load miss ratio of the underlying cache."""
        return self._cache.stats.load_miss_ratio

    @property
    def records_stream(self) -> bool:
        """True when the model records its functional access stream."""
        return self._record_stream

    def recorded_stream(self):
        """The recorded ``(addresses, is_store)`` lists (copies).

        Raises :class:`RuntimeError` unless the model was built with
        ``record_stream=True`` — an empty stream from a model that never
        recorded anything is indistinguishable from a genuinely empty one,
        and silently replaying it would make the differential check vacuous.
        """
        if not self._record_stream:
            raise RuntimeError(
                "access-stream recording is off; build the DataCacheModel "
                "with record_stream=True")
        return list(self.recorded_addresses), list(self.recorded_is_store)

    # ------------------------------------------------------------------ #

    def _expire_inflight(self, now: int) -> None:
        done = [block for block, ready in self._inflight.items() if ready <= now]
        for block in done:
            del self._inflight[block]

    def load(self, address: int, request_cycle: int,
             predicted_index_available: bool = False) -> LoadTiming:
        """Perform a load access whose address is ready at ``request_cycle``.

        ``predicted_index_available`` indicates that a confident, correct
        address prediction allowed the cache index to be computed early; in
        that case the XOR-in-critical-path penalty does not apply (the paper's
        "with pred." columns).
        """
        timing = self._timing
        xor_penalty = 0
        xor_paid = False
        if timing.xor_in_critical_path and not predicted_index_available:
            xor_penalty = timing.xor_penalty
            xor_paid = True

        start = self._ports.record(request_cycle + xor_penalty)
        self._expire_inflight(start)

        block = self._cache.block_number_of(address)
        inflight_ready = self._inflight.get(block)
        result = self._cache.access_block(block, is_write=False)
        self.load_accesses += 1
        if self._record_stream:
            self.recorded_addresses.append(address)
            self.recorded_is_store.append(False)

        if inflight_ready is not None and inflight_ready > start:
            # The line is still being fetched: this is a secondary (merged)
            # miss — it waits for the outstanding fill, whatever the
            # functional cache said about residency.
            self.merged_misses += 1
            ready = max(inflight_ready, start + timing.hit_time)
            return LoadTiming(start, ready, result.hit, merged=True,
                              xor_penalty_paid=xor_paid)

        if result.hit:
            return LoadTiming(start, start + timing.hit_time, True,
                              xor_penalty_paid=xor_paid)

        # Primary miss: need a free MSHR.  Every fill still in flight
        # completes after ``issue`` (the rest were just expired).
        issue = start
        while len(self._inflight) >= timing.mshr_entries:
            earliest = min(self._inflight.values())
            self.mshr_stall_cycles += earliest - issue
            issue = earliest
            self._expire_inflight(issue)

        transfer_done = self._bus.reserve(issue + timing.hit_time + timing.miss_penalty
                                          - timing.bus_cycles_per_line)
        ready = max(issue + timing.hit_time + timing.miss_penalty, transfer_done)
        self._inflight[block] = ready
        return LoadTiming(start, ready, False, xor_penalty_paid=xor_paid)

    def store(self, address: int, commit_cycle: int) -> bool:
        """Perform a store at commit time; returns True on hit.

        The cache is write-through / no-write-allocate, so a store miss does
        not fetch the line; stores never stall the pipeline in this model
        because the XOR stage and the write itself happen from the store
        buffer after commit (Section 3.4).
        """
        result = self._cache.access(address, is_write=True)
        self.store_accesses += 1
        if self._record_stream:
            self.recorded_addresses.append(address)
            self.recorded_is_store.append(True)
        return result.hit

    def reset_timing_state(self) -> None:
        """Clear in-flight fills and port/bus occupancy (not the cache contents)."""
        self._ports.reset()
        self._bus = Bus(self._timing.bus_cycles_per_line)
        self._inflight.clear()
