"""Sweep routing: every task of an experiment on its own cache's kernel.

Experiment sweeps hand their tasks to a :class:`MultiConfigPlan` — a result
key, the :class:`~repro.engine.batch.AddressBatch` the task replays and a
cache factory per task — and read each task's counters back as
:class:`ProfileCounts` (:class:`ProbeCounts` for a column-associative
cache), engine-agnostic values whose ratios are the same IEEE doubles the
scalar models compute.  The plan runs every task on its own cache, on
either kernel tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from .batch import AddressBatch

__all__ = [
    "ProfileCounts",
    "ProbeCounts",
    "MultiConfigPlan",
    "profile_cache_info",
    "memo_info",
]


# --------------------------------------------------------------------- #
# readout counts
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ProfileCounts:
    """Access/miss counters of one configuration, engine-agnostic.

    Field names and ratio formulas mirror :class:`~repro.cache.stats.CacheStats`
    exactly, so a ratio read out of these counts is the *same IEEE double*
    as the one a scalar run of the configuration computes — the equality
    the differential suite asserts is bit-exact, not approximate.
    """

    loads: int
    stores: int
    load_misses: int
    store_misses: int

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        """Total number of misses (loads + stores)."""
        return self.load_misses + self.store_misses

    @property
    def hits(self) -> int:
        """Total number of hits."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio; 0.0 when there are no accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_ratio(self) -> float:
        """Load miss ratio — the metric the paper's tables report."""
        return self.load_misses / self.loads if self.loads else 0.0

    @classmethod
    def from_stats(cls, stats) -> "ProfileCounts":
        """Extract the access and miss counters from a ``CacheStats``."""
        return cls(loads=stats.loads, stores=stats.stores,
                   load_misses=stats.load_misses,
                   store_misses=stats.store_misses)

    @staticmethod
    def of(cache) -> "ProfileCounts":
        """A run cache's counters: those of its ``stats``, as
        :class:`ProbeCounts` when it is column-associative (it counts
        probes)."""
        counts = ProfileCounts.from_stats(cache.stats)
        if not hasattr(cache, "total_probes"):
            return counts
        return ProbeCounts(
            counts.loads, counts.stores, counts.load_misses,
            counts.store_misses, first_probe_hits=cache.first_probe_hits,
            second_probe_hits=cache.second_probe_hits,
            total_probes=cache.total_probes)


@dataclass(frozen=True)
class ProbeCounts(ProfileCounts):
    """:class:`ProfileCounts` of a column-associative cache plus its probe
    counters, with the ratios formed as
    :class:`~repro.cache.column_assoc.ColumnAssociativeCache` forms them."""

    first_probe_hits: int
    second_probe_hits: int
    total_probes: int

    @property
    def first_probe_hit_ratio(self) -> float:
        """Fraction of hits satisfied on the first probe."""
        hits = self.first_probe_hits + self.second_probe_hits
        return self.first_probe_hits / hits if hits else 0.0

    @property
    def average_probes(self) -> float:
        """Average number of probes per access."""
        return self.total_probes / self.accesses if self.accesses else 0.0

    def average_hit_time(self, second_probe_penalty: float = 1.0) -> float:
        """Average hit time in first-probe times, a second probe costing
        ``second_probe_penalty`` more."""
        hits = self.first_probe_hits + self.second_probe_hits
        if not hits:
            return 1.0
        return 1.0 + second_probe_penalty * self.second_probe_hits / hits


# --------------------------------------------------------------------- #
# sweep routing
# --------------------------------------------------------------------- #

# Kept as a class because perfbench/tracing.py patches its run/add.
class MultiConfigPlan:
    """Run a sweep's tasks, each on its own cache, in the order added.

    Drivers :meth:`add` one entry per task — a result key, the
    :class:`AddressBatch` the task replays, and a zero-argument cache
    factory — then call :meth:`run` once.
    """

    def __init__(self) -> None:
        self._tasks: List[Tuple[Hashable, AddressBatch, object,
                                Optional[Callable]]] = []

    def add(self, key: Hashable, batch: AddressBatch,
            factory: Callable[[], object],
            runner: Optional[Callable] = None) -> None:
        """Register one task: result ``key``, its batch, a cache factory.

        ``runner(cache, batch)`` overrides how the task is driven
        (defaults to ``cache.run(batch)``) — the studies pass their scalar
        replay shim so caller-supplied organisations keep working.
        """
        self._tasks.append((key, batch, factory(), runner))

    def run(self) -> Dict[Hashable, ProfileCounts]:
        """Execute the plan; returns ``{key: ProfileCounts}`` for every task."""
        results: Dict[Hashable, ProfileCounts] = {}
        for key, batch, cache, runner in self._tasks:
            if runner is not None:
                runner(cache, batch)
            else:
                cache.run(batch)
            results[key] = ProfileCounts.of(cache)
        return results


def profile_cache_info() -> Dict[str, int]:
    """Counters of the retired level-profile memo, all zero.

    Nothing is profiled or memoised; the function stays because
    ``perfbench/rep.py`` reads it on every timed run.
    """
    return dict.fromkeys(("entries", "hits", "misses", "evictions",
                          "bypasses", "limit", "byte_limit", "nbytes"), 0)


def memo_info() -> Dict[str, Dict[str, int]]:
    """Counters of the retired derived-array memos: there are none.

    The kernels shift addresses to blocks themselves, so nothing derived
    from a trace is memoised; the function stays because
    ``perfbench/rep.py`` and ``perfbench/tracing.py`` read it.
    """
    return {}
