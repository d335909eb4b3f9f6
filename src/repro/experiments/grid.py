"""One way to describe and run a trace-level experiment grid.

Every cache study here replays some traces through some organisations on
one engine and reads each cache's counters.  A driver says only *what*:

* **sources** — :class:`ProgramTrace` (a synthetic program),
  :class:`StrideTrace` (Figure 1's strided vector) or :class:`TraceOptions`
  (a recorded on-disk trace);
* **organisations** — :class:`~repro.experiments.config.OrganisationSpec`
  values, built for either engine;
* **options** — frozen values validated once: :class:`TraceOptions` and
  :class:`~repro.engine.sweep.SweepOptions`.  The CLI builds them and the
  drivers take them.

Sources reject a bad description with
:class:`~repro.experiments.config.InputError` when they are built, before
any simulation starts.

:func:`simulate` replays one source through a cold cache of every
organisation, each on its own kernel — on the vectorized engine through
one :class:`~repro.engine.multiconfig.MultiConfigPlan` over the
once-materialised trace, or, for a recorded trace, in one bounded chunked
pass feeding every cache (bit-identical to a whole-trace replay);
:func:`run_grid` runs one :func:`simulate` task per source through
:func:`~repro.engine.sweep.run_sweep`, serially or on one process pool.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence

from ..engine import (
    ENGINE_VECTORIZED,
    AddressBatch,
    MultiConfigPlan,
    ProfileCounts,
    SweepOptions,
    check_engine,
)
from ..trace.batching import cached_workload_arrays, strided_vector_arrays
from ..trace.generators import strided_vector
from ..trace.workloads import build_trace, workload_names
from .config import InputError, OrganisationSpec

__all__ = [
    "ProgramTrace",
    "StrideTrace",
    "TraceOptions",
    "simulate",
    "run_grid",
]


@dataclass(frozen=True)
class ProgramTrace:
    """The trace of one synthetic workload program."""

    name: str
    length: int
    seed: int

    def __post_init__(self) -> None:
        if self.name not in workload_names():
            raise InputError(f"unknown program {self.name!r}; expected one "
                             f"of {workload_names()}")
        if self.length < 1:
            raise InputError(f"trace length must be >= 1, got {self.length}")

    def batch(self) -> AddressBatch:
        return AddressBatch.from_arrays(*cached_workload_arrays(
            self.name, length=self.length, seed=self.seed))

    def accesses(self):
        return build_trace(self.name, length=self.length, seed=self.seed)


@dataclass(frozen=True)
class StrideTrace:
    """Figure 1's workload: ``sweeps`` passes over a strided vector."""

    stride: int
    elements: int = 64
    element_size: int = 8
    sweeps: int = 8

    def __post_init__(self) -> None:
        for name in ("stride", "elements", "element_size", "sweeps"):
            if getattr(self, name) < 1:
                raise InputError(
                    f"{name} must be >= 1, got {getattr(self, name)}")

    def batch(self) -> AddressBatch:
        return AddressBatch.from_arrays(*strided_vector_arrays(
            self.stride, elements=self.elements,
            element_size=self.element_size, sweeps=self.sweeps))

    def accesses(self):
        return strided_vector(self.stride, elements=self.elements,
                              element_size=self.element_size,
                              sweeps=self.sweeps)


@dataclass(frozen=True)
class TraceOptions:
    """A recorded trace to replay instead of the synthetic workloads.

    ``trace`` is a file in any format :mod:`repro.trace.stream` reads
    (packed v2, optionally gzip/bz2/xz/zstd-compressed, v1 binary/text, or
    Dinero ``.din``), or ``None`` for the synthetic workloads;
    ``trace_chunk`` is the accesses per streamed batch on the vectorized
    engine (results are identical for any chunk size).
    """

    trace: Optional[str] = None
    trace_chunk: int = 1 << 20

    def __post_init__(self) -> None:
        if self.trace_chunk < 1:
            raise InputError(f"trace chunk must be >= 1, got {self.trace_chunk}")
        if self.trace is not None:
            object.__setattr__(self, "trace", os.fspath(self.trace))
            if not Path(self.trace).is_file():
                raise InputError(f"trace file not found: {self.trace}")

    @property
    def label(self) -> str:
        """Row label a study uses for the trace (its file name)."""
        return Path(self.trace).name

    def batches(self):
        from ..trace.stream import iter_trace_chunks

        return iter_trace_chunks(self.trace, chunk_size=self.trace_chunk)

    def accesses(self):
        from ..trace.stream import read_trace_records

        return read_trace_records(self.trace)


def _feed(cache, batch: AddressBatch) -> None:
    """Drive a cache with a batch: native ``run`` or scalar replay."""
    if hasattr(cache, "run"):
        cache.run(batch)
        return
    access = cache.access
    for address, is_write in zip(batch.addresses.tolist(),
                                 batch.is_write.tolist()):
        access(address, is_write=is_write)


def simulate(source, organisations: Sequence[Any],
             engine: str) -> List[ProfileCounts]:
    """Replay ``source`` through cold caches of every organisation, each
    cache on its own kernel.

    ``organisations`` holds :class:`OrganisationSpec` values or
    zero-argument cache factories; the counts
    (:meth:`ProfileCounts.of <repro.engine.multiconfig.ProfileCounts.of>`)
    come back in their order.
    """
    factories = [functools.partial(org.build, engine)
                 if isinstance(org, OrganisationSpec) else org
                 for org in organisations]
    if engine == ENGINE_VECTORIZED and not isinstance(source, TraceOptions):
        batch = source.batch()
        plan = MultiConfigPlan()
        for index, factory in enumerate(factories):
            plan.add(index, batch, factory, runner=_feed)
        counts = plan.run()
        return [counts[index] for index in range(len(factories))]
    caches = [factory() for factory in factories]
    if engine == ENGINE_VECTORIZED:
        for batch in source.batches():
            for cache in caches:
                _feed(cache, batch)
    else:
        for cache in caches:
            access = cache.access
            for record in source.accesses():
                access(record.address, is_write=record.is_write)
    return [ProfileCounts.of(cache) for cache in caches]


def _grid_task(task: tuple) -> List[ProfileCounts]:
    """Module-level sweep worker (must be picklable for process pools)."""
    return simulate(*task)


def run_grid(sources: Sequence[Any], organisations: Sequence[OrganisationSpec],
             engine: str,
             sweep_options: SweepOptions = SweepOptions()) -> List[Any]:
    """:func:`simulate` every source, one sweep task per source.

    Returns, per source, the organisation-ordered counts — or, under
    ``on_error="collect"``, the :class:`~repro.engine.sweep.TaskFailure`
    that took its place.
    """
    engine = check_engine(engine)
    tasks = [(source, tuple(organisations), engine) for source in sources]
    return sweep_options.run(_grid_task, tasks)
