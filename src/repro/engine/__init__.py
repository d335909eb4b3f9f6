"""Vectorized batch simulation engine.

The scalar models in :mod:`repro.cache` process one
:class:`~repro.trace.record.MemoryAccess` at a time and are the behavioural
reference; this package is the fast path.  It materialises traces into NumPy
arrays (:class:`AddressBatch`), describes each cache's placement as data
(:mod:`repro.engine.index_vec`: per way, the image of each address bit of a
GF(2)-linear function), and simulates set-associative, skewed,
victim and column-associative caches over address batches
(:mod:`repro.engine.batch_cache`) in kernels that shift every access's
address to its block and compute its set from that descriptor, so nothing
derived from a trace is kept between runs, with bit-exact
:class:`~repro.cache.stats.CacheStats` agreement — enforced by the
differential suite in ``tests/test_engine_equivalence.py``.

:class:`PlacementIndexing` evaluates the same descriptor one block at a
time for the Python out-of-order core,
:class:`BatchVirtualRealHierarchy` runs the holes study's virtually-indexed
L1 over a physical L2 in one trace-order loop, and
:mod:`repro.engine.sweep` fans experiment sweeps across one process pool
(``on_error="collect"`` slots a :class:`TaskFailure` in place of a failed
task's result).
:class:`MultiConfigPlan` runs the tasks of one experiment's trace, each
on its own cache's kernel, and reads their counters back as
:class:`ProfileCounts`.

Experiment drivers expose the choice as ``engine={"reference", "vectorized"}``
(CLI: ``--engine``); :data:`ENGINES` names the valid values.
"""

from .batch import AddressBatch, materialise_batch
from .batch_cache import (
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
)
from .hierarchy_vec import BatchVirtualRealHierarchy, HierarchyBatchResult
from .index_vec import Placement, PlacementIndexing, placement, way_function
from .multiconfig import (
    MultiConfigPlan,
    ProfileCounts,
    memo_info,
    profile_cache_info,
)
from .replacement_vec import PolicyTables
from .sweep import (
    ON_ERROR_POLICIES,
    SweepOptions,
    TaskFailure,
    run_sweep,
)
from .translate_vec import batch_page_frames

__all__ = [
    "ENGINES",
    "ENGINE_REFERENCE",
    "ENGINE_VECTORIZED",
    "check_engine",
    "AddressBatch",
    "materialise_batch",
    "BatchSetAssociativeCache",
    "BatchColumnAssociativeCache",
    "BatchVictimCache",
    "BatchVirtualRealHierarchy",
    "HierarchyBatchResult",
    "batch_page_frames",
    "PolicyTables",
    "ProfileCounts",
    "MultiConfigPlan",
    # Read by perfbench/rep.py on every timed run.
    "profile_cache_info",
    "memo_info",
    "Placement",
    "PlacementIndexing",
    "placement",
    "way_function",
    "run_sweep",
    "ON_ERROR_POLICIES",
    "SweepOptions",
    "TaskFailure",
]

#: The behavioural reference: scalar models, one access at a time.
ENGINE_REFERENCE = "reference"
#: The batch engine of this package.
ENGINE_VECTORIZED = "vectorized"
#: Valid values of every driver's ``engine`` parameter.
ENGINES = (ENGINE_REFERENCE, ENGINE_VECTORIZED)


def check_engine(engine: str) -> str:
    """Validate an ``engine`` parameter value, returning it normalised."""
    label = str(engine).strip().lower()
    if label not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return label
