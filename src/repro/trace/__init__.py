"""Address traces: records, synthetic generators, workload models and I/O.

NumPy materialization lives in :mod:`repro.trace.batching` and the packed v2
streaming layer in :mod:`repro.trace.stream`; both are deliberately *not*
imported here (the streaming names below resolve lazily) so that the scalar
reference path (this package, the cache models and the cpu simulator) stays
importable without NumPy.
"""

from .generators import (
    multi_array_sweep,
    random_accesses,
    strided_vector,
    tiled_matrix_multiply,
)
from .record import MemoryAccess, materialise, replay, trace_length
from .trace_io import (
    TraceReader,
    read_binary_trace,
    read_text_trace,
    write_binary_trace,
    write_text_trace,
)
from .workloads import (
    FP_PROGRAMS,
    HIGH_CONFLICT_PROGRAMS,
    INTEGER_PROGRAMS,
    LOW_CONFLICT_PROGRAMS,
    WORKLOADS,
    WorkloadSpec,
    build_trace,
    workload_names,
)

#: Streaming-layer names served lazily out of :mod:`repro.trace.stream`
#: (which needs NumPy) by :func:`__getattr__` below.
_STREAM_EXPORTS = (
    "TRACE_V2_MAGIC",
    "TRACE_V2_HEADER_SIZE",
    "TRACE_V2_RECORD_BYTES",
    "DEFAULT_CHUNK_SIZE",
    "TraceFormat",
    "TraceColumns",
    "TraceV2Writer",
    "detect_trace_format",
    "write_trace_v2",
    "read_trace_v2",
    "read_din_trace",
    "import_din_trace",
    "convert_trace",
    "read_trace_records",
    "iter_trace_chunks",
    "trace_record_count",
)

__all__ = [
    "MemoryAccess",
    "trace_length",
    "materialise",
    "replay",
    "TraceReader",
    *_STREAM_EXPORTS,
    "strided_vector",
    "multi_array_sweep",
    "tiled_matrix_multiply",
    "random_accesses",
    "write_text_trace",
    "read_text_trace",
    "write_binary_trace",
    "read_binary_trace",
    "WorkloadSpec",
    "WORKLOADS",
    "HIGH_CONFLICT_PROGRAMS",
    "LOW_CONFLICT_PROGRAMS",
    "INTEGER_PROGRAMS",
    "FP_PROGRAMS",
    "build_trace",
    "workload_names",
]


def __getattr__(name):
    if name in _STREAM_EXPORTS:
        from . import stream
        return getattr(stream, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
