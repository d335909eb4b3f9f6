"""Synthetic Spec95-like workload models (trace level).

The paper evaluates 18 Spec95 programs.  Those binaries and their traces are
not available here, so each program is replaced by a *workload model*: a
parameterised mixture of access patterns whose conflict structure mirrors the
behaviour the paper reports for that program.

Each model mixes three components:

``hot``
    A small working set (well under the 8 KB L1) accessed repeatedly —
    produces hits regardless of the index function.
``stream``
    A never-reused streaming sweep at block granularity — produces capacity /
    compulsory misses that *no* index function (or doubling of the cache) can
    remove.  Its share of the mix sets the floor miss ratio (what the paper's
    16 KB conventional column shows, net of that cache's remaining conflicts).
``medium``
    A looping sweep over a working set between 8 KB and 16 KB — capacity
    misses in the 8 KB caches regardless of indexing, hits once the cache is
    doubled.  Its share reproduces the gap between the paper's 8 KB and 16 KB
    conventional columns for the low-conflict programs.
``conflict``
    Several small arrays whose bases are separated by a large power of two
    and which are swept in lock-step.  Under conventional placement all the
    arrays' corresponding lines land in the same set and thrash; under
    I-Poly (and, largely, skewed-XOR) placement they spread out and hit.
    Its share sets the *conflict* miss ratio — the gap between the paper's
    conventional and I-Poly columns.

The per-program component fractions below are derived directly from Table 2's
8 KB conventional and I-Poly miss-ratio columns, so the synthetic suite
reproduces the *structure* of the paper's results: tomcatv, swim and wave5
are the three high-conflict programs, everything else is dominated by misses
that indexing cannot fix.

:func:`build_trace` yields the trace one :class:`MemoryAccess` at a time and
is the reference; :func:`workload_arrays` synthesises the same trace as
NumPy columns, bit for bit, without creating a record per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .generators import _SplitMix64
from .record import MemoryAccess

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "HIGH_CONFLICT_PROGRAMS",
    "LOW_CONFLICT_PROGRAMS",
    "INTEGER_PROGRAMS",
    "FP_PROGRAMS",
    "build_trace",
    "workload_arrays",
    "workload_names",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Mixture description of one synthetic program.

    Attributes
    ----------
    name:
        Spec95 program the model stands in for.
    conflict_fraction:
        Share of accesses drawn from the conflict component (the part of the
        miss ratio that I-Poly indexing eliminates).
    stream_fraction:
        Share of accesses drawn from the streaming component (misses no index
        function can remove).
    conflict_arrays:
        Number of lock-step arrays in the conflict component; more arrays
        means more pressure per set under conventional placement.
    hot_bytes:
        Size of the hot working set.
    is_fp:
        Whether the original program belongs to the floating-point suite.
    write_fraction:
        Fraction of hot-component accesses that are stores.
    """

    name: str
    conflict_fraction: float
    stream_fraction: float
    medium_fraction: float = 0.0
    conflict_arrays: int = 4
    hot_bytes: int = 2048
    is_fp: bool = False
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        for label, value in (("conflict_fraction", self.conflict_fraction),
                             ("stream_fraction", self.stream_fraction),
                             ("medium_fraction", self.medium_fraction)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if self.conflict_fraction + self.stream_fraction + self.medium_fraction > 1.0:
            raise ValueError("component fractions must sum to at most 1")
        if self.conflict_arrays < 3:
            raise ValueError("conflict component needs at least 3 arrays to "
                             "defeat 2-way associativity")
        if self.hot_bytes < 64:
            raise ValueError("hot_bytes too small to be meaningful")


def _spec(name: str, conv8_miss: float, ipoly8_miss: float, conv16_miss: float,
          is_fp: bool, conflict_arrays: int = 4,
          write_fraction: float = 0.25) -> WorkloadSpec:
    """Derive mixture fractions from the paper's Table 2 miss-ratio columns.

    ``conflict`` is the part of the 8 KB miss ratio that I-Poly indexing
    removes; ``stream`` is the part that not even the 16 KB cache removes;
    ``medium`` is the capacity part that doubling the cache removes (only
    meaningful for the low-conflict programs, where the 16 KB column is below
    the I-Poly column).
    """
    conflict = max(0.0, (conv8_miss - ipoly8_miss) / 100.0)
    stream = max(0.0, min(ipoly8_miss, conv16_miss, conv8_miss) / 100.0)
    medium = max(0.0, min(ipoly8_miss, conv8_miss) / 100.0 - stream)
    return WorkloadSpec(name=name, conflict_fraction=round(conflict, 4),
                        stream_fraction=round(stream, 4),
                        medium_fraction=round(medium, 4),
                        conflict_arrays=conflict_arrays, is_fp=is_fp,
                        write_fraction=write_fraction)


#: The 18 Spec95 programs of Table 2, modelled from its 16 KB conventional,
#: 8 KB conventional and 8 KB I-Poly miss-ratio columns.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "go":       _spec("go", 10.87, 10.60, 5.45, is_fp=False),
    "m88ksim":  _spec("m88ksim", 2.62, 2.62, 1.41, is_fp=False),
    "gcc":      _spec("gcc", 10.01, 10.01, 5.63, is_fp=False),
    "compress": _spec("compress", 13.63, 13.63, 12.96, is_fp=False,
                      write_fraction=0.35),
    "li":       _spec("li", 8.01, 7.10, 4.72, is_fp=False),
    "ijpeg":    _spec("ijpeg", 3.72, 2.17, 0.94, is_fp=False),
    "perl":     _spec("perl", 9.47, 9.47, 4.52, is_fp=False),
    "vortex":   _spec("vortex", 8.37, 7.87, 4.97, is_fp=False, write_fraction=0.35),
    "tomcatv":  _spec("tomcatv", 54.45, 19.67, 35.14, is_fp=True, conflict_arrays=5),
    "swim":     _spec("swim", 66.62, 8.85, 29.56, is_fp=True, conflict_arrays=5),
    "su2cor":   _spec("su2cor", 14.69, 14.66, 13.74, is_fp=True),
    "hydro2d":  _spec("hydro2d", 17.23, 17.22, 15.40, is_fp=True),
    "applu":    _spec("applu", 6.16, 6.16, 5.54, is_fp=True),
    "mgrid":    _spec("mgrid", 5.05, 5.05, 4.91, is_fp=True),
    "turb3d":   _spec("turb3d", 6.05, 5.38, 4.67, is_fp=True),
    "apsi":     _spec("apsi", 15.19, 13.36, 10.03, is_fp=True),
    "fpppp":    _spec("fpppp", 2.66, 2.47, 1.09, is_fp=True),
    "wave5":    _spec("wave5", 42.76, 14.67, 27.72, is_fp=True, conflict_arrays=5),
}

#: The three programs the paper singles out as having high conflict miss
#: ratios (Table 3's "bad" set).
HIGH_CONFLICT_PROGRAMS: List[str] = ["tomcatv", "swim", "wave5"]

#: The remaining fifteen programs (Table 3's "good" set).
LOW_CONFLICT_PROGRAMS: List[str] = [
    name for name in WORKLOADS if name not in HIGH_CONFLICT_PROGRAMS
]

INTEGER_PROGRAMS: List[str] = [n for n, s in WORKLOADS.items() if not s.is_fp]
FP_PROGRAMS: List[str] = [n for n, s in WORKLOADS.items() if s.is_fp]


def workload_names() -> List[str]:
    """Names of all modelled programs, in the paper's Table 2 order."""
    return list(WORKLOADS)


class _WorkloadState:
    """Mutable per-component cursors used while generating a workload trace."""

    #: Instruction addresses of the hot, stream and medium components'
    #: accesses; a conflict access's is ``conflict_pc + conflict_pc_step *``
    #: the array the next conflict access visits.
    hot_pc, stream_pc, medium_pc = 0x100, 0x200, 0x280
    conflict_pc, conflict_pc_step = 0x300, 8

    def __init__(self, spec: WorkloadSpec, block_size: int, seed: int) -> None:
        self.spec = spec
        self.rng = _SplitMix64(seed or 1)
        self.block_size = block_size
        # Hot component: a small array reused forever.
        self.hot_slots = max(8, spec.hot_bytes // 8)
        self.hot_cursor = 0
        self.write_threshold = int(spec.write_fraction * 1_000_000)
        # Offset the hot region by 1 KB so that, under conventional indexing,
        # it occupies different sets from the conflict component (which sits
        # at the bottom of its 64 KB-aligned arrays); the measured conflict
        # misses then come only from the conflict component itself.
        self.hot_base = 0x0010_0400
        # Stream component: block-strided, never reused.
        self.stream_cursor = 0
        self.stream_base = 0x4000_0000
        # Conflict component: `conflict_arrays` arrays spaced 64 KB apart,
        # swept in lock-step over a footprint small enough to be cached.
        self.conflict_base = 0x0100_0000
        # Arrays are spaced one way-capacity (4 KB for the paper's 8 KB 2-way
        # cache) apart: under conventional indexing of the 8 KB cache every
        # array's element i lands in the same set and the arrays thrash, while
        # a 16 KB conventional cache separates alternate arrays into two set
        # groups and removes part (but not all) of the conflicts — mirroring
        # the partial relief Table 2 shows for doubling the cache size.
        self.conflict_spacing = 4 * 1024
        # 32 * 8 B = 256 B per array keeps the conflict working set (and its
        # reuse distance, once the stream component is interleaved) well
        # inside an 8 KB cache, so these accesses hit under any
        # conflict-avoiding placement and miss only under conventional
        # placement, where all the arrays collide in the same handful of sets.
        self.conflict_elements = 32
        self.conflict_cursor = 0
        self.conflict_array = 0
        # Medium component: a block-strided loop sized so that its *reuse
        # distance* (its own blocks plus the stream blocks interleaved between
        # two visits, plus the hot and conflict sets) lands between the 8 KB
        # and 16 KB capacities.  It then thrashes in the 8 KB caches under LRU
        # whatever the index function, but fits — and hits — once the cache is
        # doubled, reproducing the 8 KB-vs-16 KB gap of the low-conflict
        # programs.
        self.medium_base = 0x0200_0000
        self.medium_cursor = 0
        hot_blocks = (self.hot_slots * 8 + block_size - 1) // block_size
        conflict_blocks = (spec.conflict_arrays * self.conflict_elements * 8
                           + block_size - 1) // block_size
        reuse_target = (14 * 1024) // block_size   # aim between 8 KB and 16 KB
        if spec.medium_fraction > 0:
            dilution = 1.0 + spec.stream_fraction / spec.medium_fraction
            available = max(16, reuse_target - hot_blocks - conflict_blocks)
            self.medium_blocks = max(16, int(available / dilution))
        else:
            self.medium_blocks = 16

    def next_hot(self) -> MemoryAccess:
        address = self.hot_base + (self.hot_cursor % self.hot_slots) * 8
        self.hot_cursor += 1
        is_write = self.rng.below(1_000_000) < self.write_threshold
        return MemoryAccess(address=address, is_write=is_write,
                            pc=self.hot_pc, size=8)

    def next_stream(self) -> MemoryAccess:
        address = self.stream_base + self.stream_cursor * self.block_size
        self.stream_cursor += 1
        return MemoryAccess(address=address, is_write=False,
                            pc=self.stream_pc, size=self.block_size)

    def next_medium(self) -> MemoryAccess:
        address = (self.medium_base
                   + (self.medium_cursor % self.medium_blocks) * self.block_size)
        self.medium_cursor += 1
        return MemoryAccess(address=address, is_write=False,
                            pc=self.medium_pc, size=self.block_size)

    def next_conflict(self) -> MemoryAccess:
        spec = self.spec
        address = (self.conflict_base
                   + self.conflict_array * self.conflict_spacing
                   + (self.conflict_cursor % self.conflict_elements) * 8)
        self.conflict_array += 1
        if self.conflict_array >= spec.conflict_arrays:
            self.conflict_array = 0
            self.conflict_cursor += 1
        return MemoryAccess(address=address, is_write=False,
                            pc=(self.conflict_pc
                                + self.conflict_pc_step * self.conflict_array),
                            size=8)


def _lookup(name: str, length: int) -> WorkloadSpec:
    """The spec of workload ``name``, after checking the trace length."""
    try:
        spec = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    if length < 1:
        raise ValueError("length must be positive")
    return spec


def _thresholds(spec: WorkloadSpec) -> Tuple[int, int, int]:
    """Upper bounds of the conflict, stream and medium draws (of 10**6);
    a draw at or above the last one picks the hot component."""
    conflict = int(spec.conflict_fraction * 1_000_000)
    stream = conflict + int(spec.stream_fraction * 1_000_000)
    return conflict, stream, stream + int(spec.medium_fraction * 1_000_000)


#: Block size the workload models assume unless told otherwise.
_BLOCK_SIZE = 32


def build_trace(name: str, length: int = 100_000,
                block_size: int = _BLOCK_SIZE,
                seed: int = 12345) -> Iterator[MemoryAccess]:
    """Generate ``length`` accesses of the named synthetic workload.

    The trace is a probabilistic interleaving of the workload's hot, stream
    and conflict components, using a deterministic PRNG so identical
    arguments always produce identical traces.
    """
    spec = _lookup(name, length)
    state = _WorkloadState(spec, block_size, seed)
    conflict_threshold, stream_threshold, medium_threshold = _thresholds(spec)

    for _ in range(length):
        draw = state.rng.below(1_000_000)
        if draw < conflict_threshold:
            yield state.next_conflict()
        elif draw < stream_threshold:
            yield state.next_stream()
        elif draw < medium_threshold:
            yield state.next_medium()
        else:
            yield state.next_hot()


#: PRNG draws :func:`workload_arrays` generates at a time; bounds its
#: scratch memory to a few megabytes whatever the trace length.
DRAW_BLOCK = 1 << 17


def workload_arrays(name: str, length: int = 100_000,
                    block_size: int = _BLOCK_SIZE, seed: int = 12345):
    """``(addresses, is_write)`` of the named workload as NumPy columns.

    Bit-exact with ``to_arrays(build_trace(name, length, block_size,
    seed))`` — ``uint64`` addresses and a ``bool`` store mask — but no
    :class:`MemoryAccess` is created.  The returned arrays are fresh and
    writeable.

    With the compiled kernels this is one ``repro_workload_trace`` call,
    which replays :func:`build_trace`'s draws in order.  Without them the
    NumPy tier draws in blocks: the scalar generator takes one PRNG draw
    per access to pick its component, and a hot access takes a second draw
    for its write decision.  Draw ``k`` of ``_SplitMix64(s)`` is
    ``mix(s + (k+1)*gamma)``, so all draws come out of one vectorized
    finalizer; counter ``c`` starts an access unless counter ``c-1``
    started a hot one.  Inside a run of hot-valued draws the starts
    alternate, so each counter's role follows from its distance to the
    last non-hot draw before it.  Draws are made :data:`DRAW_BLOCK` at a
    time, carrying the one bit "the previous counter started a hot access"
    from block to block; each component's cursor is its running access
    count.
    """
    addresses, is_write, _ = _workload_columns(name, length, block_size,
                                               seed, with_pcs=False)
    return addresses, is_write


def _workload_columns(name: str, length: int, block_size: int, seed: int,
                      with_pcs: bool):
    """:func:`workload_arrays`'s columns, plus the accesses' instruction
    addresses (``int64``, as :class:`MemoryAccess` ``pc``) when
    ``with_pcs``, else ``None``."""
    import numpy as np

    from ..engine import ckernels

    spec = _lookup(name, length)
    layout = _WorkloadState(spec, block_size, seed)
    addresses = np.empty(length, dtype=np.uint64)
    is_write = np.zeros(length, dtype=bool)
    pcs = np.empty(length, dtype=np.int64) if with_pcs else None
    if ckernels.available():
        ckernels.workload_trace(length, seed, params=_trace_params(layout),
                                addresses=addresses, is_write=is_write,
                                pcs=pcs)
    else:
        _draw_blocks(layout, seed, addresses, is_write, pcs)
    return addresses, is_write, pcs


def _trace_params(layout: _WorkloadState) -> Dict[str, int]:
    """The compiled synthesis's ``WORKLOAD_PARAMS`` of one workload."""
    conflict, stream, medium = _thresholds(layout.spec)
    return dict(
        conflict_cut=conflict, stream_cut=stream, medium_cut=medium,
        write_cut=layout.write_threshold,
        conflict_arrays=layout.spec.conflict_arrays,
        **{name: getattr(layout, name) for name in (
            "block_size", "hot_base", "hot_slots", "stream_base",
            "medium_base", "medium_blocks", "conflict_base",
            "conflict_spacing", "conflict_elements", "hot_pc", "stream_pc",
            "medium_pc", "conflict_pc", "conflict_pc_step")})


def _draw_blocks(layout: _WorkloadState, seed: int, addresses, is_write,
                 pcs) -> None:
    """Fill the columns of :func:`_workload_columns` on the NumPy tier,
    :data:`DRAW_BLOCK` draws at a time (``pcs`` may be ``None``)."""
    import numpy as np

    from ..engine.replacement_vec import (
        SPLITMIX64_GAMMA,
        splitmix64_finalize_array,
    )

    thresholds = np.array(_thresholds(layout.spec), dtype=np.uint64)
    hot_threshold = thresholds[-1]
    origin = np.uint64((seed or 1) & 0xFFFFFFFFFFFFFFFF)
    u64 = np.uint64

    length = len(addresses)
    counts = [0, 0, 0, 0]  # accesses so far per component
    filled = 0
    counter = 0            # PRNG draws consumed so far
    carry = False          # the previous counter started a hot access
    while filled < length:
        # Each access takes at most two draws, so 2 * remaining draws
        # always finish the trace.
        size = min(DRAW_BLOCK, 2 * (length - filled))
        # One lookahead draw: a hot start on the block's last counter
        # takes its write decision from the next block's first draw.
        k = np.arange(counter + 1, counter + size + 2, dtype=np.uint64)
        k *= u64(SPLITMIX64_GAMMA)
        k += origin
        draws = splitmix64_finalize_array(k)
        del k
        draws %= u64(1_000_000)
        hot = draws[:size] >= hot_threshold

        # A counter starts an access iff an even number of hot draws run
        # back from it to the last non-hot draw; before the block's first
        # non-hot draw, the carried bit flips that parity.
        position = np.arange(size)
        last_cold = np.where(hot, -1, position)
        np.maximum.accumulate(last_cold, out=last_cold)
        start = np.ones(size, dtype=bool)
        start[1:] = (position[1:] - last_cold[:-1]) & 1
        if carry:
            first_cold = int(last_cold.searchsorted(0))
            start[:first_cold + 1] ^= True
        carry = bool(start[-1] and hot[-1])
        counter += size

        starts = np.flatnonzero(start)[:length - filled]
        kind = np.searchsorted(thresholds, draws[starts], side="right")
        out = addresses[filled:filled + starts.size]
        for component in range(4):
            rows = np.flatnonzero(kind == component)
            ordinal = np.arange(counts[component],
                                counts[component] + rows.size,
                                dtype=np.uint64)
            counts[component] += rows.size
            out[rows] = _component_addresses(layout, component, ordinal)
            if pcs is not None:
                pcs[filled + rows] = _component_pcs(layout, component,
                                                    ordinal)
            if component == 3:
                is_write[filled + rows] = (draws[starts[rows] + 1]
                                           < u64(layout.write_threshold))
        filled += starts.size


def _component_addresses(layout: _WorkloadState, component: int, ordinal):
    """Addresses of the ``ordinal``-th accesses (``uint64``) of one
    component: 0 conflict, 1 stream, 2 medium, 3 hot."""
    import numpy as np

    u64 = np.uint64
    if component == 0:
        arrays = u64(layout.spec.conflict_arrays)
        return (u64(layout.conflict_base)
                + ordinal % arrays * u64(layout.conflict_spacing)
                + ordinal // arrays % u64(layout.conflict_elements) * u64(8))
    if component == 1:
        return u64(layout.stream_base) + ordinal * u64(layout.block_size)
    if component == 2:
        return (u64(layout.medium_base)
                + ordinal % u64(layout.medium_blocks)
                * u64(layout.block_size))
    return u64(layout.hot_base) + ordinal % u64(layout.hot_slots) * u64(8)


def _component_pcs(layout: _WorkloadState, component: int, ordinal):
    """Instruction addresses of the ``ordinal``-th accesses of one
    component, numbered as in :func:`_component_addresses`."""
    if component == 0:
        arrays = layout.spec.conflict_arrays
        return (layout.conflict_pc
                + layout.conflict_pc_step * ((ordinal + 1) % arrays))
    return {1: layout.stream_pc, 2: layout.medium_pc,
            3: layout.hot_pc}[component]
