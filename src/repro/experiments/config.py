"""Shared experiment configuration: the cache and processor set-ups of Section 4.

Every experiment driver builds its configurations from the constants here so
the whole harness agrees on the paper's parameters: 8 KB / 16 KB two-way
set-associative L1 caches with 32-byte lines, 2-cycle hits, 20-cycle miss
penalty, 8 MSHRs, a 64-bit L1/L2 bus, and the six Table 2 machine
configurations (16 KB and 8 KB conventional with and without address
prediction, and 8 KB I-Poly with the XOR stage out of / in the critical path,
the latter with and without address prediction).

:class:`OrganisationSpec` is the one description of a trace-level cache
organisation: every study builds both engines' caches from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cache.column_assoc import ColumnAssociativeCache
from ..cache.fully_assoc import FullyAssociativeCache
from ..cache.replacement import REPLACEMENT_POLICIES
from ..cache.set_assoc import SetAssociativeCache, WritePolicy
from ..cache.victim import VictimCache
from ..core.index import IndexFunction, SingleSetIndexing, make_index_function
from ..cpu.processor import ProcessorConfig
from ..engine import (
    ENGINE_VECTORIZED,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
)

__all__ = [
    "InputError",
    "CacheGeometry",
    "ORGANISATION_KINDS",
    "OrganisationSpec",
    "PAPER_L1_8KB",
    "PAPER_L1_16KB",
    "INDEX_SCHEMES",
    "TABLE2_CONFIGS",
    "build_cache",
    "table2_processor_configs",
]


class InputError(ValueError):
    """A run description the experiments reject before simulating anything:
    an unknown program, a bad geometry, count or stride, a missing trace.

    The CLI reports it as a one-line usage error; a ``ValueError`` raised
    while a simulation runs (say, a trace corrupt partway through) is not
    one and propagates with its traceback.
    """


@dataclass(frozen=True)
class CacheGeometry:
    """Size / organisation of one cache level used by the experiments."""

    size_bytes: int
    block_size: int = 32
    ways: int = 2

    def __post_init__(self) -> None:
        if min(self.size_bytes, self.block_size, self.ways) < 1:
            raise InputError(f"cache geometry must be positive, got {self}")
        if self.size_bytes % (self.block_size * self.ways):
            raise InputError(f"cache size {self.size_bytes} is not a multiple "
                             f"of block size x ways in {self}")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.block_size * self.ways)

    @property
    def label(self) -> str:
        """Short human-readable label (e.g. ``8KB-2way``)."""
        return f"{self.size_bytes // 1024}KB-{self.ways}way"


#: The two L1 geometries of Section 4.
PAPER_L1_8KB = CacheGeometry(size_bytes=8 * 1024)
PAPER_L1_16KB = CacheGeometry(size_bytes=16 * 1024)

#: The indexing schemes compared in Figure 1, using the paper's labels.
INDEX_SCHEMES: List[str] = ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"]

#: Number of address bits the I-Poly hash consumes in the paper's experiments.
PAPER_HASH_BITS = 19


def build_cache(geometry: CacheGeometry, scheme: str = "a2",
                address_bits: int = PAPER_HASH_BITS,
                classify_misses: bool = False,
                write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                replacement: Optional[str] = None,
                index_function: Optional[IndexFunction] = None) -> SetAssociativeCache:
    """Build a cache with the given geometry, placement scheme and replacement policy."""
    if index_function is None:
        index_function = make_index_function(scheme, num_sets=geometry.num_sets,
                                             ways=geometry.ways,
                                             address_bits=address_bits)
    return SetAssociativeCache(
        size_bytes=geometry.size_bytes,
        block_size=geometry.block_size,
        ways=geometry.ways,
        index_function=index_function,
        replacement=replacement,
        write_policy=write_policy,
        classify_misses=classify_misses,
        name=f"{geometry.label}-{index_function.name}",
    )


#: Organisations an :class:`OrganisationSpec` can describe.
ORGANISATION_KINDS = ("set-assoc", "fully-assoc", "victim", "column-assoc")


@dataclass(frozen=True)
class OrganisationSpec:
    """One cache organisation, buildable on either simulation engine.

    ``kind`` is one of :data:`ORGANISATION_KINDS`.  ``scheme`` is the
    placement of a ``"set-assoc"`` cache; a ``"victim"`` cache's main array
    takes ``geometry.ways`` ways and ``victim_entries`` buffer entries; a
    ``"fully-assoc"`` cache holds all of ``geometry``'s blocks in one set.
    ``replacement`` ``None`` means the paper's LRU.  ``write_policy`` (a
    :class:`~repro.cache.set_assoc.WritePolicy` label) applies to the
    set-associative and fully-associative kinds; the victim and
    column-associative caches are write-through-no-allocate only.
    """

    kind: str = "set-assoc"
    scheme: str = "a2"
    geometry: CacheGeometry = PAPER_L1_8KB
    replacement: Optional[str] = None
    victim_entries: int = 8
    address_bits: int = PAPER_HASH_BITS
    write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE

    def __post_init__(self) -> None:
        if self.kind not in ORGANISATION_KINDS:
            raise InputError(f"unknown organisation kind {self.kind!r}; "
                             f"expected one of {ORGANISATION_KINDS}")
        if self.write_policy not in WritePolicy.ALL:
            raise InputError(f"unknown write policy {self.write_policy!r}; "
                             f"expected one of {WritePolicy.ALL}")
        if (self.kind in ("victim", "column-assoc")
                and self.write_policy != WritePolicy.WRITE_THROUGH_NO_ALLOCATE):
            raise InputError(f"a {self.kind} cache is write-through-no-"
                             f"allocate only, got {self.write_policy!r}")
        if (self.replacement is not None
                and self.replacement not in REPLACEMENT_POLICIES):
            raise InputError(
                f"unknown replacement policy {self.replacement!r}; expected "
                f"one of {sorted(REPLACEMENT_POLICIES)}")
        if self.kind == "set-assoc":
            try:
                self.index_function()  # rejects a bad scheme or geometry now
            except ValueError as exc:
                raise InputError(str(exc)) from exc

    def index_function(self) -> IndexFunction:
        """The placement function of a ``"set-assoc"`` organisation."""
        geometry = self.geometry
        return make_index_function(self.scheme, num_sets=geometry.num_sets,
                                   ways=geometry.ways,
                                   address_bits=self.address_bits)

    def build(self, engine: str):
        """A cold cache of this organisation: the scalar reference model, or
        its batch-engine twin when ``engine`` is ``"vectorized"``."""
        geometry, replacement = self.geometry, self.replacement
        size, block = geometry.size_bytes, geometry.block_size
        write_policy = self.write_policy
        vectorized = engine == ENGINE_VECTORIZED
        if self.kind == "set-assoc":
            if not vectorized:
                return build_cache(geometry, self.scheme,
                                   address_bits=self.address_bits,
                                   write_policy=write_policy,
                                   replacement=replacement)
            return BatchSetAssociativeCache(
                size, block, ways=geometry.ways,
                index_function=self.index_function(), replacement=replacement,
                write_policy=write_policy)
        if self.kind == "fully-assoc":
            if not vectorized:
                return FullyAssociativeCache(size, block,
                                             replacement=replacement,
                                             write_policy=write_policy)
            return BatchSetAssociativeCache(
                size, block, ways=size // block,
                index_function=SingleSetIndexing(), replacement=replacement,
                write_policy=write_policy)
        if self.kind == "victim":
            cls = BatchVictimCache if vectorized else VictimCache
            return cls(size, block, ways=geometry.ways,
                       victim_entries=self.victim_entries,
                       replacement=replacement)
        cls = BatchColumnAssociativeCache if vectorized else ColumnAssociativeCache
        return cls(size, block, address_bits=self.address_bits,
                   replacement=replacement)


#: Column labels of Table 2 (and Table 3), in the paper's order, mapped to the
#: processor configuration that produces them.
TABLE2_CONFIGS: Dict[str, dict] = {
    "16K-conv": dict(cache_size_bytes=16 * 1024, index_scheme="a2"),
    "8K-conv": dict(cache_size_bytes=8 * 1024, index_scheme="a2"),
    "8K-conv-pred": dict(cache_size_bytes=8 * 1024, index_scheme="a2",
                         address_prediction=True),
    "8K-ipoly-noCP": dict(cache_size_bytes=8 * 1024, index_scheme="a2-Hp-Sk"),
    "8K-ipoly-CP": dict(cache_size_bytes=8 * 1024, index_scheme="a2-Hp-Sk",
                        xor_in_critical_path=True),
    "8K-ipoly-CP-pred": dict(cache_size_bytes=8 * 1024, index_scheme="a2-Hp-Sk",
                             xor_in_critical_path=True, address_prediction=True),
}


def table2_processor_configs() -> Dict[str, ProcessorConfig]:
    """Instantiate a :class:`ProcessorConfig` per Table 2 column."""
    return {label: ProcessorConfig(**overrides)
            for label, overrides in TABLE2_CONFIGS.items()}
