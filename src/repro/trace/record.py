"""Memory-access trace records.

A trace is simply an iterable of :class:`MemoryAccess` records.  Generators
produce them lazily so multi-million-access experiments do not need the whole
trace in memory; :mod:`repro.trace.trace_io` can persist them when a fixed
trace needs to be replayed across many cache configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["MemoryAccess", "trace_length", "materialise"]


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference.

    Attributes
    ----------
    address:
        Virtual byte address.
    is_write:
        True for stores, False for loads.
    pc:
        Program counter of the issuing instruction (0 when not modelled);
        used by the address-prediction experiments, which index their table
        by instruction address.
    size:
        Access width in bytes (informational; the caches work at block
        granularity).
    """

    address: int
    is_write: bool = False
    pc: int = 0
    size: int = 8

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.pc < 0:
            raise ValueError("pc must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")


def trace_length(trace: Iterable[MemoryAccess]) -> int:
    """Count the records in a trace (consumes generators)."""
    return sum(1 for _ in trace)


def materialise(trace: Iterable[MemoryAccess]) -> List[MemoryAccess]:
    """Realise a lazy trace into a list (for replay across configurations)."""
    return list(trace)


def replay(trace: Iterable[MemoryAccess], cache) -> None:
    """Drive any cache-like object (with an ``access`` method) with a trace."""
    for access in trace:
        cache.access(access.address, is_write=access.is_write)
