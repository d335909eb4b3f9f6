"""Functional units and their latencies (Table 1 of the paper).

The modelled machine has a fixed set of execution resources:

====================  =======  ===========  ===========
Functional unit       Count    Latency      Repeat rate
====================  =======  ===========  ===========
Simple integer        1        1            1
Complex integer       1        9 mul / 67 div   1 / 67
Effective address     2        1            1
Simple FP             1        4            1
FP multiplication     1        4            1
FP divide and SQRT    1        16 div / 35 sqrt  16 / 35
====================  =======  ===========  ===========

Each unit is modelled by its *next-free* cycle (the repeat rate determines
how soon a new operation may start) and the operation latency (when the
result becomes available to dependents).  Memory instructions additionally
use one of the two effective-address units before accessing the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .isa import OpClass

__all__ = ["OperationTiming", "FunctionalUnit", "FunctionalUnitPool", "TABLE1_TIMINGS"]


@dataclass(frozen=True)
class OperationTiming:
    """Latency and repeat (initiation) interval of one operation class."""

    latency: int
    repeat: int

    def __post_init__(self) -> None:
        if self.latency < 1 or self.repeat < 1:
            raise ValueError("latency and repeat must be at least 1")


#: Operation timings from Table 1.
TABLE1_TIMINGS: Dict[str, OperationTiming] = {
    OpClass.INT_ALU: OperationTiming(latency=1, repeat=1),
    OpClass.INT_MUL: OperationTiming(latency=9, repeat=1),
    OpClass.INT_DIV: OperationTiming(latency=67, repeat=67),
    OpClass.FP_ADD: OperationTiming(latency=4, repeat=1),
    OpClass.FP_MUL: OperationTiming(latency=4, repeat=1),
    OpClass.FP_DIV: OperationTiming(latency=16, repeat=16),
    OpClass.FP_SQRT: OperationTiming(latency=35, repeat=35),
    # Effective-address computation for loads and stores.
    OpClass.LOAD: OperationTiming(latency=1, repeat=1),
    OpClass.STORE: OperationTiming(latency=1, repeat=1),
    # Branches resolve on the simple integer unit.
    OpClass.BRANCH: OperationTiming(latency=1, repeat=1),
}


class FunctionalUnit:
    """One execution resource shared by a set of operation classes."""

    def __init__(self, name: str, op_classes: Tuple[str, ...],
                 timings: Dict[str, OperationTiming]) -> None:
        if not op_classes:
            raise ValueError("a functional unit must serve at least one op class")
        for op in op_classes:
            if op not in timings:
                raise ValueError(f"no timing defined for op class {op!r}")
        self.name = name
        self._op_classes = op_classes
        self._serves = frozenset(op_classes)
        self._timings = timings
        #: Earliest cycle a new operation could start on this unit.
        self.next_free = 0
        self.operations = 0
        self.busy_cycles = 0

    @property
    def op_classes(self) -> Tuple[str, ...]:
        """Operation classes this unit executes."""
        return self._op_classes

    def serves(self, op: str) -> bool:
        """True when this unit can execute ``op``."""
        return op in self._serves

    def issue(self, op: str, now: int) -> Tuple[int, int]:
        """Issue an operation; returns ``(start_cycle, completion_cycle)``."""
        if op not in self._serves:
            raise ValueError(f"unit {self.name} cannot execute {op}")
        timing = self._timings[op]
        start = now if now > self.next_free else self.next_free
        self.next_free = start + timing.repeat
        self.operations += 1
        self.busy_cycles += timing.repeat
        return start, start + timing.latency

    def reset(self) -> None:
        """Clear occupancy and statistics."""
        self.next_free = 0
        self.operations = 0
        self.busy_cycles = 0


class FunctionalUnitPool:
    """The full complement of execution resources from Table 1."""

    def __init__(self, timings: Dict[str, OperationTiming] = None,
                 effective_address_units: int = 2) -> None:
        if effective_address_units < 1:
            raise ValueError("at least one effective-address unit is required")
        self._timings = dict(TABLE1_TIMINGS if timings is None else timings)
        self._units: List[FunctionalUnit] = [
            FunctionalUnit("simple-int", (OpClass.INT_ALU, OpClass.BRANCH),
                           self._timings),
            FunctionalUnit("complex-int", (OpClass.INT_MUL, OpClass.INT_DIV),
                           self._timings),
            FunctionalUnit("simple-fp", (OpClass.FP_ADD,), self._timings),
            FunctionalUnit("fp-mul", (OpClass.FP_MUL,), self._timings),
            FunctionalUnit("fp-div-sqrt", (OpClass.FP_DIV, OpClass.FP_SQRT),
                           self._timings),
        ]
        for i in range(effective_address_units):
            self._units.append(
                FunctionalUnit(f"eff-addr-{i}", (OpClass.LOAD, OpClass.STORE),
                               self._timings))
        # The units able to execute each op class, in pool order, so issue
        # scans only those (ties go to the earlier unit).
        self._serving: Dict[str, Tuple[FunctionalUnit, ...]] = {}
        for unit in self._units:
            for op in unit.op_classes:
                self._serving[op] = self._serving.get(op, ()) + (unit,)

    @property
    def units(self) -> List[FunctionalUnit]:
        """All functional units."""
        return list(self._units)

    def timing(self, op: str) -> OperationTiming:
        """Latency/repeat of an operation class."""
        return self._timings[op]

    def earliest_unit(self, op: str, now: int) -> FunctionalUnit:
        """The serving unit that can start ``op`` soonest (ties by order)."""
        units = self._serving.get(op)
        if units is None:
            raise ValueError(f"no functional unit serves {op!r}")
        # A unit already free by ``now`` starts at ``now``, which nothing
        # beats; otherwise the unit that frees up first wins.
        best = best_free = None
        for unit in units:
            free = unit.next_free
            if free <= now:
                return unit
            if best is None or free < best_free:
                best, best_free = unit, free
        return best

    def issue(self, op: str, now: int) -> Tuple[int, int]:
        """Issue ``op`` on the best unit; returns ``(start, completion)``."""
        return self.earliest_unit(op, now).issue(op, now)

    def reset(self) -> None:
        """Reset every unit."""
        for unit in self._units:
            unit.reset()
