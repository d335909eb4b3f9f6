"""Memory address prediction (Section 3.4 / Section 4).

The paper proposes hiding the XOR-stage delay of I-Poly indexing behind a
*memory address predictor*: a table indexed by the load's instruction address
that remembers the last effective address and the last observed stride, plus
a 2-bit confidence counter.  Early in the pipeline the predicted address
(last + stride) is computed and hashed; if the prediction later proves
correct the speculative cache access that was started with the predicted line
is used, so the XOR delay (and one cycle of address computation) disappears
from the load's critical path.

The experimental configuration is: "a direct-mapped table with 1K entries and
without tags", each entry holding the last address, the last stride and a
2-bit saturating confidence counter.  Only when the counter's most
significant bit is set is the prediction considered correct.  The address
field is updated on every reference; the stride field is only updated while
the counter is below ``10`` binary (i.e. below 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["AddressPrediction", "StrideAddressPredictor"]


@dataclass(frozen=True)
class AddressPrediction:
    """Outcome of consulting the predictor for one load."""

    predicted_address: Optional[int]
    confident: bool

    @property
    def usable(self) -> bool:
        """True when the pipeline should launch a speculative access."""
        return self.confident and self.predicted_address is not None


class _Entry:
    __slots__ = ("last_address", "stride", "counter")

    def __init__(self) -> None:
        self.last_address = 0
        self.stride = 0
        self.counter = 0


class StrideAddressPredictor:
    """Tagless, direct-mapped last-address + stride predictor."""

    #: Default confidence threshold: the 2-bit counter's top bit.
    CONFIDENCE_THRESHOLD = 2

    def __init__(self, entries: int = 1024,
                 confidence_threshold: int = CONFIDENCE_THRESHOLD) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if not 1 <= confidence_threshold <= 3:
            raise ValueError("confidence_threshold must be between 1 and 3")
        self._entries = entries
        self._mask = entries - 1
        self._threshold = confidence_threshold
        self._table: List[_Entry] = [_Entry() for _ in range(entries)]
        self.lookups = 0
        self.confident_predictions = 0
        self.correct_predictions = 0

    @property
    def entries(self) -> int:
        """Number of table entries."""
        return self._entries

    def _index(self, pc: int) -> int:
        # The table is untagged: different loads may alias the same entry,
        # trading accuracy for cost exactly as the paper describes.
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> AddressPrediction:
        """Predict the next effective address of the load at ``pc``."""
        entry = self._table[self._index(pc)]
        self.lookups += 1
        confident = entry.counter >= self._threshold
        if confident:
            self.confident_predictions += 1
            return AddressPrediction(entry.last_address + entry.stride, True)
        return AddressPrediction(None, False)

    def update(self, pc: int, actual_address: int) -> bool:
        """Record the real address; returns True when a confident prediction was right.

        Implements the paper's update rules: the confidence counter saturates
        up on a correct last+stride prediction and down otherwise; the
        address field always tracks the latest reference; the stride field is
        frozen while the counter is confident (>= 2) so a single irregular
        access does not destroy an established stride.
        """
        if actual_address < 0:
            raise ValueError("actual_address must be non-negative")
        entry = self._table[self._index(pc)]
        predicted = entry.last_address + entry.stride
        was_confident = entry.counter >= self._threshold
        correct = predicted == actual_address

        if correct:
            entry.counter = min(3, entry.counter + 1)
        else:
            entry.counter = max(0, entry.counter - 1)
        if entry.counter < 2:
            entry.stride = actual_address - entry.last_address
        entry.last_address = actual_address

        if was_confident and correct:
            self.correct_predictions += 1
            return True
        return False

    @property
    def coverage(self) -> float:
        """Fraction of lookups that produced a confident prediction."""
        return (self.confident_predictions / self.lookups) if self.lookups else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of confident predictions that were correct."""
        if not self.confident_predictions:
            return 0.0
        return self.correct_predictions / self.confident_predictions

    def reset(self) -> None:
        """Clear the table and statistics."""
        self._table = [_Entry() for _ in range(self._entries)]
        self.lookups = 0
        self.confident_predictions = 0
        self.correct_predictions = 0
