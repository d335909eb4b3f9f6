"""Programs: bounded streams of dynamic instructions.

The processor model is trace-driven: a *program* is anything that can produce
an iterator of :class:`~repro.cpu.isa.Instruction` records representing the
committed dynamic instruction stream (the paper simulates 100 M committed
instructions per benchmark after a warm-up skip; the synthetic reproductions
are shorter but follow the same structure).

:class:`Program` wraps a generator factory so the same program can be
replayed for every cache configuration of an experiment — each call to
:meth:`instructions` produces a fresh, identical stream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .isa import Instruction

__all__ = ["Program"]


class Program:
    """A named, replayable dynamic instruction stream.

    Parameters
    ----------
    name:
        Program name (used in result tables).
    factory:
        Zero-argument callable returning a fresh iterator of instructions.
    length_hint:
        Expected number of dynamic instructions (informational).
    """

    def __init__(self, name: str, factory: Callable[[], Iterable[Instruction]],
                 length_hint: Optional[int] = None) -> None:
        if not name:
            raise ValueError("programs must be named")
        if length_hint is not None and length_hint < 0:
            raise ValueError("length_hint must be non-negative")
        self._name = name
        self._factory = factory
        self._length_hint = length_hint

    @property
    def name(self) -> str:
        """Program name."""
        return self._name

    @property
    def length_hint(self) -> Optional[int]:
        """Expected dynamic instruction count, when known."""
        return self._length_hint

    def instructions(self) -> Iterator[Instruction]:
        """Return a fresh iterator over the dynamic instruction stream."""
        return iter(self._factory())

    @classmethod
    def from_list(cls, name: str, instructions: Iterable[Instruction]) -> "Program":
        """Build a program that replays a fixed sequence of instructions.

        Every run iterates the same instruction objects, which the processor
        only reads, so one materialised program can feed many configurations.
        """
        materialised = tuple(instructions)
        return cls(name, lambda: materialised, length_hint=len(materialised))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hint = f", ~{self._length_hint} instructions" if self._length_hint else ""
        return f"Program({self._name!r}{hint})"
