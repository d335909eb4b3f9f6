"""Programs: bounded streams of dynamic instructions.

The processor model is trace-driven: a *program* is anything that can produce
an iterator of :class:`~repro.cpu.isa.Instruction` records representing the
committed dynamic instruction stream (the paper simulates 100 M committed
instructions per benchmark after a warm-up skip; the synthetic reproductions
are shorter but follow the same structure).

:class:`Program` wraps a generator factory so the same program can be
replayed for every cache configuration of an experiment — each call to
:meth:`instructions` produces a fresh, identical stream, which the Python
core runs on.  :meth:`Program.columns` gives the NumPy columns the
compiled out-of-order core runs on (:class:`ProgramColumns`): a program
:func:`~repro.cpu.workloads.build_program` made has them written directly
by the compiled program builder, once, with no :class:`Instruction`
created; any other program has its stream turned into columns.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

from .isa import Instruction, OpClass

__all__ = ["Program", "ProgramColumns"]

#: Op code of each op class in the columns: its position in OpClass.ALL.
OP_CODES = {op: code for code, op in enumerate(OpClass.ALL)}

#: Branch outcomes as the columns store them (``None`` for non-branches).
_TAKEN = {None: 0, False: 0, True: 1}

_UNSET = object()


class ProgramColumns:
    """A dynamic instruction stream as read-only NumPy int64 columns.

    ``ops`` are :data:`OP_CODES`, ``dests`` the destination register or -1,
    ``srcs`` an ``n x k`` table of source registers padded with -1,
    ``addresses`` the effective address (0 where there is none), ``pcs``
    the instruction addresses and ``taken`` (uint8) the branch outcomes.
    ``addr_ids`` number the distinct addresses densely, so the compiled
    core keys its store-forwarding buffer by an array index.
    """

    def __init__(self, ops, dests, srcs, addresses, pcs, taken,
                 addr_ids, num_address_ids: int) -> None:
        self.ops, self.dests, self.srcs = ops, dests, srcs
        self.addresses, self.pcs, self.taken = addresses, pcs, taken
        self.addr_ids, self.num_address_ids = addr_ids, num_address_ids
        for array in (ops, dests, srcs, addresses, pcs, taken, addr_ids):
            array.flags.writeable = False
        self._blocks: Dict[int, object] = {}
        self._op_counts: Optional[Dict[str, int]] = None

    @classmethod
    def build(cls, instructions: Sequence[Instruction]
              ) -> Optional["ProgramColumns"]:
        """Columns of ``instructions``, or ``None`` when one of them does
        not fit (an address or pc outside ``[0, 2**63)``, a branch outcome
        that is not a bool, an unknown op)."""
        import numpy as np  # the cpu layer imports without NumPy

        n = len(instructions)

        def column(values, dtype=np.int64, count=n):
            return np.fromiter(values, dtype, count)

        try:
            sources = [inst.srcs for inst in instructions]
            width = max(map(len, sources), default=0) or 1
            pad = (-1,) * width
            ops = column([OP_CODES[inst.op] for inst in instructions])
            dests = column([-1 if inst.dest is None else inst.dest
                            for inst in instructions])
            srcs = column(chain.from_iterable(
                [s + pad[len(s):] for s in sources]), count=n * width)
            addresses = column([0 if inst.address is None else inst.address
                                for inst in instructions])
            pcs = column([inst.pc for inst in instructions])
            taken = column([_TAKEN[inst.taken] for inst in instructions],
                           np.uint8)
        except (KeyError, TypeError, OverflowError):
            return None
        if n and addresses.min() < 0:
            return None
        return cls.from_arrays(ops, dests, srcs.reshape(n, width), addresses,
                               pcs, taken)

    @classmethod
    def from_arrays(cls, ops, dests, srcs, addresses, pcs, taken
                    ) -> "ProgramColumns":
        """Columns over the given arrays, numbering their addresses."""
        import numpy as np

        distinct, addr_ids = np.unique(addresses, return_inverse=True)
        return cls(ops, dests, srcs, addresses, pcs, taken,
                   addr_ids.astype(np.int64, copy=False).reshape(-1),
                   len(distinct))

    def __len__(self) -> int:
        return len(self.ops)

    def head(self, count: int) -> "ProgramColumns":
        """The first ``count`` instructions' columns."""
        if count >= len(self):
            return self
        return ProgramColumns(*(array[:count] for array in (
            self.ops, self.dests, self.srcs, self.addresses, self.pcs,
            self.taken, self.addr_ids)), self.num_address_ids)

    def blocks(self, block_size: int):
        """Block numbers of the addresses, shared by every run with this
        block size."""
        blocks = self._blocks.get(block_size)
        if blocks is None:
            blocks = self._blocks[block_size] = self.addresses // block_size
        return blocks

    def op_counts(self) -> Dict[str, int]:
        """Instructions per op class, in first-occurrence order (a fresh
        dict, as the Python core's ``op_counts``)."""
        if self._op_counts is None:
            import numpy as np

            codes, first, counts = np.unique(self.ops, return_index=True,
                                             return_counts=True)
            order = np.argsort(first)
            self._op_counts = {OpClass.ALL[code]: count for code, count
                               in zip(codes[order].tolist(),
                                      counts[order].tolist())}
        return dict(self._op_counts)


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
        # Builds the whole program's columns once for columns(); without
        # one, every call drains a fresh stream.
        self._columns_source: Optional[
            Callable[[], Optional[ProgramColumns]]] = None
        self._columns = _UNSET

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
        program = cls(name, lambda: materialised,
                      length_hint=len(materialised))
        program._columns_source = lambda: ProgramColumns.build(materialised)
        return program

    def columns(self, limit: Optional[int] = None
                ) -> Optional[ProgramColumns]:
        """The first ``limit`` (default: all) instructions as
        :class:`ProgramColumns`, or ``None`` when they do not fit.

        A :meth:`from_list` program, or one
        :func:`~repro.cpu.workloads.build_program` made (whose columns come
        from the compiled program builder, with no :class:`Instruction`
        created), builds its whole columns once, and every later call
        shares them or, for a ``limit``, their head; any other program
        drains a fresh stream per call.
        """
        if self._columns_source is None:
            stream = self.instructions()
            if limit is not None:
                stream = islice(stream, limit)
            return ProgramColumns.build(list(stream))
        if self._columns is _UNSET:
            self._columns = self._columns_source()
        if self._columns is None or limit is None:
            return self._columns
        return self._columns.head(limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hint = f", ~{self._length_hint} instructions" if self._length_hint else ""
        return f"Program({self._name!r}{hint})"
