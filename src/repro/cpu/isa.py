"""Micro-ISA used by the out-of-order processor model.

The paper's evaluation drives a parametric out-of-order simulator with Spec95
programs.  Here the programs are synthetic, so the "ISA" only needs to carry
the information the timing model consumes: which functional unit class an
instruction needs, which registers it reads and writes, the memory address of
loads and stores, and the outcome of branches.  Values are never computed —
this is a timing model, not a functional emulator.

Registers are numbered 0-31 for the integer file and 32-63 for the
floating-point file, mirroring the two separate physical register files of
the modelled machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["OpClass", "Instruction", "INT_REGS", "FP_REGS", "is_fp_register"]

#: Number of architectural integer registers (indices ``0..INT_REGS-1``).
INT_REGS = 32
#: Number of architectural floating-point registers (indices ``INT_REGS..``).
FP_REGS = 32


def is_fp_register(reg: int) -> bool:
    """True when ``reg`` names a floating-point architectural register."""
    return reg >= INT_REGS


class OpClass:
    """Instruction classes, matching the functional units of Table 1."""

    INT_ALU = "int_alu"          # simple integer, latency 1
    INT_MUL = "int_mul"          # complex integer multiply, latency 9
    INT_DIV = "int_div"          # complex integer divide, latency 67
    FP_ADD = "fp_add"            # simple FP, latency 4
    FP_MUL = "fp_mul"            # FP multiply, latency 4
    FP_DIV = "fp_div"            # FP divide, latency 16
    FP_SQRT = "fp_sqrt"          # FP square root, latency 35
    LOAD = "load"                # effective address + cache access
    STORE = "store"              # effective address; data written at commit
    BRANCH = "branch"            # conditional branch

    ALL = (INT_ALU, INT_MUL, INT_DIV, FP_ADD, FP_MUL, FP_DIV, FP_SQRT,
           LOAD, STORE, BRANCH)
    MEMORY = (LOAD, STORE)


@dataclass(slots=True)
class Instruction:
    """One dynamic instruction.

    Attributes
    ----------
    pc:
        Instruction address (used by the branch and address predictors).
    op:
        One of :class:`OpClass`.
    dest:
        Destination architectural register, or ``None`` (stores, branches).
    srcs:
        Source architectural registers.
    address:
        Effective virtual address for loads and stores.
    taken:
        Actual outcome for branches.
    size:
        Access width for memory operations.
    seq:
        Dynamic sequence number.  Informational only: the processor numbers
        the stream itself and never writes it, so one materialised program
        can be replayed on many processors.
    """

    pc: int
    op: str
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = field(default_factory=tuple)
    address: Optional[int] = None
    taken: Optional[bool] = None
    size: int = 8
    seq: int = -1

    def __post_init__(self) -> None:
        if self.op not in OpClass.ALL:
            raise ValueError(f"unknown op class {self.op!r}")
        if self.pc < 0:
            raise ValueError("pc must be non-negative")
        if self.op in OpClass.MEMORY and self.address is None:
            raise ValueError(f"{self.op} instructions need an address")
        if self.op == OpClass.BRANCH and self.taken is None:
            raise ValueError("branch instructions need an outcome")
        if self.dest is not None and not 0 <= self.dest < INT_REGS + FP_REGS:
            raise ValueError(f"destination register {self.dest} out of range")
        for src in self.srcs:
            if not 0 <= src < INT_REGS + FP_REGS:
                raise ValueError(f"source register {src} out of range")

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.op == OpClass.LOAD

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.op == OpClass.STORE

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.op in OpClass.MEMORY

    @property
    def writes_fp(self) -> bool:
        """True when the destination is a floating-point register."""
        return self.dest is not None and is_fp_register(self.dest)
