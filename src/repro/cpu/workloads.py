"""Synthetic Spec95-like programs for the processor-level experiments.

The IPC experiments of Tables 2 and 3 need full dynamic instruction streams,
not just address traces.  Each of the 18 modelled programs is generated as a
probabilistic (but fully deterministic, seeded) mix of:

* memory instructions whose addresses come from the trace-level workload
  model of the same program (:mod:`repro.trace.workloads`), so the cache
  behaviour of the instruction stream matches the trace-level studies;
* integer and floating-point computation whose operation mix reflects whether
  the original program is an integer or floating-point code;
* conditional branches with a per-program bias, so the bimodal predictor's
  misprediction ratio lands in a realistic band (higher for the irregular
  integer codes, lower for the loop-dominated floating-point codes).

Dependences are created by drawing source registers from the most recently
written destinations, which yields dependence chains of realistic length —
in particular, computation regularly consumes load results, so load misses
stall the core and the cache organisation visibly moves IPC, exactly the
effect the paper measures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..trace.generators import _SplitMix64
from ..trace.workloads import (
    _BLOCK_SIZE,
    WORKLOADS,
    _workload_columns,
    build_trace,
)
from .isa import FP_REGS, INT_REGS, Instruction, OpClass
from .program import OP_CODES, Program, ProgramColumns

__all__ = ["InstructionMix", "INSTRUCTION_MIXES", "build_program", "program_names"]


@dataclass(frozen=True)
class InstructionMix:
    """Operation mix and branch behaviour of one synthetic program.

    The fractions are relative weights; memory operations take their
    load/store split from the underlying address trace rather than from this
    mix.
    """

    memory_fraction: float
    branch_fraction: float
    fp_fraction: float
    complex_int_fraction: float = 0.03
    fp_div_fraction: float = 0.02
    branch_flip_rate: float = 0.08
    dependency_window: int = 6

    def __post_init__(self) -> None:
        total = self.memory_fraction + self.branch_fraction
        if not 0.0 < self.memory_fraction < 1.0:
            raise ValueError("memory_fraction must be in (0, 1)")
        if total >= 1.0:
            raise ValueError("memory + branch fractions must leave room for ALU work")
        if not 0.0 <= self.fp_fraction <= 1.0:
            raise ValueError("fp_fraction must be in [0, 1]")
        if not 0.0 <= self.branch_flip_rate <= 0.5:
            raise ValueError("branch_flip_rate must be in [0, 0.5]")
        if self.dependency_window < 1:
            raise ValueError("dependency_window must be positive")


_INT_MIX = InstructionMix(memory_fraction=0.36, branch_fraction=0.17,
                          fp_fraction=0.0, branch_flip_rate=0.09)
_FP_MIX = InstructionMix(memory_fraction=0.38, branch_fraction=0.08,
                         fp_fraction=0.55, branch_flip_rate=0.04)

#: Per-program instruction mixes.  Programs keep the integer/floating-point
#: template of their suite with small per-program adjustments to branch
#: predictability (the irregular codes — go, gcc, compress — mispredict more).
INSTRUCTION_MIXES: Dict[str, InstructionMix] = {
    "go":       InstructionMix(0.32, 0.20, 0.0, branch_flip_rate=0.16),
    "m88ksim":  InstructionMix(0.34, 0.18, 0.0, branch_flip_rate=0.05),
    "gcc":      InstructionMix(0.34, 0.19, 0.0, branch_flip_rate=0.11),
    "compress": InstructionMix(0.38, 0.16, 0.0, branch_flip_rate=0.11),
    "li":       InstructionMix(0.36, 0.18, 0.0, branch_flip_rate=0.07),
    "ijpeg":    InstructionMix(0.34, 0.12, 0.0, branch_flip_rate=0.08),
    "perl":     InstructionMix(0.36, 0.18, 0.0, branch_flip_rate=0.08),
    "vortex":   InstructionMix(0.38, 0.16, 0.0, branch_flip_rate=0.07),
    "tomcatv":  InstructionMix(0.40, 0.07, 0.55, branch_flip_rate=0.03),
    "swim":     InstructionMix(0.40, 0.06, 0.55, branch_flip_rate=0.02),
    "su2cor":   InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
    "hydro2d":  InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
    "applu":    InstructionMix(0.36, 0.07, 0.60, branch_flip_rate=0.03),
    "mgrid":    InstructionMix(0.36, 0.06, 0.60, branch_flip_rate=0.02),
    "turb3d":   InstructionMix(0.34, 0.08, 0.55, branch_flip_rate=0.04),
    "apsi":     InstructionMix(0.36, 0.09, 0.55, branch_flip_rate=0.05),
    "fpppp":    InstructionMix(0.30, 0.04, 0.70, fp_div_fraction=0.04,
                               branch_flip_rate=0.02),
    "wave5":    InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
}


def program_names() -> List[str]:
    """Names of all synthetic programs (same set as the trace workloads)."""
    return list(INSTRUCTION_MIXES)


#: Draw ranges: op classes and branch flips are drawn in parts per
#: million, sources and register classes in percent.
_PPM, _PERCENT = 1_000_000, 100
#: Registers 0..3 and INT_REGS..INT_REGS+3 are the base registers.
_BASE_REGS = 4
#: Conditional-branch sites, each with its own bias.
_BRANCH_SITES = 64
#: The pc before the first instruction, the instruction size, and the pc
#: of branch site 0.
_PC_START, _PC_STEP, _BRANCH_PC = 0x0040_0000, 4, 0x0041_0000
#: Chances (percent) that a source is a recent result: computation and
#: store data, address operands, branch operands.
_SRC_CHANCE, _MEMORY_SRC_CHANCE, _BRANCH_SRC_CHANCE = 50, 20, 40
#: Chances (percent), in a floating-point program, that a store's data or
#: a load's destination is a floating-point register.
_STORE_FP_CHANCE, _LOAD_FP_CHANCE = 60, 50
#: Shares (ppm) of square roots after the divides and of integer divides
#: after the multiplies, and the roll below which an FP op multiplies.
_FP_SQRT_SHARE, _INT_DIV_SHARE, _FP_MUL_CUT = 5_000, 3_000, 500_000


def _generator_params(mix: InstructionMix) -> Dict[str, int]:
    """The generator's thresholds and constants for ``mix``, named as the
    compiled builder's ``PROGRAM_PARAMS``
    (:func:`repro.engine.ckernels.build_program_columns`)."""
    mem_cut = int(mix.memory_fraction * _PPM)
    fp_div_cut = int(mix.fp_div_fraction * _PPM)
    int_mul_cut = int(mix.complex_int_fraction * _PPM)
    window = mix.dependency_window
    return dict(
        ppm=_PPM, percent=_PERCENT, mem_cut=mem_cut,
        branch_cut=mem_cut + int(mix.branch_fraction * _PPM),
        flip_cut=int(mix.branch_flip_rate * _PPM),
        fp_cut=int(mix.fp_fraction * _PPM), fp_div_cut=fp_div_cut,
        fp_sqrt_cut=fp_div_cut + _FP_SQRT_SHARE, fp_mul_cut=_FP_MUL_CUT,
        int_mul_cut=int_mul_cut, int_div_cut=int_mul_cut + _INT_DIV_SHARE,
        fp_memory=int(mix.fp_fraction > 0),
        store_fp_chance=_STORE_FP_CHANCE, load_fp_chance=_LOAD_FP_CHANCE,
        memory_src_chance=_MEMORY_SRC_CHANCE,
        branch_src_chance=_BRANCH_SRC_CHANCE, src_chance=_SRC_CHANCE,
        # The recent-destination pools keep at most 4 windows' worth.
        window=window, pool_limit=4 * window, pool_drop=2 * window,
        int_regs=INT_REGS, fp_regs=FP_REGS, base_regs=_BASE_REGS,
        branch_sites=_BRANCH_SITES, pc_start=_PC_START, pc_step=_PC_STEP,
        branch_pc=_BRANCH_PC,
        **{f"op_{op}": OP_CODES[op] for op in OpClass.ALL})


def _instruction_stream(name: str, length: int, seed: int) -> Iterator[Instruction]:
    mix = INSTRUCTION_MIXES[name]
    p = _generator_params(mix)
    rng = _SplitMix64(seed or 1)
    # Memory addresses follow the trace-level model of the same program; the
    # trace is drawn lazily so arbitrarily long programs stay cheap.
    accesses = build_trace(name, length=length, seed=seed + 17)

    # Registers 0-3 (integer) and 32-35 (floating point) act as long-lived
    # "base" registers: they are never used as destinations, so reads from
    # them are always ready.  This models the stable base/induction registers
    # real loop code keeps around and gives the stream realistic ILP — without
    # them every instruction would chain on the previous few results and the
    # core could never approach the paper's IPC range.
    base_int = list(range(_BASE_REGS))
    base_fp = [INT_REGS + reg for reg in base_int]
    recent_int: List[int] = list(base_int)
    recent_fp: List[int] = list(base_fp)
    int_dest_cursor = len(base_int)
    fp_dest_cursor = INT_REGS + len(base_fp)
    fp_memory = p["fp_memory"]

    # Per-branch-site bias: an array of "usually taken?" flags.
    site_bias = [(rng.next() & 1) == 0 for _ in range(_BRANCH_SITES)]

    def pick_src(pool: List[int], base_pool: List[int],
                 recent_chance: int = _SRC_CHANCE) -> int:
        """Pick a source: sometimes a recent result, otherwise a base register."""
        if rng.below(_PERCENT) < recent_chance:
            window = pool[-mix.dependency_window:]
            return window[rng.below(len(window))]
        return base_pool[rng.below(len(base_pool))]

    def next_int_dest() -> int:
        nonlocal int_dest_cursor
        dest = int_dest_cursor
        int_dest_cursor += 1
        if int_dest_cursor >= INT_REGS:
            int_dest_cursor = len(base_int)
        return dest

    def next_fp_dest() -> int:
        nonlocal fp_dest_cursor
        dest = fp_dest_cursor
        fp_dest_cursor += 1
        if fp_dest_cursor >= INT_REGS + FP_REGS:
            fp_dest_cursor = INT_REGS + len(base_fp)
        return dest

    emitted = 0
    pc = _PC_START
    while emitted < length:
        draw = rng.below(_PPM)
        pc += _PC_STEP
        if draw < p["mem_cut"]:
            try:
                access = next(accesses)
            except StopIteration:  # pragma: no cover - trace sized to length
                accesses = build_trace(name, length=length, seed=seed + 31)
                access = next(accesses)
            if access.is_write:
                use_fp_data = (fp_memory and rng.below(_PERCENT)
                               < _STORE_FP_CHANCE)
                data_src = pick_src(recent_fp if use_fp_data else recent_int,
                                    base_fp if use_fp_data else base_int)
                inst = Instruction(pc=access.pc or pc, op=OpClass.STORE,
                                   srcs=(pick_src(recent_int, base_int,
                                                  _MEMORY_SRC_CHANCE),
                                         data_src),
                                   address=access.address, size=access.size)
            else:
                use_fp = fp_memory and rng.below(_PERCENT) < _LOAD_FP_CHANCE
                dest = next_fp_dest() if use_fp else next_int_dest()
                # Load addresses come overwhelmingly from stable base
                # registers, so the load itself rarely waits on computation.
                inst = Instruction(pc=access.pc or pc, op=OpClass.LOAD,
                                   dest=dest,
                                   srcs=(pick_src(recent_int, base_int,
                                                  _MEMORY_SRC_CHANCE),),
                                   address=access.address, size=access.size)
                (recent_fp if use_fp else recent_int).append(dest)
        elif draw < p["branch_cut"]:
            site = rng.below(_BRANCH_SITES)
            taken = site_bias[site]
            if rng.below(_PPM) < p["flip_cut"]:
                taken = not taken
            inst = Instruction(pc=_BRANCH_PC + site * _PC_STEP,
                               op=OpClass.BRANCH,
                               srcs=(pick_src(recent_int, base_int,
                                              _BRANCH_SRC_CHANCE),),
                               taken=taken)
        else:
            use_fp = rng.below(_PPM) < p["fp_cut"]
            if use_fp:
                roll = rng.below(_PPM)
                if roll < p["fp_div_cut"]:
                    op = OpClass.FP_DIV
                elif roll < p["fp_sqrt_cut"]:
                    op = OpClass.FP_SQRT
                elif roll < p["fp_mul_cut"]:
                    op = OpClass.FP_MUL
                else:
                    op = OpClass.FP_ADD
                dest = next_fp_dest()
                inst = Instruction(pc=pc, op=op, dest=dest,
                                   srcs=(pick_src(recent_fp, base_fp),
                                         pick_src(recent_fp, base_fp)))
                recent_fp.append(dest)
            else:
                roll = rng.below(_PPM)
                if roll < p["int_mul_cut"]:
                    op = OpClass.INT_MUL
                elif roll < p["int_div_cut"]:
                    op = OpClass.INT_DIV
                else:
                    op = OpClass.INT_ALU
                dest = next_int_dest()
                inst = Instruction(pc=pc, op=op, dest=dest,
                                   srcs=(pick_src(recent_int, base_int),
                                         pick_src(recent_int, base_int)))
                recent_int.append(dest)
        # Keep the recent-destination pools bounded.
        if len(recent_int) > p["pool_limit"]:
            del recent_int[: p["pool_drop"]]
        if len(recent_fp) > p["pool_limit"]:
            del recent_fp[: p["pool_drop"]]
        emitted += 1
        yield inst


def _program_columns(name: str, length: int, seed: int
                     ) -> Optional[ProgramColumns]:
    """The columns of ``_instruction_stream(name, length, seed)``: one
    compiled ``repro_build_program`` call that replays the stream's draws
    over the program's trace columns, or, without the compiled kernels,
    the stream itself, drained."""
    # Local import: the cpu layer stays importable without the engine.
    from ..engine import ckernels

    if not ckernels.available():
        return ProgramColumns.build(list(_instruction_stream(name, length,
                                                             seed)))
    addresses, writes, pcs = _workload_columns(
        name, length, _BLOCK_SIZE, seed + 17, with_pcs=True)
    return ProgramColumns.from_arrays(*ckernels.build_program_columns(
        length, seed, params=_generator_params(INSTRUCTION_MIXES[name]),
        addresses=addresses.view("int64"), writes=writes.view("uint8"),
        pcs=pcs))


def build_program(name: str, length: int = 50_000, seed: int = 2027) -> Program:
    """Build the synthetic program model for the named Spec95 benchmark."""
    if name not in INSTRUCTION_MIXES:
        raise ValueError(f"unknown program {name!r}; known: {', '.join(INSTRUCTION_MIXES)}")
    if name not in WORKLOADS:
        raise ValueError(f"program {name!r} has no trace-level workload model")
    if length < 1:
        raise ValueError("length must be positive")
    program = Program(name, lambda: _instruction_stream(name, length, seed),
                      length_hint=length)
    program._columns_source = functools.partial(_program_columns, name,
                                                length, seed)
    return program
