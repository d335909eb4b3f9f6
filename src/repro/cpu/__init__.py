"""Out-of-order superscalar processor model used for the IPC experiments."""

from .address_predictor import AddressPrediction, StrideAddressPredictor
from .branch_predictor import BimodalBranchPredictor
from .dcache import DataCacheModel, DataCacheTiming, LoadTiming
from .functional_units import (
    TABLE1_TIMINGS,
    FunctionalUnit,
    FunctionalUnitPool,
    OperationTiming,
)
from .isa import FP_REGS, INT_REGS, Instruction, OpClass, is_fp_register
from .lsq import BufferedStore, StoreForwardingBuffer
from .processor import OutOfOrderProcessor, ProcessorConfig, SimulationResult
from .program import Program
from .resources import ThroughputLimiter, WindowResource
from .workloads import INSTRUCTION_MIXES, InstructionMix, build_program, program_names

__all__ = [
    "Instruction",
    "OpClass",
    "INT_REGS",
    "FP_REGS",
    "is_fp_register",
    "Program",
    "BimodalBranchPredictor",
    "StrideAddressPredictor",
    "AddressPrediction",
    "FunctionalUnit",
    "FunctionalUnitPool",
    "OperationTiming",
    "TABLE1_TIMINGS",
    "DataCacheModel",
    "DataCacheTiming",
    "LoadTiming",
    "StoreForwardingBuffer",
    "BufferedStore",
    "WindowResource",
    "ThroughputLimiter",
    "OutOfOrderProcessor",
    "ProcessorConfig",
    "SimulationResult",
    "InstructionMix",
    "INSTRUCTION_MIXES",
    "build_program",
    "program_names",
]
