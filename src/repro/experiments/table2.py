"""Experiment E-T2: Table 2 — IPC and load miss ratio per program and configuration.

Table 2 of the paper reports, for each of the 18 Spec95 programs, the IPC and
load miss ratio of six machine configurations:

====================  =============================================================
Column                Machine
====================  =============================================================
``16K-conv``          16 KB two-way conventional cache
``8K-conv``           8 KB two-way conventional cache
``8K-conv-pred``      8 KB conventional + memory address prediction
``8K-ipoly-noCP``     8 KB skewed I-Poly, XOR stage *not* on the critical path
``8K-ipoly-CP``       8 KB skewed I-Poly, XOR stage on the critical path (+1 cycle)
``8K-ipoly-CP-pred``  as above + memory address prediction
====================  =============================================================

plus arithmetic-mean miss ratios and geometric-mean IPCs for the integer
suite, the floating-point suite and the combination.  The conclusions also
quote the standard deviation of miss ratios across the suite (18.49
conventional vs 5.16 I-Poly), which :func:`miss_ratio_std_dev` reproduces.

The programs here are the synthetic Spec95-like models of
:mod:`repro.cpu.workloads`, which stand in for the Spec95 binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.metrics import arithmetic_mean, geometric_mean, std_deviation
from ..analysis.reporting import TableBuilder
from ..cpu.processor import OutOfOrderProcessor, ProcessorConfig, SimulationResult
from ..cpu.program import Program
from ..cpu.workloads import build_program, program_names
from ..engine import ENGINE_REFERENCE, SweepOptions, TaskFailure, check_engine
from ..trace.workloads import FP_PROGRAMS, INTEGER_PROGRAMS
from .config import TABLE2_CONFIGS, InputError

__all__ = ["Table2Result", "run_table2", "miss_ratio_std_dev"]


@dataclass
class Table2Result:
    """Per-program, per-configuration results of the Table 2 experiment."""

    instructions_per_program: int
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    #: Programs that failed under ``on_error="collect"``;
    #: they are absent from the tables and the suite averages.
    failures: List[TaskFailure] = field(default_factory=list)
    #: Configuration labels (the table columns), recorded by
    #: :func:`run_table2` so a run whose every program failed still renders.
    configurations: List[str] = field(default_factory=lambda: list(TABLE2_CONFIGS))

    @property
    def programs(self) -> List[str]:
        """Programs simulated, in insertion order."""
        return list(self.results)

    def ipc(self, program: str, configuration: str) -> float:
        """IPC of one (program, configuration) cell."""
        return self.results[program][configuration].ipc

    def miss_ratio_percent(self, program: str, configuration: str) -> float:
        """Load miss ratio (percent) of one cell."""
        return self.results[program][configuration].load_miss_ratio_percent

    def ipc_table(self) -> TableBuilder:
        """IPC per program and configuration, plus the paper's average rows."""
        table = TableBuilder(self.configurations, row_label="program")
        for program in self.programs:
            table.add_row(program, {cfg: self.ipc(program, cfg)
                                    for cfg in self.configurations})
        for label, names in self._groups().items():
            table.add_row(label, {
                cfg: geometric_mean([self.ipc(p, cfg) for p in names])
                for cfg in self.configurations
            })
        return table

    def miss_ratio_table(self) -> TableBuilder:
        """Load miss ratio (percent) per program/configuration plus averages."""
        table = TableBuilder(self.configurations, row_label="program")
        for program in self.programs:
            table.add_row(program, {cfg: self.miss_ratio_percent(program, cfg)
                                    for cfg in self.configurations})
        for label, names in self._groups().items():
            table.add_row(label, {
                cfg: arithmetic_mean([self.miss_ratio_percent(p, cfg) for p in names])
                for cfg in self.configurations
            })
        return table

    def _groups(self) -> Dict[str, List[str]]:
        ints = [p for p in self.programs if p in INTEGER_PROGRAMS]
        fps = [p for p in self.programs if p in FP_PROGRAMS]
        groups: Dict[str, List[str]] = {}
        if ints:
            groups["Int average"] = ints
        if fps:
            groups["Fp average"] = fps
        if self.programs:
            groups["Combined average"] = self.programs
        return groups

    def render(self) -> str:
        """Render both tables as text."""
        return (self.ipc_table().render(title="Table 2 (IPC)")
                + "\n\n"
                + self.miss_ratio_table().render(title="Table 2 (load miss ratio %)"))


def _table2_program_task(task: Tuple[str, int, int, tuple]
                         ) -> Dict[str, SimulationResult]:
    """Module-level sweep worker: one program on every configuration.

    The program is generated once per task.  On the compiled core every
    configuration shares the columns the compiled program builder writes
    on the first run (:meth:`~repro.cpu.program.Program.columns`), and no
    :class:`~repro.cpu.isa.Instruction` is created unless a processor's
    Python state is read.  When any configuration runs the Python core, the
    instruction list is generated once and replayed on each configuration
    instead; the processor never writes into the instructions.
    """
    name, instructions, seed, configs = task
    processors = [(label, OutOfOrderProcessor(config))
                  for label, config in configs]
    program = build_program(name, length=instructions, seed=seed)
    if any(processor.dispatch_strategy() == "python-ooo-core"
           for _, processor in processors):
        program = Program.from_list(name, program.instructions())
    return {label: processor.run(program) for label, processor in processors}


def run_table2(programs: Optional[Sequence[str]] = None,
               instructions: int = 30_000,
               configurations: Optional[Mapping[str, dict]] = None,
               seed: int = 2027,
               engine: str = ENGINE_REFERENCE,
               sweep_options: SweepOptions = SweepOptions(),
               workers: Optional[int] = None) -> Table2Result:
    """Simulate every (program, configuration) pair of Table 2.

    ``instructions`` scales the per-program run length; the paper simulates
    100 M committed instructions per benchmark, which is far beyond what a
    pure-Python model can afford, but the synthetic programs reach their
    steady-state behaviour within a few tens of thousands of instructions.

    ``engine`` does not change *what* is simulated: ``"vectorized"`` runs
    each (program, machine) pair on the compiled out-of-order core when a C
    compiler is available (see :mod:`repro.cpu.processor`), over program
    columns the compiled program builder writes, and otherwise evaluates
    the L1 placement through the engine's per-byte XOR tables
    (:class:`~repro.engine.index_vec.PlacementIndexing`), producing
    identical IPCs and miss ratios faster.

    ``sweep_options`` fans the per-program tasks (each simulating every
    machine configuration for one program) across a process pool — results
    are identical to the serial run — and sets their fault tolerance; under
    ``on_error="collect"`` a failed program lands in ``result.failures``
    instead of the tables.  Programs, counts and configurations are checked
    before any simulation starts.

    ``workers=N`` is the older spelling of
    ``sweep_options=SweepOptions(workers=N)``, kept because the benchmark
    workloads in ``perfbench/`` use it; the two may not be combined.
    """
    if workers is not None:
        if sweep_options != SweepOptions():
            raise TypeError("pass workers= or sweep_options=, not both")
        sweep_options = SweepOptions(workers=workers)
    if instructions < 1_000:
        raise InputError("instructions should be at least 1000 for stable results")
    engine = check_engine(engine)
    program_list = list(programs) if programs is not None else program_names()
    for name in program_list:
        if name not in program_names():
            raise InputError(f"unknown program {name!r}; expected one of "
                             f"{program_names()}")
    config_map = dict(configurations) if configurations is not None else dict(TABLE2_CONFIGS)
    configs = []
    for label, overrides in config_map.items():
        try:
            configs.append((label, ProcessorConfig(
                **{"index_engine": engine, **overrides})))
        except (TypeError, ValueError) as exc:
            raise InputError(f"configuration {label!r}: {exc}") from None
    configs = tuple(configs)

    per_program = sweep_options.run(
        _table2_program_task,
        [(name, instructions, seed, configs) for name in program_list])
    result = Table2Result(instructions_per_program=instructions,
                          configurations=list(config_map))
    for name, per_config in zip(program_list, per_program):
        if isinstance(per_config, TaskFailure):
            result.failures.append(per_config)
            continue
        result.results[name] = per_config
    return result


def miss_ratio_std_dev(result: Table2Result,
                       conventional: str = "8K-conv",
                       ipoly: str = "8K-ipoly-noCP") -> Dict[str, float]:
    """Standard deviation of per-program miss ratios for two configurations.

    Reproduces the conclusions' claim that I-Poly indexing reduces the
    cross-suite standard deviation of miss ratios (18.49 -> 5.16 in the
    paper); the reproduction checks the *direction and rough magnitude* of
    that reduction.
    """
    conventional_values = [result.miss_ratio_percent(p, conventional)
                           for p in result.programs]
    ipoly_values = [result.miss_ratio_percent(p, ipoly) for p in result.programs]
    return {
        conventional: std_deviation(conventional_values),
        ipoly: std_deviation(ipoly_values),
    }
