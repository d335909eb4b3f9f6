"""Command-line entry point: run any of the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro.experiments.cli figure1 --max-stride 1024 --stride-step 4
    python -m repro.experiments.cli figure1 --workers 2
    python -m repro.experiments.cli table2 --instructions 12000
    python -m repro.experiments.cli table3 --instructions 12000
    python -m repro.experiments.cli miss-ratio --accesses 30000
    python -m repro.experiments.cli miss-ratio --engine reference
    python -m repro.experiments.cli miss-ratio --replacement plru
    python -m repro.experiments.cli replacement-study --on-error collect
    python -m repro.experiments.cli holes --accesses 40000
    python -m repro.experiments.cli holes --engine reference --seed 7
    python -m repro.experiments.cli column-assoc --accesses 30000
    python -m repro.experiments.cli critical-path
    python -m repro.experiments.cli claims

Each experiment sub-command prints its table or histogram (``--csv``
switches the tabular ones to CSV); ``claims`` runs every experiment once
and prints the paper-versus-measured ledger of
:mod:`repro.experiments.claims`, exiting 1 with one line per failed
claim.  ``--engine``
picks the bit-exact batch engine (``vectorized``, the default) or the
scalar reference models it is checked against (``reference``); either
way every cache of a study runs on its own model.  The sweeping
sub-commands build the option values their drivers take from their
flags: ``SweepOptions`` (``--workers``, ``--on-error``) and, on the
trace-level studies, ``TraceOptions`` (``--trace FILE``,
``--trace-chunk``); each value is validated by its option class.  Bad
input (a bad flag value, an unknown program, bad geometry or counts, a
missing trace file) stops with one ``error:`` line and exit status 2
before any simulation starts; an error raised while a simulation runs
keeps its traceback.  A sweep run with ``--on-error collect`` whose tasks
failed ends its report with one line per failed task and exits 1.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Tuple

from ..cache.replacement import REPLACEMENT_POLICIES
from ..engine import (
    ENGINES,
    ON_ERROR_POLICIES,
    SweepOptions,
    TaskFailure,
)
from .column_assoc_study import run_column_assoc_study
from .config import InputError
from .critical_path import run_critical_path_study
from .figure1 import run_figure1
from .grid import TraceOptions
from .holes_study import run_holes_study
from .miss_ratio_study import run_miss_ratio_study
from .replacement_study import run_replacement_study
from .table2 import miss_ratio_std_dev, run_table2
from .table3 import run_table3

__all__ = ["main", "build_parser"]

#: Sub-commands that take ``SweepOptions`` flags.
_SWEEPING = ("figure1", "table2", "table3", "miss-ratio", "replacement-study")
#: Sub-commands that also take ``TraceOptions`` flags.
_TRACE_LEVEL = ("figure1", "miss-ratio", "replacement-study")


def _checked(option_class: type, name: str, convert: Callable) -> Callable:
    """Argparse type of one option field: ``convert`` the text, then let the
    option class judge the value, so a bad value is a usage error naming
    the flag and the range lives only in the option class."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
        try:
            option_class(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    return parse


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    def checked(name: str, convert: Callable) -> Callable:
        return _checked(SweepOptions, name, convert)

    parser.add_argument("--workers", type=checked("workers", int),
                        help="fan the sweep across this many processes")
    parser.add_argument("--on-error", choices=ON_ERROR_POLICIES,
                        default="raise",
                        help="when a task fails: abort the sweep with its "
                             "error, or finish the rest, list the failed "
                             "tasks and exit 1")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="replay this recorded trace instead of the "
                             "synthetic workloads (packed v2, optionally "
                             ".gz/.bz2/.xz/.zst-compressed, v1 binary/text, "
                             "or Dinero .din)")
    parser.add_argument("--trace-chunk",
                        type=_checked(TraceOptions, "trace_chunk", int),
                        default=TraceOptions.trace_chunk,
                        help="accesses per streamed batch on the vectorized "
                             "engine (bounds memory; results are identical "
                             "for any chunk size)")


def _from_args(option_class: type, args: argparse.Namespace):
    return option_class(**{field.name: getattr(args, field.name)
                           for field in fields(option_class)})


def _options(args: argparse.Namespace) -> Dict[str, object]:
    """The option values of the sub-command's flags, keyed by the driver
    parameter that takes them (raises ``ValueError`` on a bad value)."""
    options: Dict[str, object] = {}
    if args.experiment in _SWEEPING:
        options["sweep_options"] = _from_args(SweepOptions, args)
    if args.experiment in _TRACE_LEVEL:
        options["trace_options"] = _from_args(TraceOptions, args)
    return options


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the experiments of 'The Design and Performance "
                    "of a Conflict-Avoiding Cache' (MICRO-30, 1997).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def add_engine(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--engine", choices=list(ENGINES),
                             default="vectorized",
                             help="simulation engine: the bit-exact batch "
                                  "engine (default) or the scalar reference "
                                  "models it is checked against")

    def add_replacement(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--replacement",
                             choices=list(REPLACEMENT_POLICIES),
                             default="lru",
                             help="replacement policy for every cache of the "
                                  "experiment (identical across engines, "
                                  "including the deterministic random policy)")

    figure1 = sub.add_parser("figure1", help="Figure 1 stride sweep")
    figure1.add_argument("--max-stride", type=int, default=1024)
    figure1.add_argument("--stride-step", type=int, default=4)
    figure1.add_argument("--sweeps", type=int, default=8)
    _add_sweep_flags(figure1)
    add_engine(figure1)
    add_replacement(figure1)
    _add_trace_flags(figure1)

    table2 = sub.add_parser("table2", help="Table 2 IPC / miss-ratio sweep")
    table2.add_argument("--instructions", type=int, default=12_000)
    table2.add_argument("--programs", nargs="*", default=None)
    table2.add_argument("--csv", action="store_true")
    _add_sweep_flags(table2)
    add_engine(table2)

    table3 = sub.add_parser("table3", help="Table 3 high-conflict breakdown")
    table3.add_argument("--instructions", type=int, default=12_000)
    _add_sweep_flags(table3)
    add_engine(table3)

    miss_ratio = sub.add_parser("miss-ratio", help="Section 2.1 organisation comparison")
    miss_ratio.add_argument("--accesses", type=int, default=30_000)
    miss_ratio.add_argument("--programs", nargs="*", default=None)
    miss_ratio.add_argument("--csv", action="store_true")
    _add_sweep_flags(miss_ratio)
    add_engine(miss_ratio)
    add_replacement(miss_ratio)
    _add_trace_flags(miss_ratio)

    replacement = sub.add_parser(
        "replacement-study",
        help="replacement policy x organisation sweep (LRU practicality)")
    replacement.add_argument("--accesses", type=int, default=20_000)
    replacement.add_argument("--programs", nargs="*", default=None)
    replacement.add_argument("--csv", action="store_true")
    _add_sweep_flags(replacement)
    add_engine(replacement)
    _add_trace_flags(replacement)

    holes = sub.add_parser("holes", help="Section 3.3 hole model vs simulation")
    holes.add_argument("--accesses", type=int, default=40_000)
    holes.add_argument("--l2-kilobytes", nargs="*", type=int, default=[256, 1024])
    holes.add_argument("--seed", type=int, default=999,
                       help="seed shared by the trace models and the "
                            "scatter-allocating page table")
    add_engine(holes)

    column = sub.add_parser("column-assoc", help="Section 3.1 column-associative study")
    column.add_argument("--accesses", type=int, default=30_000)
    add_engine(column)

    sub.add_parser("critical-path", help="Section 3/3.4 hardware cost and CLA timing")

    claims = sub.add_parser("claims",
                            help="check every paper claim against a run")
    add_engine(claims)
    return parser


def _run_experiment(args: argparse.Namespace, options: Dict[str, object]
                    ) -> Tuple[str, str]:
    """The sub-command's report and its failure footer: one line per
    failed sweep task or claim (``""`` when nothing failed)."""
    if args.experiment == "figure1":
        result = run_figure1(max_stride=args.max_stride, sweeps=args.sweeps,
                             stride_step=args.stride_step, engine=args.engine,
                             replacement=args.replacement, **options)
        return result.render(), _failure_footer(result.failures)
    if args.experiment == "table2":
        result = run_table2(programs=args.programs or None,
                            instructions=args.instructions,
                            engine=args.engine, **options)
        if args.csv:
            return (result.ipc_table().render_csv()
                    + "\n" + result.miss_ratio_table().render_csv(),
                    _failure_footer(result.failures))
        footer = _failure_footer(result.failures)
        if not result.programs:
            return result.render(), footer
        stds = miss_ratio_std_dev(result)
        return (result.render()
                + f"\n\nmiss-ratio std-dev: conventional={stds['8K-conv']:.2f} "
                  f"ipoly={stds['8K-ipoly-noCP']:.2f}", footer)
    if args.experiment == "table3":
        result = run_table3(instructions=args.instructions, engine=args.engine,
                            **options)
        return result.render(), _failure_footer(result.table2.failures)
    if args.experiment == "miss-ratio":
        result = run_miss_ratio_study(programs=args.programs or None,
                                      accesses=args.accesses,
                                      engine=args.engine,
                                      replacement=args.replacement, **options)
        return (result.table().render_csv() if args.csv else result.render(),
                _failure_footer(result.failures))
    if args.experiment == "replacement-study":
        result = run_replacement_study(programs=args.programs or None,
                                       accesses=args.accesses,
                                       engine=args.engine, **options)
        return (result.table().render_csv() if args.csv else result.render(),
                _failure_footer(result.failures))
    if args.experiment == "holes":
        result = run_holes_study(l2_sizes=[kb * 1024 for kb in args.l2_kilobytes],
                                 accesses=args.accesses, seed=args.seed,
                                 engine=args.engine)
        return result.render(), ""
    if args.experiment == "column-assoc":
        return run_column_assoc_study(accesses=args.accesses,
                                      engine=args.engine).render(), ""
    if args.experiment == "critical-path":
        return run_critical_path_study().render(), ""
    if args.experiment == "claims":
        # Imported here: no other sub-command loads the ledger.
        from .claims import check_claims, run_experiments

        ledger = check_claims(run_experiments(args.engine))
        return ledger.render(), ledger.failure_report()
    raise ValueError(f"unknown experiment {args.experiment!r}")  # pragma: no cover


#: Longest task description a failure footer line shows (a task's repr
#: can carry whole configuration objects).
_TASK_WIDTH = 60


def _failure_footer(failures: List[TaskFailure]) -> str:
    """One line per failed sweep task: task and error type (``""`` when
    none failed)."""
    if not failures:
        return ""
    lines = [f"{len(failures)} sweep task(s) failed:"]
    for failure in failures:
        task = failure.task
        if len(task) > _TASK_WIDTH:
            task = task[:_TASK_WIDTH - 3] + "..."
        lines.append(f"  {task}: {failure.error_type}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the experiment, print its report; returns exit code.

    A bad option value, or input a driver rejects before simulating
    (:class:`~repro.experiments.config.InputError`: unknown programs, bad
    geometry or counts, a missing trace file), is a one-line usage error
    with exit status 2.  Errors raised during the simulation propagate.  A
    sweep that finished with failed tasks (``--on-error collect``) prints
    its report, then one footer line per failed task, and returns 1; so
    does ``claims`` when a claim fails, with one line per failed claim.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _options(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        report, footer = _run_experiment(args, options)
    except InputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(report)
    if footer:
        print("\n" + footer)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
