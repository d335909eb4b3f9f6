"""Parallel sweep runner: fan a grid of independent simulations across processes.

The paper's figures are sweeps — (scheme, stride) or (program,
organisation) pairs, each an independent simulation.  :func:`run_sweep`
applies a worker to every task and returns the results in task order:

* **serially**, in-process, when ``workers`` is ``None``, ``0`` or ``1``;
* otherwise on one ``ProcessPoolExecutor`` of ``workers`` processes, fed
  ordered chunks of about a quarter of a worker's share of the tasks, so
  tiny tasks are not dominated by dispatch.  Each task materialises its own
  trace; nothing derived from it outlives the task but the one-entry trace
  cache of :mod:`repro.trace.batching`.

A failing task either stops the sweep (``on_error="raise"``: its own
exception propagates and chunks not yet started are cancelled) or takes a
:class:`TaskFailure` in its result slot while the rest of the sweep
finishes (``on_error="collect"``).  A pool that breaks (a worker process
killed) or cannot start propagates its error under either policy: a
partially run sweep never returns a result list.

:class:`SweepOptions` bundles the two knobs into one frozen, validated
value: the CLI builds it, the experiment drivers take it, and
:meth:`SweepOptions.run` hands it to :func:`run_sweep`.  Pool workers must
be module-level callables and the tasks picklable.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "ON_ERROR_POLICIES",
    "SweepOptions",
    "TaskFailure",
    "run_sweep",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Failure policies accepted by :func:`run_sweep`.
ON_ERROR_POLICIES = ("raise", "collect")


def _check_sweep_knobs(workers: Optional[int], on_error: str) -> None:
    """The one validation of the caller-chosen sweep knobs (shared by
    :class:`SweepOptions` and :func:`run_sweep`)."""
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"unknown on_error policy {on_error!r}; "
                         f"expected one of {ON_ERROR_POLICIES}")


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep runs: pool width and failure policy.

    The fields mean what the same-named :func:`run_sweep` parameters mean.
    Every value is validated at construction, so a bad one is rejected
    before any pool spins up.
    """

    workers: Optional[int] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        _check_sweep_knobs(self.workers, self.on_error)

    def run(self, worker: Callable[[TaskT], ResultT],
            tasks: Sequence[TaskT]) -> List[Any]:
        """:func:`run_sweep` of ``worker`` over ``tasks`` with these options."""
        return run_sweep(worker, tasks, workers=self.workers,
                         on_error=self.on_error)


@dataclass(frozen=True)
class TaskFailure:
    """A failed task, slotted in place of its result under
    ``on_error="collect"``."""

    task: str
    error_type: str
    message: str


def _run_chunk(worker: Callable[[TaskT], ResultT], chunk: Sequence[TaskT],
               collect: bool) -> List[Any]:
    """``worker`` over ``chunk``; under ``collect`` a task's exception
    becomes its :class:`TaskFailure` and its chunk-mates still run."""
    if not collect:
        return [worker(task) for task in chunk]
    results: List[Any] = []
    for task in chunk:
        try:
            results.append(worker(task))
        except Exception as exc:
            results.append(TaskFailure(repr(task), type(exc).__name__,
                                       str(exc)))
    return results


def run_sweep(worker: Callable[[TaskT], ResultT],
              tasks: Sequence[TaskT],
              workers: Optional[int] = None,
              on_error: str = "raise") -> List[Any]:
    """Apply ``worker`` to every task; results come back in task order.

    ``workers`` of ``None``, ``0`` or ``1`` runs serially in-process (a
    negative value is rejected); more runs ``workers`` processes over
    ordered chunks of ``max(1, len(tasks) // (workers * 4))`` tasks.
    ``on_error="raise"`` propagates the first failing task's own exception
    (the first in task order, as the serial path would) and cancels the
    chunks not yet started; ``"collect"`` stores a :class:`TaskFailure` in
    the failed task's slot.  A broken pool raises under either policy.
    """
    _check_sweep_knobs(workers, on_error)
    tasks = list(tasks)
    collect = on_error == "collect"
    if workers is None or workers <= 1 or not tasks:
        return _run_chunk(worker, tasks, collect)
    size = max(1, len(tasks) // (workers * 4))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, worker, tasks[i:i + size], collect)
                   for i in range(0, len(tasks), size)]
        try:
            return [result for future in futures
                    for result in future.result()]
        finally:
            # Not shutdown(cancel_futures=True): that drops the pool's
            # record of chunks whose pickling fails afterwards, and the
            # shutdown then waits forever for their results.
            for future in futures:
                future.cancel()
