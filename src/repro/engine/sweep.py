"""Fault-tolerant parallel sweep runner: fan configurations across workers.

The paper's figures are sweeps — hundreds of (scheme, stride) or
(program, organisation) pairs, each an independent simulation — and the
ROADMAP's north star is serving those sweeps as a long-running service.
That makes the executor's failure behaviour part of the spec: a single
worker exception must not poison the whole grid, an OOM-killed worker
process (``BrokenProcessPool``) must not discard hours of completed
results, and a killed sweep must be resumable.  :func:`run_sweep` is that
executor:

* **future-per-chunk scheduling** — tasks are grouped into chunks
  (:func:`chunk_tasks` semantics, honoured identically in process and
  thread mode) and each chunk is submitted as its own future, with at most
  ``workers`` chunks in flight so per-task deadlines are meaningful;
* **per-task ``timeout=``** — a dispatched chunk of *k* tasks gets a
  ``k * timeout`` deadline; an expired, running dispatch tears the pool
  down (hung worker processes are terminated), the not-yet-completed tasks
  are resubmitted, and only the expired tasks are charged an attempt;
* **bounded ``retries=``** with exponential backoff and seeded jitter
  (:func:`backoff_delays` is the deterministic schedule, ``backoff_seed``
  pins it for tests); a ``ValueError`` or ``TypeError`` is deterministic —
  the same task would fail the same way again — so it is never retried;
* **``on_error={"raise","collect"}``** — ``"raise"`` aborts with a
  :class:`SweepError` once a task exhausts its retries; ``"collect"``
  slots a structured :class:`TaskFailure` into the task's result position
  and lets the rest of the sweep finish;
* **mid-sweep pool recovery** — a broken pool is rebuilt in place (every
  task that was in flight is charged an attempt, since the culprit cannot
  be attributed); after ``max_pool_rebuilds`` consecutive no-progress
  breaks the executor degrades ``process -> thread -> serial``, and only
  not-yet-completed tasks are ever resubmitted, so completed work is never
  re-run and result order is always preserved;
* **``journal=``/``resume=``** — completed results are appended to a
  :class:`~repro.engine.checkpoint.SweepJournal` as they arrive, and a
  resumed run pre-fills every journalled slot without executing it.

:class:`SweepOptions` bundles the knobs a caller chooses (pool width,
dispatch size, fault tolerance, checkpoint) into one frozen, validated
value: the CLI builds it, the experiment drivers take it, and
:meth:`SweepOptions.run` hands it to :func:`run_sweep`.

Workers receive one task object each and must be module-level callables
when ``mode="process"`` (work items must pickle); ``mode="serial"`` runs
in-line — it enforces retries and ``on_error`` but cannot pre-empt a hung
task, so ``timeout`` only bites in the pool modes.  Each worker process
holds its own process-global trace cache (:mod:`repro.trace.batching`) and
derived-array memo (:mod:`repro.engine.memo`) — thread-mode workers share
their process's lock-guarded caches — so chunked dispatch compounds: the
more related tasks a worker receives per sweep, the more materialisation
work it reuses.

The deterministic fault-injection harness for this module lives in
:mod:`repro.engine.faults`; ``tests/test_sweep_faults.py`` proves every
recovery path bit-exact against the serial run.
"""

from __future__ import annotations

import collections
import concurrent.futures
import random
import time
from concurrent.futures import BrokenExecutor
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)
from dataclasses import dataclass

from .checkpoint import SweepJournal, task_digest

__all__ = [
    "ON_ERROR_POLICIES",
    "SweepError",
    "SweepOptions",
    "TaskFailure",
    "backoff_delays",
    "chunk_tasks",
    "run_sweep",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Executor modes accepted by :func:`run_sweep`.
_MODES = ("process", "thread", "serial")

#: Failure policies accepted by :func:`run_sweep`.
ON_ERROR_POLICIES = ("raise", "collect")

#: Degradation chain followed when a pool keeps breaking or cannot spawn.
_DEGRADE = {"process": "thread", "thread": "serial"}

#: Sentinel marking a result slot whose task has not completed yet.
_PENDING = object()

#: Failures that would recur on every attempt (bad input, not bad luck).
_DETERMINISTIC = (ValueError, TypeError)


def _check_sweep_knobs(workers: Optional[int], chunksize: Optional[int],
                       timeout: Optional[float], retries: int,
                       on_error: str) -> None:
    """The one validation of the caller-chosen sweep knobs (shared by
    :class:`SweepOptions` and :func:`run_sweep`)."""
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if chunksize is not None and chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"unknown on_error policy {on_error!r}; "
                         f"expected one of {ON_ERROR_POLICIES}")


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep runs: pool width, dispatch size and fault tolerance.

    The fields mean what the same-named :func:`run_sweep` parameters mean;
    ``resume`` names a sweep journal that is both appended to and resumed
    from.  Every value is validated at construction, so a bad one is
    rejected before any pool spins up.
    """

    workers: Optional[int] = None
    chunksize: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 0
    on_error: str = "raise"
    resume: Optional[str] = None

    def __post_init__(self) -> None:
        _check_sweep_knobs(self.workers, self.chunksize, self.timeout,
                           self.retries, self.on_error)

    def run(self, worker: Callable[[TaskT], ResultT],
            tasks: Sequence[TaskT]) -> List[Any]:
        """:func:`run_sweep` of ``worker`` over ``tasks`` with these options."""
        return run_sweep(worker, tasks, workers=self.workers,
                         chunksize=self.chunksize, timeout=self.timeout,
                         retries=self.retries, on_error=self.on_error,
                         journal=self.resume, resume=self.resume)


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retries, slotted in place of its result.

    ``attempts`` counts every execution attempt (initial try included);
    ``mode`` is the executor mode of the final attempt, so degraded-pool
    failures are distinguishable from first-class ones.
    """

    task: str
    error_type: str
    message: str
    attempts: int
    mode: str


class SweepError(RuntimeError):
    """Raised under ``on_error="raise"`` when a task exhausts its retries."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(
            f"sweep task {failure.task} failed after {failure.attempts} "
            f"attempt(s) [{failure.mode}]: {failure.error_type}: "
            f"{failure.message}")
        self.failure = failure


class _PoolBroken(Exception):
    """Internal: the current pool must be torn down and rebuilt.

    ``penalised`` holds the indices charged an attempt (the tasks that were
    running when the pool broke, or the expired ones on a timeout).
    """

    def __init__(self, penalised: Sequence[int], error_type: str,
                 message: str) -> None:
        super().__init__(message)
        self.penalised = list(penalised)
        self.error_type = error_type
        self.message = message


def _noop() -> None:
    """Picklable probe task used to detect unusable worker pools."""


def _guarded_chunk(worker: Callable[[TaskT], ResultT],
                   chunk: List[TaskT]) -> List[tuple]:
    """Run one chunk, capturing per-task outcomes instead of raising.

    One task's exception must not discard its chunk-mates' finished work,
    and exception *objects* are not reliably picklable — so each task comes
    back as ``("ok", value)`` or ``("err", type_name, message,
    deterministic)``.
    """
    outcomes: List[tuple] = []
    for task in chunk:
        try:
            outcomes.append(("ok", worker(task)))
        except Exception as exc:
            outcomes.append(_error_outcome(exc))
    return outcomes


def _error_outcome(exc: Exception) -> tuple:
    return ("err", type(exc).__name__, str(exc),
            isinstance(exc, _DETERMINISTIC))


def backoff_delays(attempts: int, base: float, seed: Optional[int] = None,
                   cap: float = 2.0) -> List[float]:
    """The deterministic retry-backoff schedule for a given seed.

    Delay ``k`` (0-based) is ``base * 2**k``, jittered by a factor drawn
    uniformly from ``[0.5, 1.5)`` and clamped to ``cap``.  Jitter keeps a
    retry stampede (many tasks failing together on a rebuilt pool) from
    resubmitting in lock-step; the seed keeps tests deterministic.
    """
    rng = random.Random(seed)
    return [min(cap, base * (2 ** k) * (0.5 + rng.random()))
            for k in range(attempts)]


def chunk_tasks(tasks: Sequence[TaskT],
                chunksize: int) -> List[List[TaskT]]:
    """Group ``tasks`` into consecutive chunks of up to ``chunksize`` items.

    Tiny simulation tasks are dominated by per-task dispatch cost (pickling,
    IPC, result marshalling) when fanned across a process pool one at a
    time.  Batching them into chunk-level work items — each worker call
    processing a whole chunk and returning a list of results — amortises
    that overhead; order is preserved, so flattening the chunked results
    reproduces the unchunked result list exactly.
    """
    if chunksize < 1:
        raise ValueError("chunksize must be positive")
    tasks = list(tasks)
    return [tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize)]


def _spawn_pool(pool_mode: str, workers: int,
                initializer: Optional[Callable[..., None]],
                initargs: tuple):
    """Build and probe a pool; ``None`` when this mode cannot run here.

    The no-op probe commits nothing to the pool, so sandboxes without
    process-spawn rights (or initializers that only work in some modes)
    degrade cleanly instead of poisoning the sweep itself.
    """
    executor_cls = (concurrent.futures.ProcessPoolExecutor
                    if pool_mode == "process"
                    else concurrent.futures.ThreadPoolExecutor)
    pool = None
    try:
        pool = executor_cls(max_workers=workers, initializer=initializer,
                            initargs=initargs)
        pool.submit(_noop).result()
        return pool
    except (OSError, BrokenExecutor):
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None


def _terminate_pool(pool) -> None:
    """Tear a pool down without waiting on hung or dead workers.

    ``ProcessPoolExecutor.shutdown`` never kills a stuck worker; terminating
    the worker processes directly (best-effort, private attribute) is what
    actually frees a pool wedged on a hung task.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.terminate()
        except Exception:
            pass


def run_sweep(worker: Callable[[TaskT], ResultT],
              tasks: Sequence[TaskT],
              workers: Optional[int] = None,
              mode: str = "process",
              chunksize: Optional[int] = None,
              initializer: Optional[Callable[..., None]] = None,
              initargs: tuple = (),
              timeout: Optional[float] = None,
              retries: int = 0,
              on_error: str = "raise",
              backoff_base: float = 0.05,
              backoff_cap: float = 2.0,
              backoff_seed: Optional[int] = None,
              journal: Optional[str] = None,
              resume: Optional[str] = None,
              max_pool_rebuilds: int = 2) -> List[Any]:
    """Apply ``worker`` to every task, tolerating worker faults.

    Parameters
    ----------
    worker:
        Callable applied to each task.  Must be a module-level function (and
        the tasks picklable) for ``mode="process"``.
    tasks:
        Work items; results come back in the same order.
    workers:
        Pool size.  ``None``, ``0`` or ``1`` runs serially in-process;
        negative values are rejected.
    mode:
        ``"process"`` (default), ``"thread"``, or ``"serial"``.  Threads only
        help when the worker releases the GIL (NumPy-heavy batches); process
        pools parallelise pure-Python simulation too.  When a pool cannot
        spawn or keeps breaking, execution degrades along
        ``process -> thread -> serial``, resubmitting only unfinished tasks.
    chunksize:
        Tasks per dispatched work item, honoured identically in both pool
        modes.  ``None`` keeps the default heuristic of about four chunks
        per worker.  For coarser batching — e.g. one work item per group of
        related tasks — pre-group the tasks with :func:`chunk_tasks` and
        give ``worker`` a chunk-level callable.
    initializer, initargs:
        Run ``initializer(*initargs)`` once per worker before its first
        task — e.g. to pre-warm a process's trace cache.  On the serial path
        (requested or degraded-to) it runs exactly once in-process before
        the remaining tasks.
    timeout:
        Per-task deadline in seconds; a chunk of *k* tasks gets
        ``k * timeout``.  Enforced in the pool modes only (serial execution
        cannot pre-empt a running task).  An expired running dispatch tears
        the pool down — hung worker processes are terminated — and charges
        only the expired tasks an attempt.
    retries:
        Failed attempts a task may retry (so a task runs at most
        ``retries + 1`` times), with exponential backoff and seeded jitter
        (``backoff_base``/``backoff_cap``/``backoff_seed``; see
        :func:`backoff_delays`).  ``backoff_base=0`` disables sleeping.
        A task that raised ``ValueError`` or ``TypeError`` fails at once:
        retrying a deterministic failure only repeats it.
    on_error:
        ``"raise"`` (default) aborts the sweep with :class:`SweepError` once
        any task exhausts its retries; ``"collect"`` stores a
        :class:`TaskFailure` in that task's result slot and completes the
        rest of the sweep.  Collected failures are never journalled, so a
        resumed run retries them.
    journal, resume:
        Paths to an append-only :class:`~repro.engine.checkpoint.SweepJournal`.
        ``journal`` records every completed result as it arrives; ``resume``
        pre-fills result slots from a previous journal (matched by position
        *and* task digest) so completed work is never re-executed.  Pass the
        same path for both to make one file the sweep's checkpoint.
    max_pool_rebuilds:
        Consecutive no-progress pool breaks tolerated in one mode before
        degrading to the next; a break that lands new results resets the
        counter.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {_MODES}")
    _check_sweep_knobs(workers, chunksize, timeout, retries, on_error)
    tasks = list(tasks)
    if not tasks:
        return []

    results: List[Any] = [_PENDING] * len(tasks)
    attempts = [0] * len(tasks)
    rng = random.Random(backoff_seed)

    digests: List[str] = []
    if journal is not None or resume is not None:
        digests = [task_digest(task) for task in tasks]
    if resume is not None:
        loaded = SweepJournal(resume).load()
        for index in range(len(tasks)):
            record = loaded.get((index, digests[index]), _PENDING)
            if record is not _PENDING:
                results[index] = record
    writer: Optional[SweepJournal] = None
    if journal is not None:
        writer = SweepJournal(journal)
        writer.ensure_header()

    def record_result(index: int, value: Any) -> None:
        results[index] = value
        if writer is not None:
            writer.append(index, digests[index], value)

    def fail(index: int, error_type: str, message: str,
             failure_mode: str) -> None:
        failure = TaskFailure(task=repr(tasks[index]), error_type=error_type,
                              message=message, attempts=attempts[index],
                              mode=failure_mode)
        if on_error == "raise":
            raise SweepError(failure)
        results[index] = failure

    def sleep_backoff(attempt: int) -> None:
        if backoff_base <= 0:
            return
        delay = backoff_base * (2 ** (attempt - 1)) * (0.5 + rng.random())
        time.sleep(min(backoff_cap, delay))

    def pending_indices() -> List[int]:
        return [i for i in range(len(tasks)) if results[i] is _PENDING]

    def run_serial(pending: List[int]) -> None:
        if initializer is not None:
            initializer(*initargs)
        for index in pending:
            while True:
                try:
                    record_result(index, worker(tasks[index]))
                    break
                except Exception as exc:
                    attempts[index] += 1
                    if (attempts[index] <= retries
                            and not isinstance(exc, _DETERMINISTIC)):
                        sleep_backoff(attempts[index])
                        continue
                    fail(index, type(exc).__name__, str(exc), "serial")
                    break

    def drain_pool(pool, pool_mode: str, pending: List[int],
                   pool_workers: int, pool_chunksize: int) -> None:
        """Push ``pending`` through ``pool`` until done or the pool breaks."""
        queue: Deque[List[int]] = collections.deque(
            chunk_tasks(pending, pool_chunksize))
        inflight: Dict[Any, Tuple[List[int], Optional[float]]] = {}

        def submit(indices: List[int]) -> None:
            chunk = [tasks[i] for i in indices]
            try:
                future = pool.submit(_guarded_chunk, worker, chunk)
            except BrokenExecutor as exc:
                raise _PoolBroken(
                    indices + [i for ind, _ in inflight.values() for i in ind],
                    type(exc).__name__,
                    str(exc) or "worker pool broke on submit")
            deadline = (time.monotonic() + timeout * len(indices)
                        if timeout is not None else None)
            inflight[future] = (indices, deadline)

        while queue or inflight:
            # Cap in-flight dispatches at the pool size so a submitted
            # chunk starts (approximately) immediately — the per-task
            # deadline below is measured from submission.
            while queue and len(inflight) < pool_workers:
                submit(queue.popleft())
            deadlines = [d for _, d in inflight.values() if d is not None]
            wait_for = (max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None)
            done, _ = concurrent.futures.wait(
                set(inflight), timeout=wait_for,
                return_when=concurrent.futures.FIRST_COMPLETED)
            if not done:
                now = time.monotonic()
                expired_running: List[int] = []
                for future in list(inflight):
                    indices, deadline = inflight[future]
                    if deadline is None or deadline > now or future.done():
                        continue
                    if future.cancel():
                        # Never started: not the task's fault — requeue
                        # without charging an attempt.
                        inflight.pop(future)
                        queue.append(indices)
                    else:
                        expired_running.extend(indices)
                if expired_running:
                    raise _PoolBroken(
                        expired_running, "TimeoutError",
                        f"task exceeded the {timeout:.6g}s per-task timeout")
                continue
            broken: Optional[BrokenExecutor] = None
            broken_indices: List[int] = []
            for future in done:
                indices, _ = inflight.pop(future)
                try:
                    outcomes = future.result()
                except BrokenExecutor as exc:
                    broken = exc
                    broken_indices.extend(indices)
                    continue
                except Exception as exc:
                    # The dispatch itself failed (e.g. unpicklable chunk):
                    # every task in it is charged the error.
                    outcomes = [_error_outcome(exc)] * len(indices)
                for index, outcome in zip(indices, outcomes):
                    if outcome[0] == "ok":
                        record_result(index, outcome[1])
                        continue
                    attempts[index] += 1
                    if attempts[index] <= retries and not outcome[3]:
                        sleep_backoff(attempts[index])
                        queue.append([index])
                    else:
                        fail(index, outcome[1], outcome[2], pool_mode)
            if broken is not None:
                broken_indices.extend(
                    i for ind, _ in inflight.values() for i in ind)
                raise _PoolBroken(
                    broken_indices, type(broken).__name__,
                    str(broken) or "worker pool broke mid-sweep")

    pending = pending_indices()
    if not pending:
        return results
    if mode == "serial" or workers is None or workers <= 1:
        run_serial(pending)
        return results

    current_mode = mode
    rebuilds = 0
    completed_at_last_break = len(tasks) - len(pending)
    while True:
        pending = pending_indices()
        if not pending:
            break
        if current_mode == "serial":
            run_serial(pending)
            break
        pool = _spawn_pool(current_mode, workers, initializer, initargs)
        if pool is None:
            current_mode = _DEGRADE[current_mode]
            rebuilds = 0
            continue
        pool_chunksize = (chunksize if chunksize is not None
                          else max(1, len(pending) // (workers * 4)))
        try:
            drain_pool(pool, current_mode, pending, workers, pool_chunksize)
        except _PoolBroken as break_event:
            _terminate_pool(pool)
            for index in break_event.penalised:
                if results[index] is not _PENDING:
                    continue
                attempts[index] += 1
                if attempts[index] > retries:
                    fail(index, break_event.error_type, break_event.message,
                         current_mode)
            completed = len(tasks) - len(pending_indices())
            if completed > completed_at_last_break:
                rebuilds = 1
            else:
                rebuilds += 1
            completed_at_last_break = completed
            if rebuilds > max_pool_rebuilds:
                current_mode = _DEGRADE[current_mode]
                rebuilds = 0
            continue
        except BaseException:
            _terminate_pool(pool)
            raise
        else:
            pool.shutdown()
            break
    return results
