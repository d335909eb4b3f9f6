"""Tests for the experiment drivers (scaled-down versions of each table/figure)."""

import os

import pytest

from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cpu.workloads import program_names
from repro.engine import (
    SweepOptions,
    TaskFailure,
    ckernels,
    run_sweep,
)
from repro.experiments.column_assoc_study import run_column_assoc_study
from repro.experiments.config import (
    PAPER_L1_8KB,
    PAPER_L1_16KB,
    TABLE2_CONFIGS,
    CacheGeometry,
    InputError,
    build_cache,
    table2_processor_configs,
)
from repro.experiments.critical_path import run_critical_path_study
from repro.experiments.figure1 import run_figure1, stride_miss_ratio
from repro.experiments.holes_study import run_holes_study
from repro.experiments.miss_ratio_study import run_miss_ratio_study
from repro.experiments.replacement_study import run_replacement_study
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments import table3 as table3_module
from repro.experiments.table3 import run_table3


class TestConfig:
    def test_paper_geometries(self):
        assert PAPER_L1_8KB.num_sets == 128
        assert PAPER_L1_16KB.num_sets == 256
        assert PAPER_L1_8KB.label == "8KB-2way"

    def test_build_cache_scheme(self):
        cache = build_cache(PAPER_L1_8KB, "a2-Hp-Sk")
        assert cache.index_function.name == "a2-Hp-Sk"
        assert cache.size_bytes == 8 * 1024

    def test_table2_has_six_configurations(self):
        assert len(TABLE2_CONFIGS) == 6
        configs = table2_processor_configs()
        assert configs["16K-conv"].cache_size_bytes == 16 * 1024
        assert configs["8K-ipoly-CP"].xor_in_critical_path
        assert configs["8K-ipoly-CP-pred"].address_prediction


class TestFigure1:
    def test_power_of_two_strides(self):
        """Conventional indexing thrashes on 2^k strides; I-Poly does not."""
        for stride in (64, 128, 256):
            assert stride_miss_ratio("a2", stride) > 0.9
            assert stride_miss_ratio("a2-Hp-Sk", stride) < 0.3

    def test_unit_stride_is_cheap_everywhere(self):
        for scheme in ("a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"):
            assert stride_miss_ratio(scheme, 1) < 0.1

    def test_small_sweep_shape(self):
        result = run_figure1(max_stride=257, sweeps=8)
        summary = result.summary()
        assert summary["a2"] > 0.0
        assert summary["a2-Hp-Sk"] == 0.0
        assert summary["a2"] > summary["a2-Hp-Sk"]
        # Histograms account for every stride tested.
        assert all(h.total == result.strides for h in result.histograms.values())

    def test_render(self):
        result = run_figure1(max_stride=65, sweeps=4)
        text = result.render()
        assert "a2-Hp-Sk" in text and "pathological" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            run_figure1(max_stride=1)
        with pytest.raises(ValueError):
            stride_miss_ratio("a2", 0)
        with pytest.raises(ValueError):
            run_figure1(max_stride=16,
                        sweep_options=SweepOptions(workers=-1))

    def test_workers_change_nothing(self):
        serial = run_figure1(max_stride=41, stride_step=4, sweeps=4)
        fanned = run_figure1(max_stride=41, stride_step=4, sweeps=4,
                             sweep_options=SweepOptions(workers=2))
        assert fanned.miss_ratios == serial.miss_ratios
        assert fanned.summary() == serial.summary()


class TestFigure1KernelTiers:
    def test_kernel_tiers_are_bit_exact(self, monkeypatch):
        """Without compiled kernels every row runs on the Python kernels
        (the fully-associative one on their one-set path); not a single
        ratio may change."""
        base = run_figure1(max_stride=33, stride_step=4, sweeps=4,
                           engine="vectorized")
        monkeypatch.setattr(ckernels, "available", lambda: False)
        other = run_figure1(max_stride=33, stride_step=4, sweeps=4,
                            engine="vectorized")
        assert other.miss_ratios == base.miss_ratios


def _square_unless_three(task):
    """Module-level, so pool workers can unpickle it."""
    if task == 3:
        raise RuntimeError(f"task {task} failed")
    return task * task


def _exit_on_three(task):
    """Kills its worker process: the pool breaks mid-sweep."""
    if task == 3:
        os._exit(1)
    return task


def _with_pid(task):
    return task, os.getpid()


class _SweepTestError(Exception):
    """A worker-raised error type of the test module's own."""


_ERRORS = {"ValueError": ValueError, "KeyError": KeyError,
           "ZeroDivisionError": ZeroDivisionError,
           "_SweepTestError": _SweepTestError}


def _raise_named_at_two(task):
    """``task`` is ``(index, error name)``; index 2 raises that error."""
    index, name = task
    if index == 2:
        raise _ERRORS[name](f"task {index}")
    return index


def _fail_at_five_and_fifteen(task):
    if task in (5, 15):
        raise RuntimeError(f"task {task} failed")
    return task


class TestRunSweep:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_order_and_failures(self, workers):
        """On 2 workers the 20 tasks run as chunks of 2, so task 3 shares
        its chunk with task 2, which still finishes under ``collect``."""
        tasks = list(range(20))
        assert (run_sweep(abs, [-t for t in tasks], workers=workers)
                == tasks)
        collected = run_sweep(_square_unless_three, tasks, workers=workers,
                              on_error="collect")
        assert collected == [
            TaskFailure("3", "RuntimeError", "task 3 failed") if t == 3
            else t * t for t in tasks]
        with pytest.raises(RuntimeError, match="task 3 failed"):
            run_sweep(_square_unless_three, tasks, workers=workers)

    @pytest.mark.parametrize("on_error", ["raise", "collect"])
    def test_broken_pool_raises(self, on_error):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            run_sweep(_exit_on_three, list(range(8)), workers=2,
                      on_error=on_error)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(abs, [1], workers=-1)
        with pytest.raises(ValueError):
            run_sweep(abs, [1], on_error="shrug")

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 17, 40])
    def test_chunks_run_whole_in_one_process(self, count, workers):
        """Every task runs once, in order, and the tasks of one chunk of
        ``max(1, count // (workers * 4))`` share a worker process."""
        results = run_sweep(_with_pid, list(range(count)), workers=workers)
        assert [task for task, _ in results] == list(range(count))
        assert all(pid != os.getpid() for _, pid in results)
        size = max(1, count // (workers * 4))
        for start in range(0, count, size):
            assert len({pid for _, pid in results[start:start + size]}) == 1

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_knob_values_run_in_process(self, workers):
        pids = []

        def worker(task):  # a closure: never pickled on the serial path
            pids.append(os.getpid())
            return -task

        assert run_sweep(worker, [1, 2, 3], workers=workers) == [-1, -2, -3]
        assert pids == [os.getpid()] * 3

    @pytest.mark.parametrize("on_error", ["raise", "collect"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_empty_task_list(self, workers, on_error):
        assert run_sweep(_with_pid, [], workers=workers,
                         on_error=on_error) == []

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("name", sorted(_ERRORS))
    def test_failure_keeps_its_error_type(self, name, workers):
        """``raise`` propagates the worker's own exception type;
        ``collect`` names that type in the task's :class:`TaskFailure`."""
        tasks = [(index, name) for index in range(6)]
        with pytest.raises(_ERRORS[name]):
            run_sweep(_raise_named_at_two, tasks, workers=workers)
        collected = run_sweep(_raise_named_at_two, tasks, workers=workers,
                              on_error="collect")
        failure = collected[2]
        assert isinstance(failure, TaskFailure)
        assert failure.task == repr(tasks[2])
        assert failure.error_type == name
        assert "task 2" in failure.message
        assert collected[:2] + collected[3:] == [0, 1, 3, 4, 5]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_raise_reports_the_first_failure_in_task_order(self, workers):
        with pytest.raises(RuntimeError, match="task 5 failed"):
            run_sweep(_fail_at_five_and_fifteen, list(range(20)),
                      workers=workers)

    @pytest.mark.parametrize("on_error", ["raise", "collect"])
    def test_pool_that_cannot_start_raises(self, on_error, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(OSError, match="no process pool here"):
            run_sweep(_with_pid, [1, 2, 3], workers=2, on_error=on_error)

    @pytest.mark.parametrize("on_error", ["raise", "collect"])
    def test_unpicklable_worker_raises_on_the_pool(self, on_error):
        """Regression: a worker that cannot be pickled once hung the pool's
        shutdown; it now raises its pickling error under either policy."""
        import pickle

        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_sweep(lambda task: task, list(range(6)), workers=2,
                      on_error=on_error)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sweep_options_run_is_run_sweep(self, workers):
        options = SweepOptions(workers=workers, on_error="collect")
        tasks = list(range(8))
        assert (options.run(_square_unless_three, tasks)
                == run_sweep(_square_unless_three, tasks, workers=workers,
                             on_error="collect"))

    def test_run_sweep_takes_four_parameters(self):
        import inspect

        assert list(inspect.signature(run_sweep).parameters) == [
            "worker", "tasks", "workers", "on_error"]

    def test_sweep_options_has_two_fields(self):
        import dataclasses

        assert [field.name for field in dataclasses.fields(SweepOptions)] == [
            "workers", "on_error"]

    @pytest.mark.parametrize("module", ["checkpoint", "faults"])
    def test_resilience_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.engine.{module}")

    @pytest.mark.parametrize("name", ["SweepError", "SweepJournal",
                                      "task_digest", "chunk_tasks",
                                      "backoff_delays"])
    def test_resilience_names_are_not_exported(self, name):
        import repro.engine
        import repro.engine.sweep

        assert not hasattr(repro.engine, name)
        assert not hasattr(repro.engine.sweep, name)


class TestDriverFaultWiring:
    """The fault-tolerance knobs as wired through the experiment drivers."""

    def test_figure1_collect_failure_yields_nan_strides(self, monkeypatch):
        """A collected stride failure lands in ``result.failures``, its
        ratios read ``nan``, and the histograms skip them instead of
        choking on an out-of-range value."""
        import math

        import repro.engine.sweep as sweep_module
        from repro.engine.sweep import run_sweep as real_run_sweep

        def sabotaged_run_sweep(worker, tasks, **kwargs):
            results = real_run_sweep(worker, tasks, **kwargs)
            results[-1] = TaskFailure(task=repr(tasks[-1]),
                                      error_type="InjectedError",
                                      message="injected")
            return results

        monkeypatch.setattr(sweep_module, "run_sweep", sabotaged_run_sweep)
        result = run_figure1(max_stride=33, sweeps=4,
                             sweep_options=SweepOptions(on_error="collect"))
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "InjectedError"
        last_scheme = list(result.miss_ratios)[-1]
        assert any(math.isnan(r) for r in result.miss_ratios[last_scheme])
        # The failed strides are absent from the histogram, not mis-binned.
        assert result.histograms[last_scheme].total < result.strides
        assert "pathological" in result.render()

    def test_replacement_study_collects_failures(self, monkeypatch):
        import repro.engine.sweep as sweep_module
        from repro.engine.sweep import run_sweep as real_run_sweep

        def sabotaged_run_sweep(worker, tasks, **kwargs):
            results = real_run_sweep(worker, tasks, **kwargs)
            results[0] = TaskFailure(task=repr(tasks[0]),
                                     error_type="InjectedError",
                                     message="injected")
            return results

        monkeypatch.setattr(sweep_module, "run_sweep", sabotaged_run_sweep)
        result = run_replacement_study(
            programs=["compress", "tomcatv"], accesses=2_000,
            sweep_options=SweepOptions(on_error="collect"))
        assert len(result.failures) == 1
        # Averages still render from the surviving program.
        assert result.render()


class TestMissRatioStudy:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_miss_ratio_study(accesses=10)

    def test_vectorized_victim_runs_native_kernel(self):
        """The vectorized study must build BatchVictimCache — no scalar
        replay fallback — and still agree with the reference engine."""
        from repro.engine import BatchVictimCache
        from repro.experiments.miss_ratio_study import study_organisations
        victim = study_organisations()["victim-direct+8"].build("vectorized")
        assert isinstance(victim, BatchVictimCache)
        ref = run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                   engine="reference")
        vec = run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                   engine="vectorized")
        assert ref.miss_ratios == vec.miss_ratios

    def test_replacement_parameter_changes_results_consistently(self):
        ref = run_miss_ratio_study(programs=["swim"], accesses=4_000,
                                   engine="reference", replacement="fifo")
        vec = run_miss_ratio_study(programs=["swim"], accesses=4_000,
                                   engine="vectorized", replacement="fifo")
        assert ref.miss_ratios == vec.miss_ratios

    def test_workers_change_nothing(self):
        serial = run_miss_ratio_study(programs=["gcc", "swim"], accesses=4_000,
                                      engine="vectorized")
        fanned = run_miss_ratio_study(programs=["gcc", "swim"], accesses=4_000,
                                      engine="vectorized",
                                      sweep_options=SweepOptions(workers=2))
        assert fanned.miss_ratios == serial.miss_ratios
        assert "Average" in serial.render()

    @pytest.mark.parametrize("replacement", REPLACEMENT_POLICIES)
    def test_kernel_tiers_are_bit_exact(self, monkeypatch, replacement):
        """Every organisation, the fully-associative yardstick among them,
        gives the same ratios on both kernel tiers under every policy."""
        base = run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                    engine="vectorized",
                                    replacement=replacement)
        monkeypatch.setattr(ckernels, "available", lambda: False)
        other = run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                     engine="vectorized",
                                     replacement=replacement)
        assert other.miss_ratios == base.miss_ratios


class TestReplacementStudy:
    def test_engines_agree_exactly(self):
        ref = run_replacement_study(programs=["gcc", "swim"], accesses=3_000,
                                    engine="reference")
        vec = run_replacement_study(programs=["gcc", "swim"], accesses=3_000,
                                    engine="vectorized")
        assert ref.miss_ratios == vec.miss_ratios

    def test_structure_and_summary(self):
        result = run_replacement_study(programs=["gcc"], accesses=3_000,
                                       engine="vectorized")
        assert result.policies == ["lru", "fifo", "random", "plru"]
        assert set(result.organisations) == {
            "conventional-2way", "skewed-ipoly-2way", "victim-direct+8"}
        for organisation in result.organisations:
            assert result.policy_spread(organisation) >= 0.0
            assert result.lru_penalty(organisation, "lru") == 0.0
        text = result.render()
        assert "replacement sensitivity" in text and "plru" in text

    def test_two_way_plru_equals_lru(self):
        """Tree-PLRU over two ways *is* LRU — a structural sanity check the
        sweep should reproduce on the set-associative organisations."""
        result = run_replacement_study(programs=["gcc"], accesses=3_000,
                                       policies=["lru", "plru"],
                                       engine="vectorized")
        for organisation in ("conventional-2way", "skewed-ipoly-2way"):
            row = result.miss_ratios[organisation]
            assert row["plru"] == row["lru"]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_replacement_study(accesses=10)
        with pytest.raises(ValueError):
            run_replacement_study(policies=["mru"], accesses=3_000)

    def test_workers_change_nothing(self):
        serial = run_replacement_study(programs=["gcc", "swim"],
                                       accesses=3_000, engine="vectorized")
        fanned = run_replacement_study(programs=["gcc", "swim"],
                                       accesses=3_000, engine="vectorized",
                                       sweep_options=SweepOptions(workers=2))
        assert fanned.miss_ratios == serial.miss_ratios

    def test_kernel_tiers_are_bit_exact(self, monkeypatch):
        base = run_replacement_study(programs=["gcc"], accesses=3_000,
                                     engine="vectorized")
        monkeypatch.setattr(ckernels, "available", lambda: False)
        other = run_replacement_study(programs=["gcc"], accesses=3_000,
                                      engine="vectorized")
        assert other.miss_ratios == base.miss_ratios


class TestHolesStudy:
    def test_repeated_l2_size_is_simulated_once(self):
        once = run_holes_study(l2_sizes=[64 * 1024], programs=["swim"],
                               accesses=3_000, engine="vectorized")
        twice = run_holes_study(l2_sizes=[64 * 1024, 64 * 1024],
                                programs=["swim"], accesses=3_000,
                                engine="vectorized")
        assert vars(twice) == vars(once)
        assert "model P_H" in once.render()


class TestVectorizedBuildsNoScalarModel:
    """On the vectorized engine the miss-ratio and holes studies create no
    per-access trace record and no scalar set-associative cache."""

    @pytest.fixture()
    def no_scalar_path(self, monkeypatch):
        from repro.cache.set_assoc import SetAssociativeCache
        from repro.trace.batching import trace_cache_clear
        from repro.trace.record import MemoryAccess

        def forbidden(*args, **kwargs):
            raise AssertionError("scalar path taken on the vectorized engine")

        trace_cache_clear()
        monkeypatch.setattr(MemoryAccess, "__post_init__", forbidden)
        monkeypatch.setattr(SetAssociativeCache, "__init__", forbidden)
        yield
        trace_cache_clear()

    def test_miss_ratio_study(self, request):
        programs = ["swim", "gcc", "compress"]
        reference = run_miss_ratio_study(programs=programs, accesses=3_000,
                                         engine="reference")
        request.getfixturevalue("no_scalar_path")
        vectorized = run_miss_ratio_study(programs=programs, accesses=3_000,
                                          engine="vectorized")
        assert vectorized.miss_ratios == reference.miss_ratios

    def test_holes_study(self, request):
        kwargs = dict(l2_sizes=[64 * 1024, 128 * 1024],
                      programs=["swim", "tomcatv", "gcc"], accesses=8_000)
        reference = run_holes_study(engine="reference", **kwargs)
        assert sum(reference.l2_misses.values()) > 0
        request.getfixturevalue("no_scalar_path")
        vectorized = run_holes_study(engine="vectorized", **kwargs)
        assert vars(vectorized) == vars(reference)


class TestColumnAssocStudy:
    def test_engines_agree(self, kernel_path):
        """The batch cache's probe counters give the scalar model's ratios,
        bit for bit, on either kernel tier."""
        kwargs = dict(programs=["gcc", "swim", "li"], accesses=6_000,
                      second_probe_penalty=2.5)
        reference = run_column_assoc_study(engine="reference", **kwargs)
        vectorized = run_column_assoc_study(engine="vectorized", **kwargs)
        assert vars(vectorized) == vars(reference)
        assert vectorized.render() == reference.render()


class TestCriticalPathStudy:
    def test_paper_hardware_claims(self):
        result = run_critical_path_study(index_bit_widths=(7,),
                                         address_bits=19,
                                         hash_bit_widths=(19,))
        assert max(cost.max_fan_in for cost in result.costs.values()) <= 5
        assert result.cla_delays[19]["low_bits_delay"] == 9
        assert result.cla_delays[19]["full_add_delay"] == 11
        assert "XOR-tree" in result.render()


class TestTable2:
    """The full Table 2 run is the claims ledger's (``ledger_results``)."""

    def test_structure(self, ledger_results):
        table2 = ledger_results["table2"]
        assert table2.programs == program_names()
        assert set(table2.configurations) == set(TABLE2_CONFIGS)
        text = table2.render()
        assert "Combined average" in text and "swim" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            run_table2(instructions=10)

    @pytest.mark.parametrize("overrides", [dict(index_scheme="bogus"),
                                           dict(cache_ways=0),
                                           dict(no_such_knob=1)])
    def test_bad_configuration_fails_before_any_task(self, monkeypatch,
                                                      overrides):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a sweep task started")

        monkeypatch.setattr("repro.experiments.table2.build_program",
                            no_simulation)
        with pytest.raises(InputError, match="configuration 'x'"):
            run_table2(programs=["gcc"], instructions=1_000,
                       configurations={"x": overrides})

    def test_records_the_configuration_labels(self):
        result = run_table2(programs=["gcc"], instructions=1_000,
                            configurations={"tiny": dict(cache_size_bytes=1024),
                                            "8K-conv": {}})
        assert result.configurations == ["tiny", "8K-conv"]

    def test_all_failed_run_renders_headers_only(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no program")

        monkeypatch.setattr("repro.experiments.table2.build_program", broken)
        result = run_table2(programs=["gcc", "swim"], instructions=1_000,
                            sweep_options=SweepOptions(on_error="collect"))
        assert result.programs == []
        assert [f.error_type for f in result.failures] == ["RuntimeError"] * 2
        for empty in (result, Table2Result(instructions_per_program=1_000)):
            lines = empty.render().splitlines()
            assert lines[0] == "Table 2 (IPC)"
            assert lines[1].split() == ["program", *TABLE2_CONFIGS]
            assert lines[4] == "Table 2 (load miss ratio %)"
            assert len(lines) == 7
        table3 = run_table3(instructions=1_000, sweep_options=SweepOptions(
            on_error="collect")).render().splitlines()
        assert table3[0] == "Table 3 (IPC)"
        assert table3[1].split() == ["program", *TABLE2_CONFIGS]

    def test_workers_change_nothing(self, ledger_results):
        programs = ["swim", "gcc", "fpppp"]
        fanned = run_table2(programs=programs, instructions=12_000,
                            engine="vectorized",
                            sweep_options=SweepOptions(workers=2))
        serial = ledger_results["table2"].results
        assert fanned.results == {program: serial[program]
                                  for program in programs}


class TestTable3:
    def test_improvement_summary_shape(self, ledger_results):
        table3 = ledger_results["table3"]
        assert table3.bad_programs == ["tomcatv", "swim", "wave5"]
        assert set(table3.improvement_summary()) == {
            "bad_ipoly_cp_vs_8k_conv", "bad_ipoly_cp_pred_vs_8k_conv",
            "bad_ipoly_cp_pred_vs_16k_conv", "good_ipoly_cp_vs_8k_conv",
            "good_ipoly_cp_pred_vs_8k_conv"}
        assert "Average-bad" in table3.render()

    def test_table2_result_without_the_bad_programs_is_rejected(self):
        with pytest.raises(ValueError,
                           match=r"\['tomcatv', 'swim', 'wave5'\]"):
            run_table3(table2_result=run_table2(programs=["gcc"],
                                                instructions=1_000))
        partial = Table2Result(instructions_per_program=1_000,
                               results={"swim": {}, "tomcatv": {}})
        with pytest.raises(ValueError, match=r"\['wave5'\]"):
            run_table3(table2_result=partial)

    def test_workers_forwarded_to_table2(self, monkeypatch):
        """``run_table3`` hands its engine and sweep options to
        ``run_table2``; that Table 2 does not depend on the worker count is
        ``TestTable2::test_workers_change_nothing``."""
        calls = []
        table2 = Table2Result(instructions_per_program=1_500, results={})

        def spy(**kwargs):
            calls.append(kwargs)
            return table2

        monkeypatch.setattr(table3_module, "run_table2", spy)
        options = SweepOptions(workers=2)
        result = run_table3(instructions=1_500, seed=9, engine="vectorized",
                            sweep_options=options)
        assert result.table2 is table2
        assert calls == [dict(instructions=1_500, seed=9,
                              engine="vectorized", sweep_options=options)]
