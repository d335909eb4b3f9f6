"""Tests for the experiment drivers (scaled-down versions of each table/figure)."""

import pytest

from repro.engine import ProfileOptions, SweepOptions, chunk_tasks, run_sweep
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
from repro.experiments.table2 import Table2Result, miss_ratio_std_dev, run_table2
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
                        sweep_options=SweepOptions(chunksize=0))


class TestFigure1Profile:
    def test_profile_modes_are_bit_exact(self):
        """Routing the a2 rows through the one-pass profiler (or refusing
        to) must not change a single ratio."""
        base = run_figure1(max_stride=33, stride_step=4, sweeps=4,
                           engine="vectorized")
        for profile in ("always", "never"):
            other = run_figure1(max_stride=33, stride_step=4, sweeps=4,
                                engine="vectorized",
                                profile_options=ProfileOptions(profile))
            assert other.miss_ratios == base.miss_ratios

    def test_profile_mode_is_validated(self):
        with pytest.raises(ValueError):
            run_figure1(max_stride=16,
                        profile_options=ProfileOptions("sometimes"))
        with pytest.raises(ValueError):
            stride_miss_ratio("a2", 3, engine="vectorized",
                              profile_options=ProfileOptions("sometimes"))


class TestSweepChunking:
    def test_chunk_tasks_groups_and_preserves_order(self):
        tasks = list(range(10))
        chunks = chunk_tasks(tasks, 4)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert [t for chunk in chunks for t in chunk] == tasks

    def test_chunk_tasks_validation(self):
        with pytest.raises(ValueError):
            chunk_tasks([1, 2], 0)

    def test_run_sweep_chunksize_passthrough(self):
        # Serial path ignores chunksize; result order always preserved.
        assert run_sweep(lambda x: x * x, [1, 2, 3], chunksize=2) == [1, 4, 9]
        with pytest.raises(ValueError):
            run_sweep(lambda x: x, [1], workers=2, chunksize=0)

    @pytest.mark.parametrize("chunksize", [1, 3, 100, None])
    def test_run_sweep_thread_mode_honours_chunksize(self, chunksize):
        """Regression: thread mode used to silently drop ``chunksize``
        (``ThreadPoolExecutor.map`` ignores it); tasks are now dispatched as
        explicit chunks — every task runs exactly once, order preserved."""
        import threading

        seen = []
        lock = threading.Lock()

        def worker(task):
            with lock:
                seen.append(task)
            return task * 10

        tasks = list(range(11))
        results = run_sweep(worker, tasks, workers=2, mode="thread",
                            chunksize=chunksize)
        assert results == [task * 10 for task in tasks]
        assert sorted(seen) == tasks

    def test_figure1_chunked_dispatch_matches_serial(self):
        """Per-scheme chunked task batching must not change any ratio."""
        serial = run_figure1(max_stride=41, stride_step=4, sweeps=4)
        chunked = run_figure1(max_stride=41, stride_step=4, sweeps=4,
                              sweep_options=SweepOptions(workers=2,
                                                         chunksize=3))
        assert chunked.miss_ratios == serial.miss_ratios
        assert chunked.summary() == serial.summary()


class TestSweepInitializer:
    def test_serial_path_runs_initializer_once(self):
        calls = []
        results = run_sweep(lambda x: x + 1, [1, 2, 3],
                            initializer=lambda tag: calls.append(tag),
                            initargs=("warm",))
        assert results == [2, 3, 4]
        assert calls == ["warm"]

    def test_thread_pool_runs_initializer_per_worker(self):
        import threading

        seen = set()
        lock = threading.Lock()

        def init():
            with lock:
                seen.add(threading.get_ident())

        results = run_sweep(lambda x: x * 2, list(range(8)), workers=2,
                            mode="thread", initializer=init)
        assert results == [x * 2 for x in range(8)]
        assert 1 <= len(seen) <= 2

    def test_serial_fallback_when_no_pool_can_spawn(self, monkeypatch):
        """Regression: the degrade-to-serial path must still run the
        initializer in-process (exactly once) and produce every result.
        Both pool flavours are blocked so the process -> thread -> serial
        chain lands on serial."""
        import concurrent.futures

        class BrokenExecutor:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool spawning in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BrokenExecutor)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            BrokenExecutor)
        calls = []
        results = run_sweep(lambda x: x * x, [2, 3], workers=4,
                            mode="process",
                            initializer=lambda: calls.append("init"))
        assert results == [4, 9]
        assert calls == ["init"]

    def test_serial_fallback_without_initializer(self, monkeypatch):
        import concurrent.futures

        class BrokenExecutor:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool spawning in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BrokenExecutor)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            BrokenExecutor)
        assert run_sweep(lambda x: -x, [1, 2], workers=3) == [-1, -2]

    def test_process_spawn_failure_degrades_to_thread_first(self, monkeypatch):
        """Process-pool spawn failure should try threads before giving up
        on parallelism entirely."""
        import concurrent.futures
        import threading

        class BrokenExecutor:
            def __init__(self, *args, **kwargs):
                raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BrokenExecutor)
        main_thread_tasks = []

        def worker(task):
            if threading.current_thread() is threading.main_thread():
                main_thread_tasks.append(task)
            return task + 10

        results = run_sweep(worker, [1, 2, 3, 4], workers=2, mode="process")
        assert results == [11, 12, 13, 14]
        assert main_thread_tasks == []  # ran on the thread pool, not serially


class TestDriverFaultWiring:
    """The fault-tolerance knobs as wired through the experiment drivers."""

    def test_figure1_collect_failure_yields_nan_strides(self, monkeypatch):
        """A collected stride failure lands in ``result.failures``, its
        ratios read ``nan``, and the histograms skip them instead of
        choking on an out-of-range value."""
        import math

        import repro.engine.sweep as sweep_module
        from repro.engine.sweep import TaskFailure
        from repro.engine.sweep import run_sweep as real_run_sweep

        def sabotaged_run_sweep(worker, tasks, **kwargs):
            results = real_run_sweep(worker, tasks, **kwargs)
            results[-1] = TaskFailure(task=repr(tasks[-1]),
                                      error_type="ChaosError",
                                      message="injected", attempts=3,
                                      mode="process")
            return results

        monkeypatch.setattr(sweep_module, "run_sweep", sabotaged_run_sweep)
        result = run_figure1(max_stride=33, sweeps=4,
                             sweep_options=SweepOptions(chunksize=4,
                                                        on_error="collect"))
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "ChaosError"
        last_scheme = list(result.miss_ratios)[-1]
        assert any(math.isnan(r) for r in result.miss_ratios[last_scheme])
        # The failed strides are absent from the histogram, not mis-binned.
        assert result.histograms[last_scheme].total < result.strides
        assert "pathological" in result.render()

    def test_miss_ratio_study_resume_skips_completed_programs(
            self, tmp_path, monkeypatch):
        """A resumed study must serve journalled programs without
        re-simulating them."""
        import repro.experiments.grid as grid_module

        journal = tmp_path / "study.jsonl"
        programs = ["compress", "tomcatv"]
        options = SweepOptions(resume=str(journal))
        first = run_miss_ratio_study(programs=programs, accesses=2_000,
                                     sweep_options=options)
        def poisoned(task):
            raise AssertionError(f"journalled program re-executed: {task!r}")

        monkeypatch.setattr(grid_module, "_grid_task", poisoned)
        resumed = run_miss_ratio_study(programs=programs, accesses=2_000,
                                       sweep_options=options)
        assert resumed.miss_ratios == first.miss_ratios
        assert not resumed.failures

    def test_replacement_study_collects_failures(self, monkeypatch):
        import repro.engine.sweep as sweep_module
        from repro.engine.sweep import TaskFailure
        from repro.engine.sweep import run_sweep as real_run_sweep

        def sabotaged_run_sweep(worker, tasks, **kwargs):
            results = real_run_sweep(worker, tasks, **kwargs)
            results[0] = TaskFailure(task=repr(tasks[0]),
                                     error_type="TimeoutError",
                                     message="injected", attempts=1,
                                     mode="process")
            return results

        monkeypatch.setattr(sweep_module, "run_sweep", sabotaged_run_sweep)
        result = run_replacement_study(
            programs=["compress", "tomcatv"], accesses=2_000,
            sweep_options=SweepOptions(on_error="collect"))
        assert len(result.failures) == 1
        # Averages still render from the surviving program.
        assert result.render()


class TestMissRatioStudy:
    def test_ordering_matches_section_2_1(self):
        result = run_miss_ratio_study(
            programs=["swim", "tomcatv", "gcc", "fpppp"], accesses=15_000)
        averages = result.averages()
        assert averages["conventional-2way"] > averages["ipoly-skewed-2way"]
        assert abs(averages["ipoly-skewed-2way"]
                   - averages["fully-associative"]) < 6.0
        text = result.render()
        assert "Average" in text

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

    def test_workers_and_chunksize_change_nothing(self):
        serial = run_miss_ratio_study(programs=["gcc", "swim"], accesses=4_000,
                                      engine="vectorized")
        fanned = run_miss_ratio_study(programs=["gcc", "swim"], accesses=4_000,
                                      engine="vectorized",
                                      sweep_options=SweepOptions(
                                          workers=2, chunksize=1))
        assert fanned.miss_ratios == serial.miss_ratios

    def test_profile_modes_are_bit_exact(self):
        base = run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                    engine="vectorized")
        for profile in ("always", "never"):
            other = run_miss_ratio_study(
                programs=["gcc"], accesses=4_000, engine="vectorized",
                profile_options=ProfileOptions(profile))
            assert other.miss_ratios == base.miss_ratios
        with pytest.raises(ValueError):
            run_miss_ratio_study(programs=["gcc"], accesses=4_000,
                                 profile_options=ProfileOptions("sometimes"))


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
        with pytest.raises(ValueError):
            run_replacement_study(accesses=3_000,
                                  profile_options=ProfileOptions("sometimes"))

    def test_workers_and_profile_change_nothing(self):
        serial = run_replacement_study(programs=["gcc", "swim"],
                                       accesses=3_000, engine="vectorized")
        fanned = run_replacement_study(programs=["gcc", "swim"],
                                       accesses=3_000, engine="vectorized",
                                       sweep_options=SweepOptions(
                                           workers=2, chunksize=1))
        assert fanned.miss_ratios == serial.miss_ratios
        profiled = run_replacement_study(programs=["gcc", "swim"],
                                         accesses=3_000, engine="vectorized",
                                         profile_options=ProfileOptions(
                                             "always"))
        assert profiled.miss_ratios == serial.miss_ratios


class TestHolesStudy:
    def test_model_and_simulation_are_both_small(self):
        result = run_holes_study(l2_sizes=[64 * 1024],
                                 programs=["swim", "gcc"], accesses=20_000)
        size = 64 * 1024
        assert result.predicted_hole_probability[size] == pytest.approx(
            (2 ** 8 - 1) / 2 ** 11)
        assert 0.0 <= result.simulated_hole_rate[size] <= \
            result.predicted_hole_probability[size] + 0.05
        assert result.l2_misses[size] > 0
        assert "model P_H" in result.render()

    def test_larger_l2_never_increases_hole_rate(self):
        result = run_holes_study(l2_sizes=[64 * 1024, 256 * 1024],
                                 programs=["swim"], accesses=20_000)
        assert (result.simulated_hole_rate[256 * 1024]
                <= result.simulated_hole_rate[64 * 1024] + 1e-9)

    def test_repeated_l2_size_is_simulated_once(self):
        once = run_holes_study(l2_sizes=[64 * 1024], programs=["swim"],
                               accesses=3_000, engine="vectorized")
        twice = run_holes_study(l2_sizes=[64 * 1024, 64 * 1024],
                                programs=["swim"], accesses=3_000,
                                engine="vectorized")
        assert vars(twice) == vars(once)


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
    def test_first_probe_hits_dominate(self):
        """Section 3.1: around 90% of hits are found on the first probe."""
        result = run_column_assoc_study(programs=["gcc", "swim", "li"],
                                        accesses=20_000)
        assert result.mean_first_probe_hit_ratio() > 0.8
        assert all(p >= 1.0 for p in result.average_probes.values())
        assert "first-probe" in result.render()


class TestCriticalPathStudy:
    def test_paper_hardware_claims(self):
        result = run_critical_path_study(index_bit_widths=(7,),
                                         address_bits=19,
                                         hash_bit_widths=(19,))
        assert result.max_fan_in() <= 5
        assert result.cla_delays[19]["low_bits_delay"] == 9
        assert result.cla_delays[19]["full_add_delay"] == 11
        assert "XOR-tree" in result.render()


@pytest.fixture(scope="module")
def small_table2():
    """One scaled-down Table 2 run shared by the slower experiment tests."""
    return run_table2(programs=["swim", "tomcatv", "wave5", "gcc", "fpppp"],
                      instructions=6_000)


class TestTable2:
    def test_structure(self, small_table2):
        assert small_table2.programs == ["swim", "tomcatv", "wave5", "gcc", "fpppp"]
        assert set(small_table2.configurations) == set(TABLE2_CONFIGS)
        text = small_table2.render()
        assert "Combined average" in text and "swim" in text

    def test_ipoly_beats_conventional_for_bad_programs(self, small_table2):
        for program in ("swim", "tomcatv", "wave5"):
            assert (small_table2.ipc(program, "8K-ipoly-noCP")
                    > small_table2.ipc(program, "8K-conv"))
            assert (small_table2.miss_ratio_percent(program, "8K-ipoly-noCP")
                    < small_table2.miss_ratio_percent(program, "8K-conv") / 2)

    def test_xor_in_critical_path_costs_a_little(self, small_table2):
        for program in small_table2.programs:
            assert (small_table2.ipc(program, "8K-ipoly-CP")
                    <= small_table2.ipc(program, "8K-ipoly-noCP") + 1e-9)

    def test_prediction_recovers_the_critical_path_penalty(self, small_table2):
        for program in small_table2.programs:
            assert (small_table2.ipc(program, "8K-ipoly-CP-pred")
                    >= small_table2.ipc(program, "8K-ipoly-CP") - 1e-9)

    def test_std_dev_reduction(self, small_table2):
        stds = miss_ratio_std_dev(small_table2)
        assert stds["8K-ipoly-noCP"] < stds["8K-conv"]

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
            table3 = run_table3(table2_result=empty).render().splitlines()
            assert table3[0] == "Table 3 (IPC)"
            assert table3[1].split() == ["program", *TABLE2_CONFIGS]

    def test_workers_and_chunksize_change_nothing(self, small_table2):
        fanned = run_table2(programs=["swim", "tomcatv", "wave5", "gcc", "fpppp"],
                            instructions=6_000,
                            sweep_options=SweepOptions(workers=2, chunksize=2))
        for program in small_table2.programs:
            for config in small_table2.configurations:
                assert (fanned.results[program][config]
                        == small_table2.results[program][config])


class TestTable3:
    def test_improvement_summary_shape(self, small_table2):
        table3 = run_table3(table2_result=small_table2)
        assert table3.bad_programs == ["swim", "tomcatv", "wave5"]
        summary = table3.improvement_summary()
        # Bad programs gain substantially from I-Poly even with the XOR stage
        # on the critical path; good programs lose only a little.
        assert summary["bad_ipoly_cp_vs_8k_conv"] > 10.0
        assert summary["bad_ipoly_cp_pred_vs_8k_conv"] >= summary["bad_ipoly_cp_vs_8k_conv"]
        assert summary["bad_ipoly_cp_pred_vs_16k_conv"] > 0.0
        assert summary["good_ipoly_cp_vs_8k_conv"] > -10.0
        assert "Average-bad" in table3.render()

    def test_workers_forwarded_to_table2(self):
        serial = run_table3(instructions=1_500)
        fanned = run_table3(instructions=1_500,
                            sweep_options=SweepOptions(workers=2))
        assert fanned.table2.results == serial.table2.results
