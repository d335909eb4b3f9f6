"""One way to describe a run: option values, organisation specs, the grid."""

import dataclasses

import pytest

from repro.cache import WritePolicy
from repro.engine import ENGINES, SweepOptions
from repro.experiments import (
    CacheGeometry,
    InputError,
    OrganisationSpec,
    ProgramTrace,
    StrideTrace,
    TraceOptions,
    run_figure1,
    run_grid,
    run_miss_ratio_study,
    run_table3,
    simulate,
    study_organisations,
)


class TestOptionValues:
    @pytest.mark.parametrize("options", [
        dict(workers=-1), dict(on_error="shrug"), dict(workers=-8),
        dict(on_error="Raise"), dict(on_error=""),
        dict(workers=-1, on_error="collect"),
    ])
    def test_sweep_options_reject_bad_values(self, options):
        with pytest.raises(ValueError):
            SweepOptions(**options)

    def test_options_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SweepOptions().workers = 2

    def test_trace_options_reject_missing_file_and_bad_chunk(self, tmp_path):
        with pytest.raises(InputError, match="trace file not found"):
            TraceOptions(trace=str(tmp_path / "absent.ctr"))
        with pytest.raises(InputError, match="trace chunk"):
            TraceOptions(trace_chunk=0)

    @pytest.mark.parametrize("driver, knob", [
        (run_figure1, dict(workers=2)),
        (run_table3, dict(workers=2)),
        (run_miss_ratio_study, dict(on_error="collect")),
    ])
    def test_drivers_take_option_values_not_their_fields(self, driver, knob):
        with pytest.raises(TypeError):
            driver(**knob)

    def test_shorthand_keywords_mean_their_option_values(self, tmp_path):
        """``workers=``, ``trace=`` and ``trace_chunk=`` remain as spellings
        of the option values on the drivers the benchmark workloads call."""
        from repro.engine import AddressBatch
        from repro.experiments import run_replacement_study, run_table2
        from repro.trace.stream import write_trace_v2

        path = tmp_path / "t.ctr"
        batch = AddressBatch.from_arrays(
            [64 * (i % 300) for i in range(3_000)])
        write_trace_v2(path, batch.addresses, batch.is_write)
        assert (run_replacement_study(trace=path, trace_chunk=512)
                == run_replacement_study(
                    trace_options=TraceOptions(path, 512)))
        assert (run_table2(programs=["tomcatv"], instructions=1_000,
                           workers=2).results
                == run_table2(programs=["tomcatv"], instructions=1_000,
                              sweep_options=SweepOptions(workers=2)).results)

    def test_shorthand_and_option_value_do_not_mix(self):
        with pytest.raises(TypeError, match="not both"):
            run_miss_ratio_study(workers=2,
                                 sweep_options=SweepOptions(
                                     on_error="collect"))


class TestOrganisationSpec:
    def test_both_engines_build_identical_counts(self):
        organisations = list(study_organisations(replacement="fifo").values())
        source = ProgramTrace("tomcatv", 3_000, 7)
        counts = [simulate(source, organisations, engine)
                  for engine in ENGINES]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("spec", [
        dict(kind="hashed"), dict(scheme="a9"), dict(replacement="mru"),
        dict(write_policy="write-around"),
        dict(kind="victim", write_policy=WritePolicy.WRITE_BACK_ALLOCATE),
    ])
    def test_bad_organisations_fail_at_construction(self, spec):
        with pytest.raises(InputError):
            OrganisationSpec(**spec)

    @pytest.mark.parametrize("kind", ["set-assoc", "fully-assoc"])
    def test_write_policy_reaches_both_engines(self, kind):
        spec = OrganisationSpec(kind=kind,
                                write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert {spec.build(engine).write_policy for engine in ENGINES} == {
            WritePolicy.WRITE_BACK_ALLOCATE}

    def test_bad_geometry_fails_at_construction(self):
        with pytest.raises(InputError):
            CacheGeometry(3000, block_size=32, ways=2)
        with pytest.raises(InputError):
            CacheGeometry(0)

    def test_sources_validate_their_shape(self):
        with pytest.raises(InputError, match="unknown program"):
            ProgramTrace("nosuch", 1_000, 0)
        with pytest.raises(InputError, match="sweeps"):
            StrideTrace(4, sweeps=0)


class TestGrid:
    def test_grid_matches_per_source_simulation(self):
        specs = [OrganisationSpec(scheme="a2"),
                 OrganisationSpec(scheme="a2-Hp-Sk")]
        sources = [StrideTrace(stride) for stride in (1, 64, 96)]
        cells = run_grid(sources, specs, "vectorized",
                         sweep_options=SweepOptions(workers=2))
        assert cells == [simulate(source, specs, "reference")
                         for source in sources]

