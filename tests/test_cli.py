"""Tests for the experiment command-line interface."""

import dataclasses
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import claims, cli
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("figure1", "table2", "table3", "miss-ratio", "holes",
                        "column-assoc", "critical-path", "replacement-study",
                        "claims"):
            args = parser.parse_args([command] if command in
                                     ("critical-path",) else [command])
            assert args.experiment == command

    def test_figure1_options(self):
        args = build_parser().parse_args(
            ["figure1", "--max-stride", "128", "--stride-step", "2",
             "--replacement", "plru"])
        assert args.max_stride == 128
        assert args.stride_step == 2
        assert args.replacement == "plru"

    def test_replacement_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["miss-ratio", "--replacement", "mru"])

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    def test_sweep_options_parity(self, command):
        """--workers exists on every trace-level sweeping command."""
        args = build_parser().parse_args([command, "--workers", "3"])
        assert args.workers == 3

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study", "table2",
                                         "table3"])
    def test_fault_tolerance_options_parity(self, command):
        """--on-error exists on every sweeping command and defaults to
        raise."""
        parser = build_parser()
        assert parser.parse_args([command]).on_error == "raise"
        args = parser.parse_args([command, "--on-error", "collect"])
        assert args.on_error == "collect"

    @pytest.mark.parametrize("argv", [
        ["figure1", "--workers", "-1"],
        ["miss-ratio", "--workers", "-3"],
        ["miss-ratio", "--workers", "two"],
        ["table3", "--on-error", "explode"],
        ["replacement-study", "--workers", "-2"],
        ["table2", "--workers", "1.5"],
        ["figure1", "--on-error", "ignore"],
        ["table3", "--workers", "-1"],
    ])
    def test_bad_sweep_values_rejected_at_parse_time(self, argv, capsys):
        """Invalid sweep/fault values die in argparse (clear usage error),
        never deep inside a driver."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert argv[1] in capsys.readouterr().err  # error names the flag

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study", "table2",
                                         "table3"])
    def test_two_sweep_flags_per_command(self, command, capsys):
        """--workers is on every sweeping command (default serial); the
        retired --chunksize/--timeout/--retries/--resume are not."""
        parser = build_parser()
        assert parser.parse_args([command]).workers is None
        assert parser.parse_args([command, "--workers", "2"]).workers == 2
        for flag, value in (("--chunksize", "2"), ("--timeout", "1.0"),
                            ("--retries", "1"), ("--resume", "j.jsonl")):
            with pytest.raises(SystemExit):
                parser.parse_args([command, flag, value])
            assert flag in capsys.readouterr().err

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    def test_trace_options_parity(self, command):
        """--trace/--trace-chunk exist on every trace-replaying command
        and default to the synthetic suite."""
        parser = build_parser()
        defaults = parser.parse_args([command])
        assert defaults.trace is None
        assert defaults.trace_chunk == 1 << 20
        args = parser.parse_args(
            [command, "--trace", "recorded.ctr", "--trace-chunk", "4096"])
        assert args.trace == "recorded.ctr"
        assert args.trace_chunk == 4096

    @pytest.mark.parametrize("argv", [
        ["miss-ratio", "--trace-chunk", "0"],
        ["figure1", "--trace-chunk", "-5"],
        ["replacement-study", "--trace-chunk", "many"],
    ])
    def test_bad_trace_chunk_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "--trace-chunk" in capsys.readouterr().err

    def test_holes_options(self):
        args = build_parser().parse_args(
            ["holes", "--accesses", "5000", "--l2-kilobytes", "64", "256",
             "--engine", "vectorized", "--seed", "7"])
        assert args.accesses == 5000
        assert args.l2_kilobytes == [64, 256]
        assert args.engine == "vectorized"
        assert args.seed == 7

    def test_holes_engine_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["holes", "--engine", "turbo"])


class TestExecution:
    def test_critical_path_runs(self, capsys):
        assert main(["critical-path"]) == 0
        out = capsys.readouterr().out
        assert "XOR-tree" in out and "CLA timing" in out

    def test_figure1_runs_small(self, capsys):
        assert main(["figure1", "--max-stride", "64", "--stride-step", "4",
                     "--sweeps", "4"]) == 0
        assert "pathological" in capsys.readouterr().out

    def test_miss_ratio_csv_output(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000",
                     "--programs", "gcc", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("program,")
        assert "gcc" in out

    def test_table2_single_program(self, capsys):
        assert main(["table2", "--instructions", "2000",
                     "--programs", "swim"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out and "std-dev" in out

    def test_table2_with_every_program_failed_still_renders(self, monkeypatch,
                                                            capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("no program")

        monkeypatch.setattr("repro.experiments.table2.build_program", broken)
        assert main(["table2", "--instructions", "1000", "--programs", "swim",
                     "--on-error", "collect"]) == 1
        out = capsys.readouterr().out
        report, footer = out.split("\n\n1 sweep task(s) failed:\n")
        assert "Table 2 (IPC)" in report and "8K-ipoly-CP-pred" in report
        assert "swim" not in report and "std-dev" not in report
        assert footer.startswith("  ('swim', 1000,")
        assert footer.endswith(": RuntimeError\n")
        assert footer.count("\n") == 1

    def test_miss_ratio_with_a_failed_program_exits_1(self, monkeypatch,
                                                       capsys):
        from repro.experiments import grid

        real = grid.simulate

        def failing_swim(source, *args, **kwargs):
            if source.name == "swim":
                raise RuntimeError("injected")
            return real(source, *args, **kwargs)

        monkeypatch.setattr(grid, "simulate", failing_swim)
        assert main(["miss-ratio", "--accesses", "2000", "--programs",
                     "swim", "tomcatv", "--on-error", "collect"]) == 1
        out = capsys.readouterr().out
        report, footer = out.split("\n\n1 sweep task(s) failed:\n")
        assert "tomcatv" in report and "swim" not in report
        assert footer.startswith("  (ProgramTrace(name='swim'")
        assert footer.endswith(": RuntimeError\n")

    def test_column_assoc_runs(self, capsys):
        assert main(["column-assoc", "--accesses", "4000"]) == 0
        assert "first-probe" in capsys.readouterr().out

    def test_column_assoc_runs_on_both_engines(self, capsys):
        outputs = []
        for engine in ("reference", "vectorized"):
            assert main(["column-assoc", "--accesses", "3000",
                         "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["column-assoc", "--engine", "turbo"])
        assert build_parser().parse_args(
            ["column-assoc"]).engine == "vectorized"

    @pytest.fixture()
    def recorded_trace(self, tmp_path):
        import numpy as np

        from repro.trace.stream import write_trace_v2

        rng = np.random.default_rng(5)
        path = tmp_path / "recorded.ctr"
        write_trace_v2(
            path,
            rng.integers(0, 1 << 9, size=800, dtype=np.uint64) * np.uint64(32),
            is_write=rng.random(800) < 0.3)
        return path

    def test_miss_ratio_streams_a_recorded_trace(self, recorded_trace,
                                                 capsys):
        assert main(["miss-ratio", "--trace", str(recorded_trace),
                     "--engine", "vectorized", "--trace-chunk", "97"]) == 0
        out = capsys.readouterr().out
        assert "recorded.ctr" in out
        assert "conventional-2way" in out

    def test_replacement_study_streams_a_recorded_trace(self, recorded_trace,
                                                        capsys):
        assert main(["replacement-study", "--trace",
                     str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "replacement sensitivity" in out

    def test_figure1_streams_a_recorded_trace(self, recorded_trace, capsys):
        assert main(["figure1", "--trace", str(recorded_trace),
                     "--engine", "vectorized"]) == 0
        assert "a2-Hp-Sk" in capsys.readouterr().out

    def test_miss_ratio_with_replacement(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000", "--programs", "gcc",
                     "--engine", "vectorized", "--replacement", "fifo"]) == 0
        assert "victim-direct+8" in capsys.readouterr().out

    def test_replacement_study_runs(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "replacement sensitivity" in out
        assert "skewed-ipoly-2way" in out

    def test_replacement_study_csv(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("organisation,")

    def test_miss_ratio_with_workers(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000", "--programs", "gcc",
                     "--engine", "vectorized", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "conventional-2way" in out

    @pytest.mark.parametrize("argv", [
        ["figure1", "--max-stride", "33", "--sweeps", "4"],
        ["miss-ratio", "--accesses", "3000", "--programs", "gcc", "swim"],
        ["replacement-study", "--accesses", "3000", "--programs", "gcc",
         "swim"],
        ["table2", "--instructions", "2000", "--programs", "swim", "gcc"],
        ["table3", "--instructions", "2000"],
    ])
    def test_workers_leave_the_output_byte_identical(self, argv, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_replacement_study_with_workers(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized",
                     "--workers", "2"]) == 0
        assert "replacement sensitivity" in capsys.readouterr().out


    def test_holes_runs_on_both_engines(self, capsys):
        outputs = []
        for engine in ("reference", "vectorized"):
            assert main(["holes", "--accesses", "3000",
                         "--l2-kilobytes", "64", "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert "Holes per L2 miss" in outputs[0]
        # Same numbers from both engines: the table is byte-identical.
        assert outputs[0] == outputs[1]


class TestTraceFormats:
    """``--trace`` reads every format it accepts to the same accesses: one
    recorded trace, written in each, prints byte-identical ``miss-ratio``
    output on both engines.  Detection is by content, so every copy has
    the same file name (the study's row label) in a directory of its own.
    zstd is left out: its module is optional."""

    FORMATS = ("v2", "v2-gzip", "v2-bz2", "v2-xz", "v1-text", "v1-binary",
               "din")

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        import numpy as np

        from repro.trace.record import MemoryAccess
        from repro.trace.stream import write_trace_v2
        from repro.trace.trace_io import write_binary_trace, write_text_trace

        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 1 << 10, size=1500,
                                 dtype=np.uint64) * np.uint64(16)
        writes = rng.random(1500) < 0.3
        records = [MemoryAccess(a, is_write=w)
                   for a, w in zip(addresses.tolist(), writes.tolist())]
        root = tmp_path_factory.mktemp("formats")
        paths = {}
        for name in self.FORMATS:
            directory = root / name
            directory.mkdir()
            path = directory / "recorded.trace"
            if name.startswith("v2"):
                suffix = {"v2": "", "v2-gzip": ".gz", "v2-bz2": ".bz2",
                          "v2-xz": ".xz"}[name]
                written = directory / f"written{suffix}"
                write_trace_v2(written, addresses, is_write=writes)
                written.rename(path)
            elif name == "v1-text":
                write_text_trace(path, records)
            elif name == "v1-binary":
                write_binary_trace(path, records)
            else:
                path.write_text("".join(f"{int(r.is_write)} {r.address:x}\n"
                                        for r in records))
            paths[name] = path
        return paths

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_every_format_prints_the_same_miss_ratios(self, traces, engine,
                                                      capsys):
        from repro.trace.stream import detect_trace_format

        outputs = {}
        for name, path in traces.items():
            fmt = detect_trace_format(path)
            assert (fmt.kind, fmt.compression) == {
                "v2": ("v2", None), "v2-gzip": ("v2", "gzip"),
                "v2-bz2": ("v2", "bz2"), "v2-xz": ("v2", "xz"),
                "v1-text": ("text", None), "v1-binary": ("v1-binary", None),
                "din": ("din", None)}[name]
            assert main(["miss-ratio", "--trace", str(path), "--engine",
                         engine, "--trace-chunk", "400"]) == 0
            outputs[name] = capsys.readouterr().out
        assert "recorded.trace" in outputs["v2"]
        assert all(out == outputs["v2"] for out in outputs.values()), [
            name for name, out in outputs.items() if out != outputs["v2"]]


def assert_usage_error(argv, message, capsys):
    """``main(argv)`` exits 2 with one ``error:`` line naming ``message``."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro-experiments: error: ")
    assert message in line


class TestClaims:
    """``claims`` on the session's one ledger run: the experiments are not
    run again, only the rows are checked."""

    @pytest.fixture()
    def engines(self, monkeypatch, ledger_results):
        """The engines ``claims`` asked the ledger to run on."""
        engines = []
        monkeypatch.setattr(claims, "run_experiments", lambda engine: (
            engines.append(engine) or ledger_results))
        return engines

    @pytest.mark.parametrize("flag", ["--workers", "--json", "--scale"])
    def test_takes_only_the_engine_flag(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["claims", flag, "2"])
        assert flag in capsys.readouterr().err

    def test_exit_0_when_every_claim_holds(self, engines, ledger_results,
                                           capsys):
        assert main(["claims", "--engine", "reference"]) == 0
        assert engines == ["reference"]
        out = capsys.readouterr().out
        assert out == claims.check_claims(ledger_results).render() + "\n"

    def test_exit_1_with_one_line_per_failed_claim(self, engines,
                                                   monkeypatch, capsys):
        rows = list(claims.CLAIMS)
        failed = rows[3]
        rows[3] = dataclasses.replace(failed, bound=("<", 0.0))
        monkeypatch.setattr(claims, "CLAIMS", tuple(rows))
        assert main(["claims"]) == 1
        assert engines == ["vectorized"]
        lines = capsys.readouterr().out.splitlines()
        [row] = [line for line in lines
                 if line.startswith(f"| `{failed.id}` |")]
        assert row.endswith("| FAIL |")
        assert sum(line.endswith("| pass |") for line in lines) == len(rows) - 1
        assert lines[lines.index("1 claim(s) failed:") + 1:] == [
            f"  {failed.id}: measured {row.split(' | ')[4]}, bound < 0.0"]


class TestBadInputFailsFast:
    """Bad input stops at the CLI boundary: one ``error:`` line, exit 2,
    before any worker pool or simulation starts."""

    @pytest.mark.parametrize("argv, message", [
        (["table2", "--programs", "nosuch", "--instructions", "1000"],
         "unknown program 'nosuch'"),
        (["table2", "--programs", "nosuch", "--workers", "2"],
         "unknown program 'nosuch'"),
        (["miss-ratio", "--programs", "nosuch", "--on-error", "collect"],
         "unknown program 'nosuch'"),
        (["replacement-study", "--programs", "gcc", "nosuch"],
         "unknown program 'nosuch'"),
        (["holes", "--l2-kilobytes", "0"], "cache geometry must be positive"),
        (["holes", "--accesses", "0"], "trace length must be >= 1"),
        (["figure1", "--sweeps", "-1", "--max-stride", "8",
          "--on-error", "collect"], "sweeps must be >= 1"),
        (["figure1", "--max-stride", "1"], "max_stride must be at least 2"),
        (["miss-ratio", "--accesses", "10"], "accesses should be at least"),
        (["table3", "--instructions", "10"], "instructions should be at least"),
        (["miss-ratio", "--trace", "no/such/file.ctr"],
         "trace file not found"),
    ])
    def test_rejected_with_one_line_and_exit_2(self, argv, message, capsys):
        assert_usage_error(argv, message, capsys)

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    @pytest.mark.parametrize("flag, value", [
        ("--profile", "sampled"), ("--sample-rate", "0.5"),
        ("--sample-size", "64"), ("--profile-seed", "1")])
    def test_removed_profile_flags_are_rejected(self, command, flag, value,
                                                monkeypatch, capsys):
        """The sampled-profile flags are gone: each one stops argument
        parsing with exit 2 and an error line that names it."""
        def unreachable(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "_run_experiment", unreachable)
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert flag in line

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_trace_corrupt_partway_is_not_a_usage_error(self, tmp_path,
                                                        engine):
        """A trace that turns bad mid-stream fails while the simulation
        runs: its ValueError propagates with a traceback, not as exit 2."""
        path = tmp_path / "broken.txt"
        path.write_text(
            "# repro cache trace v1: R|W address pc size (hex, hex, dec)\n"
            + "".join(f"R {0x1000 + 32 * i:#x} 0x400 4\n" for i in range(50))
            + "R 0xZZ 0x400 4\n")
        with pytest.raises(ValueError, match="broken.txt:52: non-hex"):
            main(["miss-ratio", "--trace", str(path), "--engine", engine,
                  "--trace-chunk", "8"])


def _load_example(filename):
    import importlib.util
    from pathlib import Path
    path = Path(__file__).parent.parent / "examples" / filename
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProcessorIpcExample:
    """Smoke test of examples/processor_ipc.py at a small scale."""

    def test_prints_header_and_one_row_per_program(self, capsys):
        example = _load_example("processor_ipc.py")
        example.main(["processor_ipc.py", "1000"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Simulating 1000 committed instructions")
        header = lines[2]
        assert header.split()[0] == "program"
        for label in example.CONFIGURATIONS:
            assert label in header
        rows = lines[4:4 + len(example.PROGRAMS)]
        assert [row.split()[0] for row in rows] == example.PROGRAMS
        for row in rows:
            assert row.count("ipc") == len(example.CONFIGURATIONS)


class TestVirtualRealExample:
    """The examples/virtual_real_hierarchy.py CLI (argparse + JSON output)."""

    @pytest.fixture()
    def example(self):
        return _load_example("virtual_real_hierarchy.py")

    def test_json_output_and_engine_agreement(self, example, capsys):
        import json
        results = []
        for engine in ("reference", "vectorized"):
            assert example.main(["--accesses", "4000", "--engine", engine,
                                 "--json"]) == 0
            results.append(json.loads(capsys.readouterr().out))
        reference, vectorized = results
        assert reference["engine"] == "reference"
        assert vectorized["engine"] == "vectorized"
        for key in ("l1_load_miss_ratio", "l2_misses", "holes_created",
                    "hole_rate_per_l2_miss", "page_faults",
                    "alias_invalidations"):
            assert reference[key] == vectorized[key], key
        assert reference["inclusion_holds"] is True

    def test_human_readable_output(self, example, capsys):
        assert example.main(["--accesses", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hole rate per L2 miss" in out
        assert "[reference engine]" in out

    def test_custom_l2_size(self, example, capsys):
        assert example.main(["--accesses", "2000", "--l2-kilobytes", "64",
                             "--json"]) == 0
        import json
        assert json.loads(capsys.readouterr().out)["l2_bytes"] == 64 * 1024


#: Runs the CLI on its arguments and writes the process's own peak
#: resident set (``VmHWM``, which starts afresh at exec, unlike
#: ``ru_maxrss``, which inherits the parent's) to stderr at exit.
PEAK_PROBE = textwrap.dedent("""
    import atexit, sys

    def report():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(line)

    atexit.register(report)
    from repro.experiments.cli import main
    sys.exit(main(sys.argv[1:]))
""")


def _has_vmhwm():
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


@pytest.mark.slow
def test_miss_ratio_at_a_million_accesses_peaks_under_128_mb(compiled_tier):
    """Each program's trace dies with its task: ``miss-ratio`` over 18
    programs of 1M accesses holds one trace at a time, not all 18."""
    if not _has_vmhwm():
        pytest.skip("no VmHWM in /proc/self/status")
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, "miss-ratio", "--accesses",
         "1000000"], capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stderr
    (line,) = [line for line in proc.stderr.splitlines()
               if line.startswith("VmHWM:")]
    peak_kb = int(line.split()[1])
    assert peak_kb <= 128 * 1024, (
        f"miss-ratio --accesses 1000000 peaked at {peak_kb / 1024:.1f} MB")
