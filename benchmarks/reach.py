#!/usr/bin/env python3
"""Reach audit: list every ``src/`` function that no experiment run calls.

Runs a fixed set of runs (:data:`RUNS`) — every CLI sub-command at its
defaults, the trace-level studies, ``holes``, ``column-assoc`` and
``table2`` on ``--engine reference``, ``claims``, ``miss-ratio --workers
1``, the three trace-level studies on a recorded v2 trace, ``miss-ratio``
on the same trace in every other format ``--trace`` reads
(gzip/bzip2/xz-compressed v2, v1 text and binary, Dinero ``.din``), and
the five ``examples/`` — each in its own subprocess under ``sys.setprofile``,
which records the code object of every Python function called.  The set
runs on the compiled kernel tier and again under ``CC=false`` (the Python
kernels); the reference-engine runs call no kernel, so they run once.
Reference runs use smaller inputs than the defaults: they take the same
code paths, several times faster.

Every function or method defined in ``src/repro`` (found by parsing the
sources) that no run called is printed, unless :data:`ALLOWLIST` names it
with the reason it is kept.  Exits 1 when an unreached function is outside
the allowlist.  Allowlist patterns that match no unreached function are
printed as stale, so the list only shrinks.  Stdlib only; run from the repository
root::

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CLI = ("-m", "repro.experiments.cli")
#: Formats of the recorded trace (zstd's module is optional, so it is left
#: out); an argument ``{trace:FORMAT}`` is replaced by that file's path.
TRACE_FORMATS = ("v2", "v2.gz", "v2.bz2", "v2.xz", "text", "binary", "din")

#: (label, argv after ``python``, kernel tiers).  "both" runs on the
#: compiled tier and under ``CC=false``; "compiled" only on the former.
RUNS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = tuple(
    [(f"cli {name}", CLI + (name,), "both")
     for name in ("figure1", "miss-ratio", "replacement-study", "holes",
                  "table2", "table3", "column-assoc", "critical-path",
                  "claims")]
    + [("cli miss-ratio --workers 1",
        CLI + ("miss-ratio", "--workers", "1"), "both")]
    + [(f"cli {name} --csv", CLI + (name, "--csv"), "compiled")
       for name in ("miss-ratio", "table2")]
    + [(f"cli {name} --trace", CLI + (name, "--trace", "{trace:v2}"), "both")
       for name in ("figure1", "miss-ratio", "replacement-study")]
    + [(f"cli miss-ratio --trace ({fmt})",
        CLI + ("miss-ratio", "--trace", f"{{trace:{fmt}}}"), "both")
       for fmt in TRACE_FORMATS[1:]]
    + [(f"cli {name} --engine reference",
        CLI + (name, "--engine", "reference") + args, "compiled")
       for name, args in (
           ("figure1", ("--max-stride", "256", "--sweeps", "2")),
           ("miss-ratio", ("--accesses", "3000")),
           ("replacement-study", ("--accesses", "2000")),
           ("holes", ("--accesses", "4000")),
           ("column-assoc", ("--accesses", "3000")),
           ("table2", ("--instructions", "2000")))]
    + [("cli miss-ratio --trace --engine reference",
        CLI + ("miss-ratio", "--trace", "{trace:v2}", "--engine",
               "reference"), "compiled")]
    + [(f"example {path.name}", (str(path),), "both")
       for path in sorted((ROOT / "examples").glob("*.py"))])

_PERFBENCH = "read or patched by the frozen perfbench harness"
_DISPATCH = ("names the kernel a run takes; perfbench's tracer, "
             "bench_engine.py and the dispatch-coverage tests read it")
_DEBUG = "debugging aid"
_LAZY = "builds state on first read (PEP 562 / deferred replay)"
_ABSTRACT = "base-class default that every concrete subclass overrides"
_ACCESSOR = ("read-only accessor of a model's configuration or counters; "
             "tests, examples and bench_engine.py read it, no report does")
_ORACLE = ("state query or point operation the differential tests use to "
           "hold a batch twin to its scalar model")
_TRACE_API = ("trace-file API to record, convert and read whole traces for "
              "--trace; the tests and bench_engine.py's trace-io rows use it")
_ZSTD = "zstd traces: the optional zstandard module is not installed"
_TEST_INPUT = "builds inputs of the engine differential tests and benchmarks"
_FUZZ = "the recording path the fuzz harness (tests/fuzz_harness.py) diffs"
_NO_RUN = ("a mode no CLI run turns on (3C classification); the "
           "differential tests cover it")
_TESTS_ONLY = ("library API only the tests call; no run reaches it, so it "
               "is the next candidate for deletion")

#: Functions no run reaches that stay, each with its reason.  Keys are
#: ``module:qualname`` patterns (``fnmatch``).
ALLOWLIST: Dict[str, str] = {
    "repro.engine.index_vec:remainder_table": _PERFBENCH,
    "repro.engine.multiconfig:memo_info": _PERFBENCH,
    "repro.engine.multiconfig:profile_cache_info": _PERFBENCH,
    "repro.trace.batching:trace_cache_info": _PERFBENCH,
    "repro.engine.batch:materialise_batch": _PERFBENCH,
    "repro.trace.batching:to_arrays": _PERFBENCH,
    "repro.engine.*:*.dispatch_strategy": _DISPATCH,
    "repro.*:*.__repr__": _DEBUG,
    "repro.trace.__init__:__getattr__": _LAZY,
    "repro.cpu.processor:OutOfOrderProcessor.__getattr__": _LAZY,
    "repro.core.index:IndexFunction.*": _ABSTRACT,
    "repro.cache.replacement:ReplacementPolicy._allocate": _ABSTRACT,
    **dict.fromkeys([
        "repro.cache.*:*.name", "repro.engine.batch_cache:*.name",
        "repro.cache.*:*.block_size", "repro.cache.*:*.num_sets",
        "repro.cache.*:*.ways", "repro.*:*.num_frames",
        "repro.cache.*:*.replacement", "repro.*:*.replacement_name",
        "repro.cache.*:*.write_policy", "repro.*:*.victim_entries",
        "repro.engine.batch_cache:BatchSetAssociativeCache.index_function",
        "repro.engine.batch_cache:BatchSetAssociativeCache.num_sets",
        "repro.engine.batch_cache:BatchSetAssociativeCache.ways",
        "repro.engine.batch_cache:BatchSetAssociativeCache.write_policy",
        "repro.cache.replacement:RandomReplacement.*",
        "repro.cache.virtual_real:VirtualRealHierarchy.page_size",
        "repro.engine.hierarchy_vec:BatchVirtualRealHierarchy.page_table",
        "repro.core.index:IPolyIndexing.polynomials",
        "repro.engine.index_vec:Placement.funcs",
        "repro.engine.index_vec:PlacementIndexing.*",
        "repro.cpu.*:*.entries",
        "repro.cpu.lsq:StoreForwardingBuffer.forward_latency",
        "repro.cpu.resources:*.width", "repro.cpu.resources:*.capacity",
        "repro.cpu.resources:*.occupancy",
        "repro.cpu.dcache:DataCacheModel.timing",
        "repro.cpu.dcache:DataCacheModel.load_miss_ratio",
        "repro.*:*.hits", "repro.*:*.hit", "repro.*:*.miss_ratio",
        "repro.*:*.victim_hit_ratio", "repro.*:*.average_probes",
        "repro.*:*.first_probe_hit_ratio", "repro.*:*.average_hit_time",
        "repro.cache.stats:MissClassifier.capacity_blocks",
    ], _ACCESSOR),
    **dict.fromkeys([
        "repro.cache.*:*.flush", "repro.engine.*:*.flush",
        "repro.cache.*:*.reset_stats", "repro.engine.*:*.reset_stats",
        "repro.*:*.resident_blocks", "repro.*:*.invalidate_block",
        "repro.*:*.invalidate_address", "repro.*:*.contains",
        "repro.*:*.contains_block", "repro.*:*.block_number_of",
        "repro.*:*.num_blocks", "repro.*:*._candidate_sets",
        "repro.*:*.external_invalidate", "repro.*:*.check_inclusion",
        "repro.engine.hierarchy_vec:HierarchyBatchResult.*",
        "repro.cache.virtual_real:VirtualRealAccessResult.memory_access",
    ], _ORACLE),
    **dict.fromkeys([
        "repro.trace.stream:TraceV2Writer.*",
        "repro.trace.stream:TraceColumns.*",
        "repro.trace.stream:write_trace_v2",
        "repro.trace.stream:_normalise_columns*",
        "repro.trace.stream:_open_write_stream",
        "repro.trace.stream:convert_trace",
        "repro.trace.stream:import_din_trace",
        "repro.trace.stream:read_din_trace",
        "repro.trace.stream:read_trace_v2",
        "repro.trace.stream:trace_record_count",
        "repro.trace.trace_io:*",
    ], _TRACE_API),
    "repro.trace.stream:_zstd_module": _ZSTD,
    **dict.fromkeys([
        "repro.trace.generators:multi_array_sweep",
        "repro.trace.generators:random_accesses",
        "repro.engine.batch:AddressBatch.from_trace",
        "repro.engine.batch:AddressBatch.slice",
        "repro.trace.record:*",
    ], _TEST_INPUT),
    **dict.fromkeys([
        "repro.cpu.dcache:DataCacheModel.recorded_stream",
        "repro.cpu.dcache:DataCacheModel.records_stream",
        "repro.cpu.processor:CompiledRun.stream",
    ], _FUZZ),
    **dict.fromkeys([
        "repro.engine.batch_cache:_classify_over_hits",
        "repro.engine.batch:AddressBatch.block_numbers",
    ], _NO_RUN),
    **dict.fromkeys([
        "repro.analysis.*",
        "repro.cache.*:*.reset", "repro.cpu.*:*.reset",
        "repro.cache.replacement:ReplacementPolicy.choose_victim",
        "repro.core.polynomials:*", "repro.core.xor_matrix:XorMatrix.*",
        "repro.cpu.branch_predictor:BimodalBranchPredictor.predict",
        "repro.cpu.dcache:DataCacheModel.reset_timing_state",
        "repro.cpu.dcache:LoadTiming.latency",
        "repro.cpu.isa:Instruction.*",
        "repro.cpu.program:Program.length_hint",
        "repro.cpu.program:ProgramColumns.*",
        "repro.engine.batch_cache:_BatchCache.run_chunks",
        "repro.experiments.config:table2_processor_configs",
        "repro.experiments.figure1:stride_miss_ratio",
        "repro.experiments.replacement_study:ReplacementStudyResult.*",
        "repro.memory.address:*", "repro.memory.main_memory:*",
        "repro.memory.paging:PageTable.*",
        "repro.models.*",
        "repro.trace.batching:trace_cache_clear",
        "repro.trace.workloads:_component_pcs",
    ], _TESTS_ONLY),
}

#: Profiles the run it wraps; writes the reached functions' (file, first
#: line) pairs to argv[1] as JSON.  Code objects are keyed by id (cheap to
#: hash) and kept alive, so no id is reused.
_CHILD = r"""
import json, runpy, sys
out, target, *args = sys.argv[1:]
reached = {}
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        reached[id(code)] = code
sys.argv = [target, *args]
sys.setprofile(hook)
try:
    if target.endswith(".py"):
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    if exit_.code not in (None, 0):
        raise
finally:
    sys.setprofile(None)
    with open(out, "w") as handle:
        json.dump(sorted({(c.co_filename, c.co_firstlineno)
                          for c in reached.values()}), handle)
"""


def defined_functions() -> Dict[Tuple[str, int], str]:
    """Every function and method under ``src/repro``: (file, first line)
    -> ``module:qualname``.  The first line is a code object's
    ``co_firstlineno``: the first decorator's, if any."""
    found: Dict[Tuple[str, int], str] = {}

    def visit(node, module: str, path: str, scope: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first)] = (
                    f"{module}:{'.'.join(scope + [child.name])}")
                visit(child, module, path, scope + [child.name, "<locals>"])
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, scope + [child.name])
            else:
                visit(child, module, path, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, os.path.realpath(path),
              [])
    return found


#: Writes one workload's 20,000 accesses in every :data:`TRACE_FORMATS`
#: format, under argv[1]: one directory per format, the file named
#: ``trace`` in each (formats are told apart by content).
_WRITE_TRACES = r"""
import sys
from pathlib import Path
from repro.trace.batching import workload_arrays
from repro.trace.record import MemoryAccess
from repro.trace.stream import write_trace_v2
from repro.trace.trace_io import write_binary_trace, write_text_trace
addresses, writes = workload_arrays("tomcatv", 20000)
records = [MemoryAccess(a, is_write=w)
           for a, w in zip(addresses.tolist(), writes.tolist())]
for fmt in sys.argv[2:]:
    directory = Path(sys.argv[1]) / fmt
    directory.mkdir()
    path = directory / "trace"
    if fmt.startswith("v2"):
        written = directory / ("written" + fmt[2:])
        write_trace_v2(written, addresses, is_write=writes)
        written.rename(path)
    elif fmt == "text":
        write_text_trace(path, records)
    elif fmt == "binary":
        write_binary_trace(path, records)
    else:
        path.write_text("".join(f"{int(r.is_write)} {r.address:x}\n"
                                for r in records))
"""


def write_traces(directory: Path) -> Dict[str, str]:
    """Record the trace in every format (not profiled); format -> path."""
    subprocess.run([sys.executable, "-c", _WRITE_TRACES, str(directory),
                    *TRACE_FORMATS], check=True,
                   env=_environment(compiled=True), cwd=ROOT)
    return {f"{{trace:{fmt}}}": str(directory / fmt / "trace")
            for fmt in TRACE_FORMATS}


def _environment(compiled: bool) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if not compiled:
        env["CC"] = "false"
    elif env.get("CC") == "false":
        del env["CC"]
    return env


def profile_run(out: Path, label: str, argv: Tuple[str, ...],
                compiled: bool) -> Set[Tuple[str, int]]:
    """Run one profiled subprocess, its record written to ``out``; the
    (file, first line) pairs it reached."""
    tier = "compiled" if compiled else "CC=false"
    if argv[0] == "-m":
        argv = argv[1:]
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), *argv],
        env=_environment(compiled), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{label} ({tier}) exited {result.returncode}:\n"
                           + result.stderr)
    print(f"  ran {label} ({tier})", file=sys.stderr)
    return {(os.path.realpath(f), line) for f, line in json.loads(
        out.read_text())}


def main() -> int:
    functions = defined_functions()
    reached: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        directory = Path(tmp)
        traces = write_traces(directory)
        jobs = [(label, tuple(traces.get(a, a) for a in argv), compiled)
                for label, argv, tiers in RUNS
                for compiled in ((True, False) if tiers == "both"
                                 else (True,))]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for found in pool.map(
                    lambda i: profile_run(directory / f"{i}.json", *jobs[i]),
                    range(len(jobs))):
                reached |= found
    unreached = sorted(name for key, name in functions.items()
                       if key not in reached)
    outside = [name for name in unreached
               if not any(fnmatch.fnmatchcase(name, pattern)
                          for pattern in ALLOWLIST)]
    print(f"{len(functions)} functions in src/repro, {len(jobs)} runs: "
          f"{len(unreached)} unreached, {len(unreached) - len(outside)} of "
          "them allowlisted")
    for name in outside:
        print(f"unreached: {name}")
    for pattern in ALLOWLIST:
        if not any(fnmatch.fnmatchcase(name, pattern) for name in unreached):
            print(f"stale allowlist entry (matches no unreached function): "
                  f"{pattern}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
