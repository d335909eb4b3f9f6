"""Golden regression fixtures: both engines must reproduce the seed numbers.

``tests/golden/`` holds small JSON snapshots of the Figure 1 stride sweep and
the Section 2.1 miss-ratio study, generated from the seed's scalar reference
models.  Any behavioural drift — in either the reference models or the batch
engine — fails these tests, pinning the paper-facing numbers across future
refactors.

Miss ratios are exact rationals evaluated in IEEE double precision by both
engines, so the comparison is equality, not approximation.  Tables 2 and 3
also check which out-of-order core served them: the compiled one on the
vectorized engine wherever the C kernels build, the Python one elsewhere.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cpu.workloads import build_program
from repro.engine import ENGINES, ckernels
from repro.experiments.figure1 import run_figure1
from repro.experiments.miss_ratio_study import run_miss_ratio_study
from repro.experiments.replacement_study import run_replacement_study
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name):
    with open(GOLDEN_DIR / name) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_figure1_matches_golden(engine):
    golden = load_golden("figure1_miss_ratios.json")
    params = golden["params"]
    result = run_figure1(max_stride=params["max_stride"],
                         stride_step=params["stride_step"],
                         sweeps=params["sweeps"],
                         elements=params["elements"],
                         engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_miss_ratio_study_matches_golden(engine):
    golden = load_golden("miss_ratio_study.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_fifo_figure1_matches_golden(engine):
    """FIFO stride sweep: pins the FIFO kernel on the conventional two-way
    cache (vectorized) and the scalar FIFO policy (reference) to one
    committed snapshot."""
    golden = load_golden("figure1_fifo.json")
    params = golden["params"]
    result = run_figure1(max_stride=params["max_stride"],
                         stride_step=params["stride_step"],
                         sweeps=params["sweeps"],
                         elements=params["elements"],
                         replacement=params["replacement"],
                         engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_plru_miss_ratio_study_matches_golden(engine):
    """PLRU miss-ratio study: pins the PLRU kernels across every study
    organisation (two-way caches and the fully-associative cache)."""
    golden = load_golden("miss_ratio_study_plru.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  replacement=params["replacement"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_skewed_plru_miss_ratio_matches_golden(engine):
    """Skewed-placement PLRU miss-ratio study: pins the PLRU kernel on
    skewed placement (via the skewed-XOR and skewed-I-Poly organisations)
    so a kernel regression fails without the scalar engine in the loop."""
    golden = load_golden("miss_ratio_study_plru_skewed.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  replacement=params["replacement"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_replacement_study_matches_golden(engine):
    """Replacement study (policy x organisation, victim cache included):
    pins the victim kernel and the set-associative kernel under every
    policy to one committed snapshot."""
    golden = load_golden("replacement_study.json")
    params = golden["params"]
    result = run_replacement_study(programs=params["programs"],
                                   accesses=params["accesses"],
                                   seed=params["seed"],
                                   engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


def _table2_snapshot(result):
    """The goldens' view of a Table 2 run: IPC and miss ratio per cell."""
    return (
        {p: {c: result.ipc(p, c) for c in result.configurations}
         for p in result.programs},
        {p: {c: result.miss_ratio_percent(p, c) for c in result.configurations}
         for p in result.programs},
    )


def count_compiled_core(monkeypatch):
    """Count the compiled out-of-order core's calls from here on."""
    calls = []
    run_ooo = ckernels.run_ooo

    def counting(*args, **kwargs):
        calls.append(1)
        return run_ooo(*args, **kwargs)

    monkeypatch.setattr(ckernels, "run_ooo", counting)
    return calls


def check_core(engine, calls, runs):
    """Every run took the compiled core on the vectorized engine with the C
    kernels (which the ``REPRO_REQUIRE_CKERNELS=1`` leg requires), and none
    did anywhere else."""
    compiled = engine == "vectorized" and ckernels.available()
    if engine == "vectorized" and os.environ.get(
            "REPRO_REQUIRE_CKERNELS") == "1":
        assert compiled
    assert len(calls) == (runs if compiled else 0)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_table2_matches_golden(engine, monkeypatch):
    """Table 2 IPCs and load miss ratios through the full OoO CPU path:
    both index engines must reproduce the committed snapshot exactly, with
    each program generated once and replayed on all six machines."""
    from repro.experiments import table2

    built = []

    def counting_build(name, *args, **kwargs):
        built.append(name)
        return build_program(name, *args, **kwargs)

    monkeypatch.setattr(table2, "build_program", counting_build)
    calls = count_compiled_core(monkeypatch)
    golden = load_golden("table2.json")
    params = golden["params"]
    result = run_table2(programs=params["programs"],
                        instructions=params["instructions"],
                        seed=params["seed"],
                        engine=engine)
    assert built == params["programs"]
    check_core(engine, calls, len(built) * len(result.configurations))
    ipc, miss = _table2_snapshot(result)
    assert ipc == golden["ipc"]
    assert miss == golden["load_miss_ratio_percent"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_table3_matches_golden(engine, monkeypatch):
    """Table 3 view (high-conflict vs low-conflict groups) over the same
    committed per-cell numbers."""
    calls = count_compiled_core(monkeypatch)
    golden = load_golden("table3.json")
    params = golden["params"]
    table2 = run_table2(programs=params["programs"],
                        instructions=params["instructions"],
                        seed=params["seed"],
                        engine=engine)
    check_core(engine, calls,
               len(params["programs"]) * len(table2.configurations))
    result = run_table3(table2_result=table2)
    assert result.bad_programs == golden["bad_programs"]
    assert result.good_programs == golden["good_programs"]
    ipc, miss = _table2_snapshot(table2)
    assert ipc == golden["ipc"]
    assert miss == golden["load_miss_ratio_percent"]


def test_goldens_are_committed():
    """The fixtures exist and cover the four Figure 1 schemes."""
    fig = load_golden("figure1_miss_ratios.json")
    assert sorted(fig["miss_ratios"]) == ["a2", "a2-Hp", "a2-Hp-Sk", "a2-Hx-Sk"]
    study = load_golden("miss_ratio_study.json")
    assert set(study["miss_ratios"]) == set(study["params"]["programs"])
    fifo = load_golden("figure1_fifo.json")
    assert fifo["params"]["replacement"] == "fifo"
    assert sorted(fifo["miss_ratios"]) == ["a2", "a2-Hp", "a2-Hp-Sk", "a2-Hx-Sk"]
    plru = load_golden("miss_ratio_study_plru.json")
    assert plru["params"]["replacement"] == "plru"
    assert set(plru["miss_ratios"]) == set(plru["params"]["programs"])
    skewed = load_golden("miss_ratio_study_plru_skewed.json")
    assert skewed["params"]["replacement"] == "plru"
    assert set(skewed["miss_ratios"]) == set(skewed["params"]["programs"])
    for row in skewed["miss_ratios"].values():
        assert "ipoly-skewed-2way" in row and "skewed-xor-2way" in row
    study = load_golden("replacement_study.json")
    assert set(study["miss_ratios"]) == {
        "conventional-2way", "skewed-ipoly-2way", "victim-direct+8"}
    for row in study["miss_ratios"].values():
        assert sorted(row) == ["fifo", "lru", "plru", "random"]
    table2 = load_golden("table2.json")
    assert set(table2["ipc"]) == set(table2["params"]["programs"])
    for row in table2["ipc"].values():
        assert sorted(row) == sorted(["16K-conv", "8K-conv", "8K-conv-pred",
                                      "8K-ipoly-noCP", "8K-ipoly-CP",
                                      "8K-ipoly-CP-pred"])
    table3 = load_golden("table3.json")
    assert set(table3["bad_programs"]) == {"tomcatv", "swim", "wave5"}
    assert set(table3["ipc"]) == set(table3["params"]["programs"])
    grid = load_golden("lru_grid_profile.json")
    expected_levels = {str(num_sets) for num_sets in grid["params"]["num_sets"]}
    assert set(grid["miss_ratios"]) == expected_levels
    assert set(grid["load_miss_ratios"]) == expected_levels


def test_lru_grid_profile_matches_golden(kernel_path):
    """Miss-ratio grid (capacities x ways): each configuration's LRU
    kernel on the tier must reproduce the committed snapshot exactly."""
    from repro.engine import AddressBatch, BatchSetAssociativeCache
    from repro.trace.batching import cached_workload_arrays

    golden = load_golden("lru_grid_profile.json")
    params = golden["params"]
    block_size = params["block_size"]
    batch = AddressBatch.from_arrays(*cached_workload_arrays(
        params["program"], length=params["accesses"], seed=params["seed"]))
    miss_ratios, load_miss_ratios = {}, {}
    for num_sets in params["num_sets"]:
        for ways in params["ways"]:
            cache = BatchSetAssociativeCache(num_sets * ways * block_size,
                                             block_size, ways)
            cache.run(batch)
            miss_ratios.setdefault(str(num_sets), {})[str(ways)] = (
                cache.stats.miss_ratio)
            load_miss_ratios.setdefault(str(num_sets), {})[str(ways)] = (
                cache.stats.load_miss_ratio)
    assert miss_ratios == golden["miss_ratios"]
    assert load_miss_ratios == golden["load_miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_holes_study_matches_golden(engine):
    """Section 3.3 hole study: pins the virtual-real Inclusion protocol —
    hole accounting included — on both engines to one committed snapshot.
    The 16 KB L2 row keeps back-invalidations dense (hole rate ~0.59), so
    the batch engine's epoch stop/rewind path is exercised, not idled."""
    from repro.experiments.holes_study import run_holes_study

    golden = load_golden("holes_study.json")
    params = golden["params"]
    result = run_holes_study(l2_sizes=params["l2_sizes"],
                             programs=params["programs"],
                             accesses=params["accesses"],
                             seed=params["seed"],
                             engine=engine)
    for size in params["l2_sizes"]:
        key = str(size)
        assert result.predicted_hole_probability[size] == (
            golden["predicted_hole_probability"][key])
        assert result.simulated_hole_rate[size] == (
            golden["simulated_hole_rate"][key])
        assert result.per_program_hole_rate[size] == (
            golden["per_program_hole_rate"][key])
        assert result.l2_misses[size] == golden["l2_misses"][key]
