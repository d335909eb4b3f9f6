"""Fuzz harness tests for the out-of-order CPU path.

Tier-1 replays the committed corpus (``tests/corpus/cpu_fuzz_corpus.json``)
through the differential harness — every seed must stay bit-exact across the
reference and vectorized index engines, the compiled and the Python
out-of-order core, *and* the batch-kernel dcache replay.  A small Hypothesis property fuzzes fresh short programs on every
run.  The open-ended loop (``-m slow``) generates fresh seeds under a time
budget for the nightly CI job; on failure it prints the one-line repro and
writes a JSON artifact with everything needed to rebuild the program.

Environment knobs for the slow loop:

``REPRO_FUZZ_PROGRAMS``
    How many fresh programs to fuzz (default 200).
``REPRO_FUZZ_BUDGET_SECONDS``
    Wall-clock budget; the loop stops early when exceeded (default 600).
``REPRO_FUZZ_ARTIFACT_DIR``
    Where to write failing-program JSON artifacts (default: skip artifacts).
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.isa import FP_REGS, INT_REGS, OpClass
from repro.engine import ckernels

from fuzz_harness import (
    ADDRESS_PATTERNS,
    CONFIG_VARIANTS,
    FuzzParams,
    build_fuzz_program,
    fuzz_config,
    random_params,
    repro_line,
    run_differential,
)

CORPUS_PATH = Path(__file__).parent / "corpus" / "cpu_fuzz_corpus.json"

with open(CORPUS_PATH) as _handle:
    _CORPUS = json.load(_handle)

CORPUS_SEEDS = [entry["seed"] for entry in _CORPUS["programs"]]


# --------------------------------------------------------------------------- #
# committed corpus: tier-1 bit-exactness across engines and batch replay
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_seed_is_bit_exact(seed):
    program, params = build_fuzz_program(seed)
    outcome = run_differential(program, params, seed=seed)
    outcome.assert_ok()
    # The harness really ran the batch replay for both engines, and the
    # compiled core wherever the C kernels build.
    assert set(outcome.replay_strategies) == {"reference", "vectorized"}
    assert (outcome.compiled is not None) == ckernels.available()


def test_corpus_covers_generator_space():
    """The committed seeds span every address pattern and machine variant."""
    patterns, variants = set(), set()
    for seed in CORPUS_SEEDS:
        params = random_params(seed)
        patterns.add(params.address_pattern)
        variants.add(params.config_variant)
    assert patterns == set(ADDRESS_PATTERNS)
    assert variants == set(CONFIG_VARIANTS)


def test_corpus_entries_carry_notes():
    for entry in _CORPUS["programs"]:
        assert isinstance(entry["seed"], int)
        assert entry["note"]


# --------------------------------------------------------------------------- #
# generator validity
# --------------------------------------------------------------------------- #

def test_program_replays_identically():
    program, _ = build_fuzz_program(13)
    first = list(program.instructions())
    second = list(program.instructions())
    assert first == second


def test_program_honours_length_and_validity():
    params = random_params(21, length=500)
    program, params = build_fuzz_program(21, params)
    instructions = list(program.instructions())
    assert len(instructions) == 500
    assert program.length_hint == 500
    for inst in instructions:
        if inst.op is OpClass.STORE:
            assert inst.dest is None and inst.address is not None
        elif inst.op is OpClass.LOAD:
            assert inst.address is not None
        if inst.op is OpClass.BRANCH:
            assert inst.taken is not None
        if inst.dest is not None:
            assert 0 <= inst.dest < INT_REGS + FP_REGS
        for src in inst.srcs:
            assert 0 <= src < INT_REGS + FP_REGS


def test_conflict_pattern_folds_into_few_conventional_sets():
    """The conflict address pattern hammers a handful of bit-selection sets."""
    params = dataclasses.replace(random_params(3, length=600),
                                 address_pattern="conflict",
                                 config_variant="conv")
    program, _ = build_fuzz_program(3, params)
    config = fuzz_config(params)
    num_sets = config.cache_size_bytes // (config.cache_block_size
                                           * config.cache_ways)
    sets = {(inst.address // config.cache_block_size) % num_sets
            for inst in program.instructions()
            if inst.op in (OpClass.LOAD, OpClass.STORE)}
    assert len(sets) <= 8


def test_random_params_deterministic_and_valid():
    for seed in range(50):
        assert random_params(seed) == random_params(seed)  # also validates
    assert random_params(9, length=1234).length == 1234


def test_differential_run_is_deterministic():
    program, params = build_fuzz_program(5)
    first = run_differential(program, params, seed=5)
    second = run_differential(program, params, seed=5)
    assert first.ok and second.ok
    assert first.reference == second.reference
    assert first.vectorized == second.vectorized
    assert first.replay_strategies == second.replay_strategies


# --------------------------------------------------------------------------- #
# params validation and reproducibility plumbing
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("overrides", [
    dict(length=0),
    dict(memory_permille=0),
    dict(memory_permille=1000),
    dict(memory_permille=600, branch_permille=400),
    dict(branch_permille=-1),
    dict(fp_permille=1001),
    dict(store_permille=-5),
    dict(dependency_window=0),
    dict(recent_source_percent=101),
    dict(branch_sites=0),
    dict(branch_flip_permille=501),
    dict(address_pattern="zigzag"),
    dict(footprint_bytes=32),
    dict(config_variant="warp-drive"),
])
def test_fuzz_params_rejects_invalid(overrides):
    with pytest.raises(ValueError):
        FuzzParams(**overrides)


def test_fuzz_params_round_trips_through_json():
    params = random_params(77)
    rebuilt = FuzzParams(**json.loads(json.dumps(dataclasses.asdict(params))))
    assert rebuilt == params


def test_repro_line_rebuilds_the_failure():
    params = random_params(31)
    line = repro_line(31, params)
    assert "seed=31" in line
    assert repr(dataclasses.asdict(params)) in line
    assert "run_differential" in line


def test_assert_ok_raises_with_repro():
    program, params = build_fuzz_program(1)
    outcome = run_differential(program, params, seed=1)
    outcome.mismatches.append("synthetic: cycles differ")
    with pytest.raises(AssertionError, match="seed=1"):
        outcome.assert_ok()


# --------------------------------------------------------------------------- #
# property fuzz: fresh short programs on every tier-1 run
# --------------------------------------------------------------------------- #

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_fresh_seeds_stay_bit_exact(seed):
    params = random_params(seed, length=300)
    program, params = build_fuzz_program(seed, params)
    run_differential(program, params, seed=seed).assert_ok()


# --------------------------------------------------------------------------- #
# open-ended nightly loop
# --------------------------------------------------------------------------- #

def _write_artifact(directory, outcome):
    path = Path(directory) / f"fuzz-failure-seed-{outcome.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "seed": outcome.seed,
            "params": dataclasses.asdict(outcome.params),
            "mismatches": outcome.mismatches,
            "repro": repro_line(outcome.seed, outcome.params),
        }, handle, indent=1, sort_keys=True)
    return path


@pytest.mark.slow
def test_fuzz_loop():
    """Fuzz fresh random programs until the count or time budget runs out."""
    programs = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "200"))
    budget = float(os.environ.get("REPRO_FUZZ_BUDGET_SECONDS", "600"))
    artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    start_seed = max(CORPUS_SEEDS) + 1
    started = time.monotonic()
    ran = 0
    for seed in range(start_seed, start_seed + programs):
        if time.monotonic() - started > budget:
            break
        program, params = build_fuzz_program(seed)
        outcome = run_differential(program, params, seed=seed)
        ran += 1
        if not outcome.ok:
            if artifact_dir:
                artifact = _write_artifact(artifact_dir, outcome)
                print(f"fuzz failure artifact: {artifact}")
            print(repro_line(seed, params))
            outcome.assert_ok()
    assert ran > 0
