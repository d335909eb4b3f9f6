"""Shared configuration for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper.  The
benchmarks use pytest-benchmark so the cost of regenerating each artefact is
tracked, and every benchmark *also* asserts the qualitative claims of the
corresponding experiment, so running the files doubles as an end-to-end
validation run.  Name each file by path (``pytest
benchmarks/bench_figure1.py``): pytest does not collect ``bench_*.py`` from a
bare directory argument.

Scale knobs: the environment variables ``REPRO_BENCH_INSTRUCTIONS`` and
``REPRO_BENCH_ACCESSES`` override the per-program instruction / access counts
(defaults keep the full suite under a few minutes in pure Python).
"""

import os

import pytest


def _env_int(name, default):
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


#: Committed instructions per program for the processor-level benchmarks.
BENCH_INSTRUCTIONS = _env_int("REPRO_BENCH_INSTRUCTIONS", 12_000)

#: Trace accesses per program for the cache-level benchmarks.
BENCH_ACCESSES = _env_int("REPRO_BENCH_ACCESSES", 40_000)


@pytest.fixture(scope="session")
def bench_instructions():
    """Per-program instruction budget for processor benchmarks."""
    return BENCH_INSTRUCTIONS


@pytest.fixture(scope="session")
def bench_accesses():
    """Per-program access budget for trace benchmarks."""
    return BENCH_ACCESSES
