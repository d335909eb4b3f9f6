"""Batch page walks against per-access translation, on both tiers.

:func:`repro.engine.translate_vec.batch_page_frames` takes its distinct
pages in first-touch order from the compiled ``repro_first_touch`` pass
(:func:`repro.engine.ckernels.first_touch`) or, without the compiled
kernels, from ``np.unique``, and faults them through the scalar
:meth:`PageTable.frame_of`.  Each case compares the page numbers, the
frames, the page table's mapping (in insertion order), its fault counter
and its allocator's state with a twin table driven one
:meth:`PageTable.translate` at a time.
"""

import numpy as np
import pytest

from repro.engine import ckernels
from repro.engine.translate_vec import _first_touch, batch_page_frames
from repro.memory.paging import PageTable
from repro.trace.workloads import workload_arrays

PAGE = 4096


def premap(table):
    """Map two pages by hand, one of them at a frame the allocator could
    also draw, and fault a third."""
    table._mapping[3] = 5
    table._mapping[2**20] = 0xFFFFF
    table.frame_of(7)


def stream(length):
    """A 1M-access synthetic trace, as the holes study feeds its pages."""
    addresses, _ = workload_arrays("swim", length, seed=5)
    return addresses.astype(np.int64)


def revisits(pages, length):
    """``length`` accesses to ``pages`` pages scattered over 4 GB, each
    page revisited, so a first-touch table that grows must still find the
    pages it held before."""
    rng = np.random.default_rng(3)
    pool = rng.integers(0, 2**20, pages, dtype=np.int64)
    return rng.choice(pool, length) * PAGE + rng.integers(0, PAGE, length)


CASES = {
    "empty": (lambda: np.empty(0, dtype=np.int64), None),
    "one-page": (lambda: np.array([PAGE + 8] * 5 + [PAGE], dtype=np.int64),
                 None),
    "pre-mapped": (lambda: np.array(
        [3 * PAGE, 9 * PAGE, 7 * PAGE + 1, 2**20 * PAGE, 9 * PAGE + 2,
         3 * PAGE + 4, 11 * PAGE], dtype=np.int64), premap),
    "many-pages": (lambda: revisits(3_000, 20_000), None),
    "1M-stream": (lambda: stream(1_000_000), None),
}


def table_state(table):
    return (list(table._mapping.items()), table.page_faults, table._state,
            table._next_frame)


@pytest.mark.parametrize("allocation", ["scatter", "sequential"])
@pytest.mark.parametrize("case", CASES)
def test_batch_page_frames_matches_per_access_translation(kernel_path, case,
                                                          allocation):
    make, prepare = CASES[case]
    addresses = make()
    scalar = PageTable(page_size=PAGE, allocation=allocation, seed=11)
    batch = PageTable(page_size=PAGE, allocation=allocation, seed=11)
    if prepare is not None:
        prepare(scalar)
        prepare(batch)
    translate = scalar.translate
    frames = [translate(address) // PAGE for address in addresses.tolist()]
    vpns, batch_frames = batch_page_frames(batch, addresses)
    assert vpns.dtype == batch_frames.dtype == np.int64
    np.testing.assert_array_equal(vpns, addresses // PAGE)
    assert batch_frames.tolist() == frames
    assert table_state(batch) == table_state(scalar)


@pytest.mark.parametrize("pages", [
    [], [4], [4, 4, 9, 4, 0, 9, 2**62], list(range(200, 0, -1)) * 2,
    revisits(3_000, 20_000) // PAGE,
], ids=["empty", "one", "repeats", "descending", "revisits"])
def test_first_touch_tiers_agree(compiled_tier, pages):
    """The compiled pass lists each page once, however often its table
    grows, exactly as ``np.unique`` does."""
    pages = np.array(pages, dtype=np.int64)
    distinct, ordinals = ckernels.first_touch(pages)
    expected = _first_touch(pages)
    for got, want in zip((distinct, ordinals), expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(distinct[ordinals], pages)


def test_negative_pages_fail_on_either_tier(kernel_path):
    table = PageTable(page_size=PAGE)
    with pytest.raises(ValueError, match="non-negative"):
        batch_page_frames(table, np.array([PAGE, -PAGE], dtype=np.int64))


# --------------------------------------------------------------------- #
# malformed arguments fail in the wrapper, before the C call
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("pages", [
    np.array([1, 2], dtype=np.int32),
    np.array([1, 2], dtype=np.uint64),
    np.zeros((2, 2), dtype=np.int64),
    np.arange(8, dtype=np.int64)[::2],
    np.array([1, -2, 3], dtype=np.int64),
    [1, 2, 3],
], ids=["int32", "uint64", "2-d", "strided", "negative", "list"])
def test_malformed_pages_raise_before_the_call(kernel_path, monkeypatch,
                                               pages):
    monkeypatch.setattr(ckernels, "_library", lambda: pytest.fail(
        "malformed arguments reached the library"))
    with pytest.raises(ValueError):
        ckernels.first_touch(pages)
