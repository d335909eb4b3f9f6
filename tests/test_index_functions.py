"""Unit tests for the cache placement (index) functions."""

import pytest

from repro.core.gf2 import gf2_mod
from repro.core.index import (
    BitSelectIndexing,
    IPolyIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
    make_index_function,
)


class TestBitSelect:
    def test_low_bits(self):
        fn = BitSelectIndexing(128)
        assert fn.index(0) == 0
        assert fn.index(5) == 5
        assert fn.index(128) == 0
        assert fn.index(131) == 3

    def test_range(self):
        fn = BitSelectIndexing(64)
        for block in range(0, 5000, 37):
            assert 0 <= fn.index(block) < 64

    def test_not_skewed(self):
        assert not BitSelectIndexing(64).is_skewed

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            BitSelectIndexing(100)

    def test_rejects_negative_block(self):
        with pytest.raises(ValueError):
            BitSelectIndexing(64).index(-1)

    def test_way_is_ignored(self):
        fn = BitSelectIndexing(64)
        assert fn.index(1234, 0) == fn.index(1234, 1)


class TestXorFold:
    def test_folds_two_fields(self):
        fn = XorFoldIndexing(128, skewed=False)
        # block = low | high << 7  ->  index = low ^ high
        assert fn.index((5 << 7) | 3) == 5 ^ 3

    def test_skewed_ways_differ_somewhere(self):
        fn = XorFoldIndexing(128, skewed=True)
        diffs = sum(1 for block in range(0, 4096, 7)
                    if fn.index(block, 0) != fn.index(block, 1))
        assert diffs > 0

    def test_unskewed_ways_equal(self):
        fn = XorFoldIndexing(128, skewed=False)
        assert all(fn.index(b, 0) == fn.index(b, 1) for b in range(0, 1000, 13))

    def test_range(self):
        fn = XorFoldIndexing(128)
        for block in range(0, 100000, 997):
            for way in (0, 1):
                assert 0 <= fn.index(block, way) < 128

    def test_uses_two_index_widths_of_address(self):
        assert XorFoldIndexing(128).address_bits_used == 14


class TestIPoly:
    def test_matches_gf2_mod(self):
        fn = IPolyIndexing(128, address_bits=19)
        poly = fn.polynomials[0]
        for block in (0, 1, 129, 5000, (1 << 19) - 1, 123456):
            assert fn.index(block) == gf2_mod(block & ((1 << 19) - 1), poly)

    def test_truncates_to_address_bits(self):
        fn = IPolyIndexing(128, address_bits=14)
        assert fn.index(1 << 20) == fn.index(0)

    def test_range(self):
        fn = IPolyIndexing(256, address_bits=19)
        for block in range(0, 200000, 1237):
            assert 0 <= fn.index(block) < 256

    def test_skewed_uses_distinct_polynomials(self):
        fn = IPolyIndexing(128, ways=2, skewed=True, address_bits=19)
        assert fn.polynomial_for_way(0) != fn.polynomial_for_way(1)

    def test_unskewed_single_polynomial(self):
        fn = IPolyIndexing(128, ways=2, skewed=False, address_bits=19)
        assert fn.polynomial_for_way(0) == fn.polynomial_for_way(1)

    def test_power_of_two_strides_conflict_free(self):
        """The paper's fundamental property: 2^k strides never conflict.

        Partition a 2^k-strided sequence into M-long subsequences; within each
        subsequence all cache indices must be distinct.
        """
        num_sets = 128
        fn = IPolyIndexing(num_sets, address_bits=19)
        for k in (0, 1, 2, 3, 5, 7):
            stride = 1 << k
            blocks = [i * stride for i in range(num_sets)]
            indices = [fn.index(b) for b in blocks]
            assert len(set(indices)) == num_sets, f"stride 2^{k} caused conflicts"

    def test_explicit_polynomial_validation(self):
        with pytest.raises(ValueError):
            IPolyIndexing(128, polynomials=[0b1011])  # degree 3 != 7

    def test_skewed_needs_enough_polynomials(self):
        with pytest.raises(ValueError):
            IPolyIndexing(128, ways=3, skewed=True, polynomials=[0b10000011])

    def test_address_bits_below_index_rejected(self):
        with pytest.raises(ValueError):
            IPolyIndexing(128, address_bits=3)

    def test_linearity(self):
        fn = IPolyIndexing(128, address_bits=19)
        for a, b in [(3, 5), (100, 4097), (65535, 12345)]:
            assert fn.index(a ^ b) == fn.index(a) ^ fn.index(b)


class TestSingleSet:
    def test_always_zero(self):
        fn = SingleSetIndexing()
        assert fn.index(0) == 0
        assert fn.index(123456789) == 0


class TestFactory:
    @pytest.mark.parametrize("label, cls", [
        ("a2", BitSelectIndexing),
        ("a2-Hx", XorFoldIndexing),
        ("a2-Hx-Sk", XorFoldIndexing),
        ("a2-Hp", IPolyIndexing),
        ("a2-Hp-Sk", IPolyIndexing),
        ("full", SingleSetIndexing),
    ])
    def test_labels(self, label, cls):
        fn = make_index_function(label, num_sets=128, ways=2, address_bits=19)
        assert isinstance(fn, cls)

    def test_case_insensitive(self):
        assert make_index_function("A2-HP-SK", 128, ways=2).is_skewed

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_index_function("nonsense", 128)

    def test_names_match_paper_labels(self):
        assert make_index_function("a2", 128).name == "a2"
        assert make_index_function("a2-Hp-Sk", 128, ways=2).name == "a2-Hp-Sk"
