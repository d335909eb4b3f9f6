"""Unit tests for the XOR-matrix hardware view."""

import pytest

from repro.core.index import (
    BitSelectIndexing,
    IndexFunction,
    IPolyIndexing,
    XorFoldIndexing,
)
from repro.core.xor_matrix import (
    choose_low_fanin_polynomial,
    derive_xor_matrix,
    is_linear,
)


class _Modulo127(IndexFunction):
    """A block-number modulus: a placement with no XOR realisation."""

    name = "mod-127"

    def __init__(self) -> None:
        super().__init__(128)

    def index(self, block_number: int, way: int = 0) -> int:
        return block_number % 127


class TestDerivation:
    def test_bit_select_is_identity_matrix(self):
        fn = BitSelectIndexing(64)
        matrix = derive_xor_matrix(fn)
        assert matrix.index_bits == 6
        for i in range(6):
            assert matrix.inputs_of(i) == [i]
            assert matrix.fan_in(i) == 1

    def test_xor_fold_has_fan_in_two(self):
        fn = XorFoldIndexing(128, skewed=False)
        matrix = derive_xor_matrix(fn)
        assert all(matrix.fan_in(i) == 2 for i in range(7))

    def test_ipoly_matrix_reproduces_function(self):
        fn = IPolyIndexing(128, address_bits=19)
        matrix = derive_xor_matrix(fn)
        for block in (0, 1, 12345, 0x7FFFF, 98765):
            assert matrix.apply(block) == fn.index(block)

    def test_skewed_ways_have_different_matrices(self):
        fn = IPolyIndexing(128, ways=2, skewed=True, address_bits=19)
        m0 = derive_xor_matrix(fn, way=0)
        m1 = derive_xor_matrix(fn, way=1)
        assert m0.rows != m1.rows

    def test_nonlinear_function_rejected(self):
        with pytest.raises(ValueError):
            derive_xor_matrix(_Modulo127())

    def test_is_linear_helper(self):
        fn = IPolyIndexing(64, address_bits=14)
        matrix = derive_xor_matrix(fn)
        assert is_linear(fn, matrix)


class TestCost:
    def test_cost_counts(self):
        fn = XorFoldIndexing(128, skewed=False)
        cost = derive_xor_matrix(fn).cost()
        assert cost.index_bits == 7
        assert cost.max_fan_in == 2
        assert cost.two_input_gates == 7       # one 2-input gate per bit
        assert cost.tree_depth_gates == 1

    def test_paper_claim_7bit_index_19_address_bits_fan_in_at_most_5(self):
        """Section 3.4: "the number of inputs is never higher than 5"."""
        poly = choose_low_fanin_polynomial(7, 19)
        fn = IPolyIndexing(128, address_bits=19, polynomials=[poly])
        cost = derive_xor_matrix(fn).cost()
        assert cost.max_fan_in <= 5

    def test_paper_claim_7bit_index_13_unmapped_bits(self):
        """Section 3.1 option 2: 13 unmapped bits hashed to 7 index bits."""
        poly = choose_low_fanin_polynomial(7, 13)
        fn = IPolyIndexing(128, address_bits=13, polynomials=[poly])
        cost = derive_xor_matrix(fn).cost()
        assert cost.max_fan_in <= 4

    def test_gate_count_scales_with_index_bits(self):
        fn = IPolyIndexing(256, address_bits=19)
        cost = derive_xor_matrix(fn).cost()
        # One XOR tree per index bit.
        assert cost.index_bits == 8
        assert cost.two_input_gates >= 8

    def test_pretty_output_mentions_every_bit(self):
        fn = IPolyIndexing(64, address_bits=14)
        text = derive_xor_matrix(fn).pretty()
        for i in range(6):
            assert f"index[{i}]" in text


class TestLowFaninSearch:
    def test_result_is_right_degree(self):
        from repro.core.gf2 import degree, is_irreducible
        poly = choose_low_fanin_polynomial(6, 14)
        assert degree(poly) == 6
        assert is_irreducible(poly)

    def test_no_worse_than_default(self):
        from repro.core.polynomials import default_polynomial
        chosen = choose_low_fanin_polynomial(7, 19)
        default_cost = derive_xor_matrix(
            IPolyIndexing(128, address_bits=19,
                          polynomials=[default_polynomial(7)])).cost()
        chosen_cost = derive_xor_matrix(
            IPolyIndexing(128, address_bits=19, polynomials=[chosen])).cost()
        assert chosen_cost.max_fan_in <= default_cost.max_fan_in

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_low_fanin_polynomial(0, 10)
        with pytest.raises(ValueError):
            choose_low_fanin_polynomial(8, 4)
