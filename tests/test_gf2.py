"""Unit tests for GF(2) polynomial arithmetic."""

import pytest

from repro.core.gf2 import (
    degree,
    gf2_add,
    gf2_divmod,
    gf2_gcd,
    gf2_mod,
    gf2_mul,
    gf2_mul_mod,
    irreducible_polynomials,
    is_irreducible,
    poly_to_string,
)


class TestDegree:
    def test_zero_polynomial(self):
        assert degree(0) == -1

    def test_constant(self):
        assert degree(1) == 0

    def test_general(self):
        assert degree(0b1011) == 3
        assert degree(1 << 20) == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            degree(-1)


class TestAddMul:
    def test_add_is_xor(self):
        assert gf2_add(0b101, 0b011) == 0b110

    def test_add_self_is_zero(self):
        assert gf2_add(0b11011, 0b11011) == 0

    def test_mul_by_zero(self):
        assert gf2_mul(0b1011, 0) == 0
        assert gf2_mul(0, 0b1011) == 0

    def test_mul_by_one(self):
        assert gf2_mul(0b1011, 1) == 0b1011

    def test_mul_known_value(self):
        # (x + 1)^2 = x^2 + 1 over GF(2)
        assert gf2_mul(0b11, 0b11) == 0b101

    def test_mul_is_commutative(self):
        assert gf2_mul(0b110101, 0b1011) == gf2_mul(0b1011, 0b110101)

    def test_mul_degree_adds(self):
        a, b = 0b1001001, 0b10011
        assert degree(gf2_mul(a, b)) == degree(a) + degree(b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gf2_mul(-1, 2)


class TestDivMod:
    def test_division_identity(self):
        a, b = 0b1101101101, 0b1011
        q, r = gf2_divmod(a, b)
        assert gf2_add(gf2_mul(q, b), r) == a
        assert degree(r) < degree(b)

    def test_mod_matches_divmod(self):
        a, b = 0b111010111, 0b10011
        assert gf2_mod(a, b) == gf2_divmod(a, b)[1]

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf2_divmod(0b101, 0)

    def test_small_numerator(self):
        assert gf2_divmod(0b11, 0b1011) == (0, 0b11)

    def test_mod_is_idempotent(self):
        a, p = 0xDEADBEEF, 0b100011011
        assert gf2_mod(gf2_mod(a, p), p) == gf2_mod(a, p)


class TestGcdPow:
    def test_gcd_common_factor(self):
        # gcd(x^2 + x, x^2) == x
        assert gf2_gcd(0b110, 0b100) == 0b10

    def test_gcd_coprime(self):
        assert gf2_gcd(0b1011, 0b111) == 1

    def test_gcd_with_zero(self):
        assert gf2_gcd(0b1011, 0) == 0b1011

    def test_mul_mod_stays_reduced(self):
        p = 0b100011011
        result = gf2_mul_mod(0xAB, 0xCD, p)
        assert degree(result) < degree(p)

class TestIrreducibility:
    def test_known_irreducible(self):
        assert is_irreducible(0b1011)         # x^3 + x + 1
        assert is_irreducible(0b10011)        # x^4 + x + 1
        assert is_irreducible(0b100011011)    # AES polynomial

    def test_known_reducible(self):
        assert not is_irreducible(0b1001)     # x^3 + 1 = (x+1)(x^2+x+1)
        assert not is_irreducible(0b110)      # x^2 + x = x(x+1)

    def test_constants_not_irreducible(self):
        assert not is_irreducible(1)
        assert not is_irreducible(0)

    def test_degree_one_irreducible(self):
        assert is_irreducible(0b10)
        assert is_irreducible(0b11)

    def test_enumeration_degree_2(self):
        assert list(irreducible_polynomials(2)) == [0b111]

    def test_enumeration_count_degree_4(self):
        # There are exactly 3 irreducible polynomials of degree 4 over GF(2).
        assert len(list(irreducible_polynomials(4))) == 3

    def test_enumeration_count_degree_5(self):
        # (2^5 - 2) / 5 = 6 irreducible polynomials of degree 5.
        assert len(list(irreducible_polynomials(5))) == 6

    def test_enumerated_are_irreducible(self):
        for poly in irreducible_polynomials(6):
            assert is_irreducible(poly)
            assert degree(poly) == 6

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            list(irreducible_polynomials(0))


class TestStringConversion:
    def test_format(self):
        assert poly_to_string(0b1011) == "x^3 + x + 1"
        assert poly_to_string(0) == "0"
        assert poly_to_string(1) == "1"
