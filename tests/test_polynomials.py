"""Unit tests for the polynomial catalogue."""

import pytest

from repro.core.gf2 import degree, is_irreducible
from repro.core.polynomials import (
    DEFAULT_IRREDUCIBLE,
    _verify_table,
    default_polynomial,
    find_irreducible,
    skewing_polynomials,
    validate_polynomial,
)


class TestDefaultTable:
    def test_every_entry_has_matching_degree(self):
        for deg, poly in DEFAULT_IRREDUCIBLE.items():
            assert degree(poly) == deg

    def test_every_entry_is_irreducible(self):
        assert _verify_table() == []

    def test_covers_useful_cache_sizes(self):
        # 2^5 sets (1 KB direct-mapped, 32 B lines) up to 2^20 sets.
        for bits in range(5, 21):
            assert bits in DEFAULT_IRREDUCIBLE

    def test_default_polynomial_matches_table(self):
        assert default_polynomial(7) == DEFAULT_IRREDUCIBLE[7]
        assert default_polynomial(8) == DEFAULT_IRREDUCIBLE[8]

    def test_default_polynomial_beyond_table_falls_back_to_search(self):
        poly = default_polynomial(25)
        assert degree(poly) == 25
        assert is_irreducible(poly)


class TestValidate:
    def test_accepts_matching_degree(self):
        validate_polynomial(0b10000011, 7)

    def test_rejects_mismatched_degree(self):
        with pytest.raises(ValueError):
            validate_polynomial(0b1011, 7)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            validate_polynomial(0b1011, 0)


class TestSearch:
    def test_find_single(self):
        polys = find_irreducible(6)
        assert len(polys) == 1
        assert is_irreducible(polys[0])

    def test_find_several_distinct(self):
        polys = find_irreducible(7, count=4)
        assert len(polys) == 4
        assert len(set(polys)) == 4
        assert all(degree(p) == 7 for p in polys)

    def test_find_too_many_raises(self):
        # Only one irreducible polynomial of degree 2 exists.
        with pytest.raises(ValueError):
            find_irreducible(2, count=2)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            find_irreducible(4, count=0)


class TestSkewing:
    def test_first_is_default(self):
        polys = skewing_polynomials(7, 2)
        assert polys[0] == default_polynomial(7)

    def test_distinct_per_way(self):
        polys = skewing_polynomials(7, 4)
        assert len(set(polys)) == 4
        assert all(is_irreducible(p) for p in polys)

    def test_single_way(self):
        assert skewing_polynomials(5, 1) == [default_polynomial(5)]

    def test_too_many_ways_raises(self):
        with pytest.raises(ValueError):
            skewing_polynomials(2, 3)

    def test_invalid_ways(self):
        with pytest.raises(ValueError):
            skewing_polynomials(5, 0)

    def test_memoised_result_is_a_fresh_list(self):
        """The search is memoised; mutating one call's list must not leak
        into the next call."""
        polys = skewing_polynomials(7, 2)
        expected = list(polys)
        polys.append(0)
        polys[0] = 1
        assert skewing_polynomials(7, 2) == expected
        assert skewing_polynomials(7, 2) is not skewing_polynomials(7, 2)
