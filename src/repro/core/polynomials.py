"""Catalogue of polynomials used for I-Poly cache indexing.

The quality of I-Poly indexing depends on the polynomial ``P(x)`` used as the
modulus.  The paper (following Rau, ISCA 1991) recommends *irreducible*
polynomials, and when the cache is skewed it uses a *different* irreducible
polynomial for each way so that two addresses that conflict in one way almost
never conflict in another.

This module provides:

* a table of default irreducible polynomials for every degree up to 24
  (:data:`DEFAULT_IRREDUCIBLE`), verified at import time in the test-suite;
* :func:`default_polynomial` / :func:`skewing_polynomials` to pick polynomials
  for a cache with ``2**m`` sets and ``w`` ways;
* :func:`find_irreducible` for callers that want a non-default choice.

Polynomials are encoded as integers, bit ``i`` holding the coefficient of
``x**i`` (see :mod:`repro.core.gf2`).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from .gf2 import degree, irreducible_polynomials, is_irreducible

__all__ = [
    "DEFAULT_IRREDUCIBLE",
    "default_polynomial",
    "skewing_polynomials",
    "find_irreducible",
    "validate_polynomial",
]


#: One well-known irreducible polynomial per degree.  Degree ``m`` is what a
#: cache with ``2**m`` sets needs: the remainder then has ``m`` bits.  The
#: entries are standard low-weight irreducible (mostly primitive) polynomials.
DEFAULT_IRREDUCIBLE: Dict[int, int] = {
    1: 0b11,                      # x + 1
    2: 0b111,                     # x^2 + x + 1
    3: 0b1011,                    # x^3 + x + 1
    4: 0b10011,                   # x^4 + x + 1
    5: 0b100101,                  # x^5 + x^2 + 1
    6: 0b1000011,                 # x^6 + x + 1
    7: 0b10000011,                # x^7 + x + 1
    8: 0b100011011,               # x^8 + x^4 + x^3 + x + 1 (AES polynomial)
    9: 0b1000010001,              # x^9 + x^4 + 1
    10: 0b10000001001,            # x^10 + x^3 + 1
    11: 0b100000000101,           # x^11 + x^2 + 1
    12: 0b1000001010011,          # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,         # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,        # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,       # x^15 + x + 1
    16: 0b10001000000001011,      # x^16 + x^12 + x^3 + x + 1
    17: 0b100000000000001001,     # x^17 + x^3 + 1
    18: 0b1000000000010000001,    # x^18 + x^7 + 1
    19: 0b10000000000000100111,   # x^19 + x^5 + x^2 + x + 1
    20: 0b100000000000000001001,  # x^20 + x^3 + 1
    21: 0b1000000000000000000101,  # x^21 + x^2 + 1
    22: 0b10000000000000000000011,  # x^22 + x + 1
    23: 0b100000000000000000100001,  # x^23 + x^5 + 1
    24: 0b1000000000000000010000111,  # x^24 + x^7 + x^2 + x + 1
}


def validate_polynomial(poly: int, index_bits: int) -> None:
    """Check that ``poly`` is a usable modulus for an ``index_bits``-bit index.

    The remainder of division by a degree-``m`` polynomial has at most ``m``
    bits, so the polynomial degree must equal ``index_bits`` exactly.  Raises
    :class:`ValueError` otherwise.
    """
    if index_bits < 1:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    if degree(poly) != index_bits:
        raise ValueError(
            f"polynomial degree {degree(poly)} does not match the required "
            f"index width of {index_bits} bits"
        )


def default_polynomial(index_bits: int) -> int:
    """Return the default irreducible polynomial producing an ``index_bits``-bit index.

    >>> default_polynomial(3)
    11
    """
    try:
        return DEFAULT_IRREDUCIBLE[index_bits]
    except KeyError:
        return find_irreducible(index_bits)[0]


def find_irreducible(index_bits: int, count: int = 1) -> List[int]:
    """Search for ``count`` distinct irreducible polynomials of degree ``index_bits``.

    Results are returned in increasing numeric order.  Raises
    :class:`ValueError` if fewer than ``count`` irreducible polynomials of
    that degree exist (only possible for tiny degrees).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    found: List[int] = []
    for poly in irreducible_polynomials(index_bits):
        found.append(poly)
        if len(found) == count:
            return found
    raise ValueError(
        f"only {len(found)} irreducible polynomials of degree {index_bits} exist, "
        f"but {count} were requested"
    )


def skewing_polynomials(index_bits: int, ways: int) -> List[int]:
    """Return ``ways`` distinct irreducible polynomials for a skewed I-Poly cache.

    The first polynomial returned is the degree-default, so a 1-way call
    degenerates to :func:`default_polynomial`.  The search is memoised;
    each call returns a fresh list.

    >>> skewing_polynomials(3, 2)
    [11, 13]
    """
    return list(_skewing_polynomials(index_bits, ways))


@functools.lru_cache(maxsize=256)
def _skewing_polynomials(index_bits: int, ways: int) -> Tuple[int, ...]:
    if ways < 1:
        raise ValueError("ways must be at least 1")
    default = default_polynomial(index_bits)
    polys = [default]
    for poly in irreducible_polynomials(index_bits):
        if len(polys) == ways:
            break
        if poly != default:
            polys.append(poly)
    if len(polys) < ways:
        raise ValueError(
            f"cannot find {ways} distinct irreducible polynomials of degree "
            f"{index_bits}; only {len(polys)} exist"
        )
    return tuple(polys)


def _verify_table(table: Dict[int, int] = DEFAULT_IRREDUCIBLE) -> Sequence[int]:
    """Return the degrees whose table entry is *not* irreducible (for tests)."""
    return [deg for deg, poly in table.items()
            if degree(poly) != deg or not is_irreducible(poly)]
