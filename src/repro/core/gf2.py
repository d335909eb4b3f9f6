"""Polynomial arithmetic over GF(2).

The I-Poly indexing scheme of Topham, Gonzalez & Gonzalez (MICRO-30, 1997)
interprets a memory address as a polynomial over the two-element field GF(2)
and computes the cache index as the remainder of dividing that polynomial by
a fixed (preferably irreducible) polynomial ``P(x)``.

Polynomials over GF(2) have a compact representation as Python integers:
bit ``i`` of the integer is the coefficient of ``x**i``.  Addition and
subtraction are both XOR, and multiplication/division follow carry-less
(binary) arithmetic.  All functions in this module use that encoding.

The module provides:

* carry-less multiplication (:func:`gf2_mul`),
* polynomial division and remainder (:func:`gf2_divmod`, :func:`gf2_mod`),
* greatest common divisor (:func:`gf2_gcd`),
* the irreducibility test (:func:`is_irreducible`), and
* enumeration helpers used to build polynomial tables
  (:func:`irreducible_polynomials`).

These are exact, deterministic routines; nothing here depends on the cache
model and the module is usable on its own as a small GF(2) toolkit.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = [
    "degree",
    "gf2_add",
    "gf2_mul",
    "gf2_divmod",
    "gf2_mod",
    "gf2_gcd",
    "gf2_mul_mod",
    "is_irreducible",
    "irreducible_polynomials",
    "poly_to_string",
]


def degree(poly: int) -> int:
    """Return the degree of ``poly``.

    The zero polynomial is given degree ``-1`` by convention, which makes
    ``degree(a) < degree(b)`` a correct "a is reducible no further" test in
    the division loop.

    >>> degree(0b1011)
    3
    >>> degree(1)
    0
    >>> degree(0)
    -1
    """
    if poly < 0:
        raise ValueError(f"polynomials must be non-negative integers, got {poly}")
    return poly.bit_length() - 1


def gf2_add(a: int, b: int) -> int:
    """Add two polynomials over GF(2) (coefficient-wise XOR).

    >>> gf2_add(0b101, 0b011)
    6
    """
    _check_non_negative(a, b)
    return a ^ b


def gf2_mul(a: int, b: int) -> int:
    """Carry-less multiplication of two GF(2) polynomials.

    >>> gf2_mul(0b11, 0b11)   # (x + 1)^2 == x^2 + 1
    5
    """
    _check_non_negative(a, b)
    result = 0
    shift = 0
    while b:
        if b & 1:
            result ^= a << shift
        b >>= 1
        shift += 1
    return result


def gf2_divmod(a: int, b: int) -> Tuple[int, int]:
    """Divide ``a`` by ``b`` over GF(2); return ``(quotient, remainder)``.

    Raises :class:`ZeroDivisionError` if ``b`` is the zero polynomial.

    >>> gf2_divmod(0b10011, 0b1011)   # x^4 + x + 1 by x^3 + x + 1
    (2, 5)
    """
    _check_non_negative(a, b)
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    deg_b = degree(b)
    quotient = 0
    remainder = a
    while degree(remainder) >= deg_b:
        shift = degree(remainder) - deg_b
        quotient ^= 1 << shift
        remainder ^= b << shift
    return quotient, remainder


def gf2_mod(a: int, b: int) -> int:
    """Return ``a mod b`` over GF(2).

    This is the core operation of I-Poly indexing: the cache index of an
    address ``a`` is ``gf2_mod(a, P)`` for the chosen polynomial ``P``.

    >>> gf2_mod(0b10011, 0b1011)
    5
    """
    return gf2_divmod(a, b)[1]


def gf2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials (Euclid's algorithm).

    >>> gf2_gcd(0b110, 0b100)   # gcd(x^2 + x, x^2) == x
    2
    """
    _check_non_negative(a, b)
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_mul_mod(a: int, b: int, modulus: int) -> int:
    """Return ``(a * b) mod modulus`` over GF(2)."""
    return gf2_mod(gf2_mul(a, b), modulus)


def is_irreducible(poly: int) -> bool:
    """Test whether ``poly`` is irreducible over GF(2).

    Uses the standard Rabin test: a polynomial ``f`` of degree ``n`` is
    irreducible iff ``x^(2^n) == x (mod f)`` and, for every prime divisor
    ``q`` of ``n``, ``gcd(x^(2^(n/q)) - x, f) == 1``.

    Degree-0 polynomials (constants) are not irreducible.

    >>> is_irreducible(0b1011)    # x^3 + x + 1
    True
    >>> is_irreducible(0b1001)    # x^3 + 1 == (x + 1)(x^2 + x + 1)
    False
    """
    n = degree(poly)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = 0b10
    # x^(2^n) mod poly must equal x.
    power = x
    for _ in range(n):
        power = gf2_mul_mod(power, power, poly)
    if power != gf2_mod(x, poly):
        return False
    for q in _prime_factors(n):
        power = x
        for _ in range(n // q):
            power = gf2_mul_mod(power, power, poly)
        if gf2_gcd(gf2_add(power, x), poly) != 1:
            return False
    return True


def irreducible_polynomials(deg: int) -> Iterator[int]:
    """Yield all irreducible polynomials of degree ``deg`` in increasing order.

    >>> list(irreducible_polynomials(2))
    [7]
    >>> len(list(irreducible_polynomials(4)))
    3
    """
    if deg < 1:
        raise ValueError("degree must be at least 1")
    start = 1 << deg
    stop = 1 << (deg + 1)
    for candidate in range(start, stop):
        # Every irreducible polynomial other than x itself has a non-zero
        # constant term; skipping the rest halves the search.
        if deg > 1 and not candidate & 1:
            continue
        if is_irreducible(candidate):
            yield candidate


def poly_to_string(poly: int) -> str:
    """Render a polynomial as a human-readable string.

    >>> poly_to_string(0b1011)
    'x^3 + x + 1'
    >>> poly_to_string(0)
    '0'
    """
    _check_non_negative(poly)
    if poly == 0:
        return "0"
    terms: List[str] = []
    for i in range(degree(poly), -1, -1):
        if poly >> i & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append("x")
            else:
                terms.append(f"x^{i}")
    return " + ".join(terms)


def _prime_factors(n: int) -> List[int]:
    """Return the distinct prime factors of ``n`` in increasing order."""
    factors: List[int] = []
    divisor = 2
    while divisor * divisor <= n:
        if n % divisor == 0:
            factors.append(divisor)
            while n % divisor == 0:
                n //= divisor
        divisor += 1
    if n > 1:
        factors.append(n)
    return factors


def _check_non_negative(*values: int) -> None:
    for value in values:
        if value < 0:
            raise ValueError(f"polynomials must be non-negative integers, got {value}")
