"""Core of the reproduction: conflict-avoiding cache index functions.

This package contains the paper's primary contribution — the I-Poly
(irreducible polynomial modulus) placement function — together with the
baseline placement functions it is compared against and the GF(2) machinery
and hardware-cost models behind it.
"""

from .gf2 import (
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
from .index import (
    BitSelectIndexing,
    IndexFunction,
    IPolyIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
    make_index_function,
)
from .polynomials import (
    DEFAULT_IRREDUCIBLE,
    default_polynomial,
    find_irreducible,
    skewing_polynomials,
    validate_polynomial,
)
from .xor_matrix import (
    HardwareCost,
    XorMatrix,
    choose_low_fanin_polynomial,
    derive_xor_matrix,
    is_linear,
)

__all__ = [
    # gf2
    "degree",
    "gf2_add",
    "gf2_divmod",
    "gf2_gcd",
    "gf2_mod",
    "gf2_mul",
    "gf2_mul_mod",
    "irreducible_polynomials",
    "is_irreducible",
    "poly_to_string",
    # polynomials
    "DEFAULT_IRREDUCIBLE",
    "default_polynomial",
    "find_irreducible",
    "skewing_polynomials",
    "validate_polynomial",
    # index functions
    "IndexFunction",
    "BitSelectIndexing",
    "XorFoldIndexing",
    "IPolyIndexing",
    "SingleSetIndexing",
    "make_index_function",
    # hardware view
    "XorMatrix",
    "HardwareCost",
    "choose_low_fanin_polynomial",
    "derive_xor_matrix",
    "is_linear",
]
