"""Cache index (placement) functions.

A placement function decides which cache *set* a block of memory may live in.
The paper compares four families:

``a2``
    Conventional bit-selection: the index is the low ``m`` bits of the block
    number (address divided by block size).  Simple, but any two addresses
    whose block numbers differ by a multiple of the number of sets collide —
    the root cause of repetitive conflict misses.

``a2-Hx-Sk``
    The skewed-associative XOR functions of Seznec (ISCA 1993): each way uses
    a different XOR-fold of two ``m``-bit address fields.

``a2-Hp`` / ``a2-Hp-Sk``
    The I-Poly scheme evaluated by the paper: the index is the remainder of
    the block number (restricted to ``v`` low bits) divided by an irreducible
    polynomial over GF(2).  ``-Sk`` uses a distinct polynomial per way.

In addition this module implements a trivial single-set function for
fully-associative caches.

All functions map a *block number* — the memory address with the block-offset
bits already stripped — to a set index, optionally per way.  Keeping the
functions pure and stateless lets the same object drive both the trace-level
cache models and the processor-level simulator.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from .gf2 import gf2_mod
from .polynomials import (
    default_polynomial,
    skewing_polynomials,
    validate_polynomial,
)

__all__ = [
    "IndexFunction",
    "BitSelectIndexing",
    "XorFoldIndexing",
    "IPolyIndexing",
    "SingleSetIndexing",
    "make_index_function",
]


def _check_power_of_two(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")
    return value


def _check_block_and_way(block_number: int, way: int) -> None:
    """Shared argument validation for every placement function.

    All families must reject negative block numbers *and* negative ways the
    same way; the differential harness surfaced that bit-selection and
    single-set indexing silently accepted negative ways (they ignore the
    argument) while the XOR and I-Poly families raised — an inconsistency
    that let malformed skewed-cache configurations slip through on some
    placement schemes only.
    """
    if block_number < 0:
        raise ValueError("block_number must be non-negative")
    if way < 0:
        raise ValueError("way must be non-negative")


class IndexFunction(abc.ABC):
    """Abstract placement function mapping block numbers to set indices.

    Concrete subclasses must be deterministic and stateless: the same block
    number and way always map to the same set.  ``num_sets`` is the number of
    sets the target cache has; indices returned by :meth:`index` are always in
    ``range(num_sets)``.
    """

    #: short identifier used in reports (matches the paper's labels).
    name: str = "abstract"

    def __init__(self, num_sets: int) -> None:
        self._num_sets = _check_power_of_two(num_sets, "num_sets")
        self._index_bits = self._num_sets.bit_length() - 1

    @property
    def num_sets(self) -> int:
        """Number of cache sets this function indexes into."""
        return self._num_sets

    @property
    def index_bits(self) -> int:
        """Number of bits in the produced index (``log2(num_sets)``)."""
        return self._index_bits

    @property
    def is_skewed(self) -> bool:
        """True if different ways may use different placement functions."""
        return False

    @property
    def address_bits_used(self) -> int:
        """How many low-order block-number bits influence the index."""
        return self._index_bits

    @property
    def cache_key(self):
        """Hashable description of the mapping, or ``None`` if unknown.

        Two index functions with equal ``cache_key`` compute identical
        ``index(block, way)`` for every input — which is what lets sweeps
        share one placement descriptor per scheme across tasks that each
        build their own (semantically identical) function instance.  The
        default is ``None``, meaning "not memoisable", and every concrete
        key below is guarded by an exact ``type(self)`` check: a subclass
        that overrides ``index`` (or adds mapping-affecting parameters)
        must declare its *own* key before it participates, so an unknown
        function can never be served another one's descriptor.
        """
        return None

    @abc.abstractmethod
    def index(self, block_number: int, way: int = 0) -> int:
        """Return the set index for ``block_number`` in ``way``."""

    def indices(self, block_number: int, ways: int) -> List[int]:
        """Return the set index for each of ``ways`` ways (used by skewed caches)."""
        return [self.index(block_number, way) for way in range(ways)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_sets={self._num_sets})"


class BitSelectIndexing(IndexFunction):
    """Conventional modulo-power-of-two indexing (the paper's ``a2``).

    The index is simply the low ``m`` bits of the block number.  This is the
    baseline that all conflict-avoiding schemes are measured against.
    """

    name = "a2"

    @property
    def cache_key(self):
        if type(self) is not BitSelectIndexing:
            return None
        return ("bit-select", self._num_sets)

    def index(self, block_number: int, way: int = 0) -> int:
        _check_block_and_way(block_number, way)
        return block_number & (self._num_sets - 1)


class XorFoldIndexing(IndexFunction):
    """Skewed-associative XOR indexing (the paper's ``a2-Hx-Sk``).

    Following Seznec's skewed-associative cache, the block number is split
    into two ``m``-bit fields ``A1`` (bits ``0..m-1``) and ``A2`` (bits
    ``m..2m-1``).  Way ``k`` uses ``A1 XOR rotate(A2, k)`` so that each way
    sees a different permutation; with ``skewed=False`` every way uses the
    plain fold ``A1 XOR A2``.
    """

    def __init__(self, num_sets: int, skewed: bool = True) -> None:
        super().__init__(num_sets)
        self._skewed = bool(skewed)
        self.name = "a2-Hx-Sk" if skewed else "a2-Hx"

    @property
    def is_skewed(self) -> bool:
        return self._skewed

    @property
    def address_bits_used(self) -> int:
        return 2 * self._index_bits

    @property
    def cache_key(self):
        if type(self) is not XorFoldIndexing:
            return None
        return ("xor-fold", self._num_sets, self._skewed)

    def _rotate(self, field: int, amount: int) -> int:
        m = self._index_bits
        amount %= m
        if amount == 0:
            return field
        mask = self._num_sets - 1
        return ((field << amount) | (field >> (m - amount))) & mask

    def index(self, block_number: int, way: int = 0) -> int:
        _check_block_and_way(block_number, way)
        mask = self._num_sets - 1
        low = block_number & mask
        high = (block_number >> self._index_bits) & mask
        if self._skewed:
            high = self._rotate(high, way)
        return low ^ high


class IPolyIndexing(IndexFunction):
    """Irreducible-polynomial (I-Poly) indexing — the paper's contribution.

    The block number, truncated to ``address_bits`` low-order bits, is
    interpreted as a polynomial over GF(2) and reduced modulo an irreducible
    polynomial of degree ``m`` (``m = log2(num_sets)``).  The remainder is the
    set index.  When ``skewed`` is true each way uses a distinct irreducible
    polynomial, giving the ``a2-Hp-Sk`` configuration; otherwise all ways
    share one polynomial (``a2-Hp``).

    Parameters
    ----------
    num_sets:
        Number of cache sets (power of two).
    ways:
        Number of ways the owning cache has; determines how many skewing
        polynomials are needed.
    skewed:
        Use a distinct polynomial per way.
    address_bits:
        Number of low-order block-number bits fed to the hash (the paper's
        ``v``).  Defaults to 19 minus the block-offset width used in the
        paper's experiments; callers normally pass an explicit value.
    polynomials:
        Explicit polynomial per way (overrides the default table).  Each must
        have degree exactly ``log2(num_sets)``.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int = 1,
        skewed: bool = False,
        address_bits: Optional[int] = None,
        polynomials: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(num_sets)
        if ways < 1:
            raise ValueError("ways must be at least 1")
        self._ways = ways
        self._skewed = bool(skewed)
        if address_bits is None:
            # The paper's experiments feed 19 address bits to the XOR tree;
            # by default expose a generous window above the index width.
            address_bits = max(self._index_bits * 2, 14)
        if address_bits < self._index_bits:
            raise ValueError(
                f"address_bits ({address_bits}) must be at least the index "
                f"width ({self._index_bits})"
            )
        self._address_bits = address_bits
        self._address_mask = (1 << address_bits) - 1

        if polynomials is not None:
            polys = list(polynomials)
            if skewed and len(polys) < ways:
                raise ValueError(
                    f"skewed indexing over {ways} ways needs {ways} polynomials, "
                    f"got {len(polys)}"
                )
            for poly in polys:
                validate_polynomial(poly, self._index_bits)
        elif skewed:
            polys = skewing_polynomials(self._index_bits, ways)
        else:
            polys = [default_polynomial(self._index_bits)]
        self._polynomials = polys
        self.name = "a2-Hp-Sk" if self._skewed else "a2-Hp"

    @property
    def is_skewed(self) -> bool:
        return self._skewed

    @property
    def address_bits_used(self) -> int:
        return self._address_bits

    @property
    def polynomials(self) -> List[int]:
        """The polynomial used by each way (length 1 when not skewed)."""
        return list(self._polynomials)

    @property
    def cache_key(self):
        if type(self) is not IPolyIndexing:
            return None
        return ("ipoly", self._num_sets, self._skewed, self._address_bits,
                tuple(self._polynomials))

    def polynomial_for_way(self, way: int) -> int:
        """Return the modulus polynomial used by ``way``."""
        if way < 0:
            raise ValueError("way must be non-negative")
        if self._skewed:
            return self._polynomials[way % len(self._polynomials)]
        return self._polynomials[0]

    def index(self, block_number: int, way: int = 0) -> int:
        _check_block_and_way(block_number, way)
        poly = self.polynomial_for_way(way)
        return gf2_mod(block_number & self._address_mask, poly)


class SingleSetIndexing(IndexFunction):
    """Trivial function mapping every block to set 0 (fully-associative caches)."""

    name = "full"

    def __init__(self) -> None:
        super().__init__(1)

    @property
    def cache_key(self):
        if type(self) is not SingleSetIndexing:
            return None
        return ("single-set",)

    def index(self, block_number: int, way: int = 0) -> int:
        _check_block_and_way(block_number, way)
        return 0


def make_index_function(
    scheme: str,
    num_sets: int,
    ways: int = 1,
    address_bits: Optional[int] = None,
) -> IndexFunction:
    """Build an index function from the paper's scheme label.

    Recognised labels (case-insensitive): ``a2``, ``a2-Hx``, ``a2-Hx-Sk``,
    ``a2-Hp``, ``a2-Hp-Sk``, ``full``.

    >>> make_index_function("a2-Hp-Sk", num_sets=128, ways=2).name
    'a2-Hp-Sk'
    """
    label = scheme.strip().lower()
    if label == "a2":
        return BitSelectIndexing(num_sets)
    if label == "a2-hx":
        return XorFoldIndexing(num_sets, skewed=False)
    if label == "a2-hx-sk":
        return XorFoldIndexing(num_sets, skewed=True)
    if label == "a2-hp":
        return IPolyIndexing(num_sets, ways=ways, skewed=False, address_bits=address_bits)
    if label == "a2-hp-sk":
        return IPolyIndexing(num_sets, ways=ways, skewed=True, address_bits=address_bits)
    if label == "full":
        return SingleSetIndexing()
    raise ValueError(f"unknown indexing scheme {scheme!r}")

