"""Attributes f: U -> R, inverse-image partitions, joins, and CSCA checks.

Value labels are opaque tokens, in one order on every supported Python and
under any decimal context or int/str digit limit the process sets: numbers
first, compared exactly, then the rest as text.  A number is what
Python 3.11's ``Fraction()`` reads: an optional sign, digits grouped by
single underscores, an optional fraction and exponent; or a ratio of two
such integers.  Numerically equal tokens, such as ``1``, ``1.0`` and
``01``, are distinct values ordered by their text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .errors import CompatibilityError, QmSetsError
from .gf2 import SetKet, standard_basis
from .universe import SetPartition, Universe, _at_bits


# The docstring's numbers, D standing for digits grouped by single underscores;
# whitespace may surround the token but not "/".
_NUMBER = re.compile(r"\s*[-+]?(?:(?P<ratio>D/D)|(?:D(?:\.(?:D)?)?|\.D)(?:[eE][-+]?D)?)\s*"
                     .replace("D", r"\d(?:_?\d)*"))
# Numbers are read under this context, not the calling thread's, which may
# not trap an unreadable number and return NaN, a key that orders nothing.
_CONTEXT = Context(traps=[InvalidOperation])


def value_sort_key(token: str):
    """Numbers first, compared exactly, then by text; then the rest, by text."""
    if number := _NUMBER.fullmatch(token):
        digits = token.replace("_", "")
        try:  # a Decimal builds no 10**exponent, and int() would limit a ratio's digits
            if number["ratio"]:
                p, q = digits.split("/")
                return (0, Fraction(Decimal(p, _CONTEXT)) / Fraction(Decimal(q, _CONTEXT)), token)
            return (0, Decimal(digits, _CONTEXT), token)
        except ArithmeticError:  # a zero denominator; an exponent past ±10**18
            pass
    return (1, Fraction(0), token)


@dataclass(frozen=True)
class Attribute:
    """A total function from universe elements to value labels."""

    name: str
    universe: Universe
    values: tuple[str, ...]  # aligned with universe.elements
    # value -> preimage mask (bit i = element i), in value_sort_key order
    _spectrum: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.values) is not tuple:
            raise QmSetsError(f"attribute {self.name!r} values must be a tuple")
        if len(self.values) != len(self.universe):
            raise QmSetsError(
                f"attribute {self.name!r} must assign a value to every element"
            )
        spectrum = dict.fromkeys(sorted(set(self.values), key=value_sort_key), 0)
        for i, v in enumerate(self.values):
            spectrum[v] |= 1 << i
        object.__setattr__(self, "_spectrum", spectrum)

    @classmethod
    def from_mapping(
        cls, name: str, universe: Universe, mapping: Mapping[str, str]
    ) -> "Attribute":
        missing = [u for u in universe if u not in mapping]
        if missing:
            raise QmSetsError(
                f"attribute {name!r} is partial: no value for {missing[0]!r}"
            )
        extra = [u for u in mapping if u not in universe]
        if extra:
            raise QmSetsError(
                f"attribute {name!r} maps {extra[0]!r} outside the universe"
            )
        return cls(name, universe, tuple(mapping[u] for u in universe))

    def __call__(self, label: str) -> str:
        return self.values[self.universe.position(label)]

    def attained_values(self) -> list[str]:
        return list(self._spectrum)

    def preimage(self, value: str) -> frozenset[str]:
        return frozenset(self.universe.labels_of(self._spectrum.get(value, 0)))


def inverse_image_partition(f: Attribute) -> SetPartition:
    """Blocks are the nonempty preimages f^-1(r)."""
    return SetPartition._from_masks(f.universe, f._spectrum.values())


def compatible(f: Attribute, g: Attribute) -> bool:
    """True iff both attributes are defined on the same universe."""
    return f.universe == g.universe


@dataclass(frozen=True)
class AnnotatedJoin:
    """Join of inverse-image partitions with each block's value tuple."""

    partition: SetPartition
    block_values: tuple[tuple[str, ...], ...]  # aligned with partition.blocks


def join_attributes(fs: Sequence[Attribute]) -> AnnotatedJoin:
    """Iterated join of the attributes' partitions, blocks tagged (r,...,s)."""
    if not fs:
        raise QmSetsError("join_attributes needs at least one attribute")
    for g in fs[1:]:
        if not compatible(fs[0], g):
            raise CompatibilityError(
                f"attributes {fs[0].name!r} and {g.name!r} are incompatible"
            )
    # A block is the elements sharing a value tuple.  Each tuple first
    # appears at its block's least element, so blocks come in canonical order.
    blocks: dict[tuple[str, ...], int] = {}
    for i, key in enumerate(zip(*(f.values for f in fs))):
        blocks[key] = blocks.get(key, 0) | 1 << i
    return AnnotatedJoin(SetPartition._of(fs[0].universe, tuple(blocks.values())), tuple(blocks))


def is_csca(fs: Sequence[Attribute]) -> bool:
    """True iff the join of the attributes' partitions is discrete."""
    joined = join_attributes(fs).partition
    return len(joined.masks) == len(joined.universe)


def eigen_sets(f: Attribute, r: str) -> list[SetKet]:
    """All nonzero vectors of the eigenspace for value r: nonempty S within f^-1(r)."""
    bits = [1 << i for i in _at_bits(range(len(f.universe)), f._spectrum.get(r, 0))]
    basis = standard_basis(f.universe)
    return [SetKet._of(basis, sum(c)) for k in range(1, len(bits) + 1)
            for c in combinations(bits, k)]
