"""The power set of a universe as the vector space Z2^n.

Subsets are vectors under symmetric difference.  Bit-vectors (Python ints,
bit i = element i in universe order) are the canonical representation;
label sets are a view.  A ket is a coordinate mask in the basis it carries,
and ket tables are built as coordinate masks and rendered from them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from operator import xor
from typing import Iterable, Sequence

from .errors import BasisError, BoundError
from .universe import Universe, _at_bits, braced, require_same_universe

DEFAULT_KET_TABLE_BOUND = 10


_single_bits = cache(lambda n: tuple(1 << i for i in range(n)))  # standard masks, once per n


def bits_to_subset(universe: Universe, bits: int) -> frozenset[str]:
    return frozenset(universe.labels_of(bits))


def _echelon(vectors: Sequence[int]) -> tuple[dict[int, tuple[int, int]], int | None]:
    """Reduce each vector in turn against the rows found so far.

    Returns the rows keyed by leading bit, each as (row, mask of the input
    indices whose sum it is), and the index of the first vector that reduces
    to zero (None when all are independent).
    """
    rows: dict[int, tuple[int, int]] = {}
    first_dependent = None
    for i, v in enumerate(vectors):
        combo = 1 << i
        while v:
            lead = v.bit_length() - 1
            if lead not in rows:
                rows[lead] = (v, combo)
                break
            row, row_combo = rows[lead]
            v ^= row
            combo ^= row_combo
        else:
            if first_dependent is None:
                first_dependent = i
    return rows, first_dependent


def gf2_rank(vectors: Sequence[int]) -> int:
    """Rank over GF(2) of int bitsets."""
    return len(_echelon(vectors)[0])


def gf2_solve(columns: Sequence[int], target: int) -> int:
    """Solve M x = target over GF(2) where column j of M is columns[j].

    Returns the solution as a bitmask of column indices.  Raises if the
    system is singular or inconsistent.
    """
    rows, dependent = _echelon(columns)
    if dependent is not None:
        raise BasisError("singular system: columns are GF(2)-dependent")
    solution = 0
    while target:
        lead = target.bit_length() - 1
        if lead not in rows:
            raise BasisError("inconsistent system: target is not in the column span")
        row, combo = rows[lead]
        target ^= row
        solution ^= combo
    return solution


@dataclass(frozen=True, init=False)
class Basis:
    """An ordered list of |U| GF(2)-independent subsets of the universe, held
    as their masks (bit i = element i); `vectors` is the label view.

    The constructor checks, in order: a tuple of names, |U| vectors, their
    labels, one distinct name per vector, full GF(2) rank.  It sets
    `is_standard`: the masks are the single bits in order, whose rank needs
    no elimination.
    """

    universe: Universe
    name: str
    vector_names: tuple[str, ...]
    masks: tuple[int, ...]
    positions: dict[str, int] = field(repr=False, compare=False)

    def __init__(self, universe: Universe, name: str, vector_names: tuple[str, ...],
                 vectors: Sequence[Iterable[str]]):
        if type(vector_names) is not tuple:
            raise BasisError(f"basis {name!r} vector names must be a tuple")
        n = len(universe)
        if len(vectors) != n:
            raise BasisError(f"basis {name!r} needs exactly {n} vectors, got {len(vectors)}")
        masks = tuple(map(universe.mask_of, vectors))
        positions = {v: j for j, v in enumerate(vector_names)}
        if len(positions) != n or len(vector_names) != n:
            raise BasisError(f"basis {name!r} needs {n} distinct vector names")
        standard = masks == _single_bits(n)
        if not standard and (i := _echelon(masks)[1]) is not None:
            raise BasisError(f"basis {name!r} is rank-deficient: vector {i} = "
                             f"{braced(universe.labels_of(masks[i]))} "
                             "is a GF(2) combination of earlier vectors")
        values = (universe, name, vector_names, masks, positions)
        for key, value in zip(self.__match_args__, values):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "is_standard", standard)

    @property
    def vectors(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(self.universe.labels_of(m)) for m in self.masks)

    def names_of(self, mask: int) -> tuple[str, ...]:
        """The names of the vectors set in a coordinate mask, in basis order."""
        return tuple(_at_bits(self.vector_names, mask))

    def mask_of(self, names: Iterable[str]) -> int:
        """The coordinate mask with the bit of each name set, validating each."""
        mask = 0
        for name in names:
            mask |= 1 << self.name_position(name)
        return mask

    def name_position(self, vector_name: str) -> int:
        if vector_name not in self.positions:
            raise BasisError(f"{vector_name!r} is not a vector of basis {self.name!r}")
        return self.positions[vector_name]


def standard_basis(universe: Universe, name: str = "U") -> Basis:
    return Basis(universe, name, universe.elements, [(u,) for u in universe.elements])


def check_basis(
    universe: Universe,
    vectors: Sequence[Iterable[str]],
    name: str,
    vector_names: Sequence[str] | None = None,
) -> Basis:
    """Basis(...), whose constructor checks it, with default names name0, name1, ..."""
    if vector_names is None:
        vector_names = [f"{name}{i}" for i in range(len(universe))]
    return Basis(universe, name, tuple(vector_names), tuple(vectors))


@dataclass(frozen=True, init=False)
class SetKet:
    """A vector of Z2^|U| as a coordinate mask (bit j = vector j) in a named basis."""

    basis: Basis
    mask: int

    def __init__(self, basis: Basis, coords: Iterable[str]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mask", basis.mask_of(coords))

    @classmethod
    def _of(cls, basis: Basis, mask: int) -> "SetKet":
        """(basis, mask) with the mask already known to fit the basis."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["basis"], d["mask"] = basis, mask
        return obj

    @property
    def universe(self) -> Universe:
        return self.basis.universe

    @property
    def coords(self) -> frozenset[str]:
        return frozenset(self.basis.names_of(self.mask))

    def _bits(self) -> int:
        """The standard-basis subset of U as a bitmask: the mask, or the XOR of basis vectors."""
        basis = self.basis
        return self.mask if basis.is_standard else reduce(xor, _at_bits(basis.masks, self.mask), 0)

    def to_subset(self) -> frozenset[str]:
        """Expand to the standard-basis subset of U (XOR of basis vectors)."""
        return bits_to_subset(self.universe, self._bits())

    def __str__(self) -> str:
        return braced(self.basis.names_of(self.mask))


def standard_ket(universe: Universe, labels: Iterable[str]) -> SetKet:
    return SetKet(standard_basis(universe), labels)


def add(s: SetKet, t: SetKet) -> SetKet:
    """GF(2) sum: symmetric difference of coordinate sets in a shared basis."""
    require_same_universe(s, t)
    if s.basis != t.basis:
        raise BasisError(
            "kets are expressed in different bases; re-express before adding"
        )
    return SetKet._of(s.basis, s.mask ^ t.mask)


def to_basis(s: SetKet, target: Basis) -> SetKet:
    """Re-express a ket in another basis over the same universe."""
    require_same_universe(s, target)
    if s.basis == target:
        return s
    return SetKet._of(target, gf2_solve(target.masks, s._bits()))


def _paper_masks(n: int) -> list[int]:
    """All subsets of n positions in the canonical three-basis table layout:
    descending cardinality, then by highest position ascending, next highest
    descending, and so on, alternating (alternating-sign colex).  up[k] holds
    the k-subsets of the positions so far in that order, down[k] with every
    level reversed; those that position p tops go last in up, first in down."""
    up, down = [[0]], [[0]]
    for p in range(n):
        up.append([])
        down.append([])
        for k in range(p + 1, 0, -1):  # downward, so up[k - 1] and down[k - 1] are still old
            up[k] += [1 << p | m for m in down[k - 1]]
            down[k] = [1 << p | m for m in up[k - 1]] + down[k]
    return [m for level in reversed(up) for m in level]


def _ket_masks(bases: Sequence[Basis], paper_order: bool,
               bound: int = DEFAULT_KET_TABLE_BOUND) -> list[list[int]]:
    """The columns of the ket table: each basis's coordinate masks, in row order.
    subsets[c] is the XOR of the vectors set in coordinate mask c; a Basis is
    independent, so coords is its inverse."""
    if not bases:
        raise BasisError("ket_table needs at least one basis")
    for b in bases[1:]:
        require_same_universe(bases[0], b)
    n = len(bases[0].universe)
    if n > bound:
        raise BoundError(f"universe size {n} exceeds ket-table bound {bound}", size=n)
    masks = _paper_masks(n) if paper_order else range(1 << n)
    columns = []
    for basis in bases:
        subsets = [0]
        for v in basis.masks:
            subsets += [s ^ v for s in subsets]
        coords = dict(zip(subsets, range(1 << n)))
        columns.append(list(map(coords.__getitem__, masks)))
    return columns


def ket_table(
    bases: Sequence[Basis],
    paper_order: bool = False,
    bound: int = DEFAULT_KET_TABLE_BOUND,
) -> list[list[SetKet]]:
    """All 2^n kets, each row the same abstract vector in every basis.

    Default row order is binary counting on the standard-basis subset;
    paper_order lists rows by descending cardinality with the zero vector
    last.
    """
    return [
        [SetKet._of(b, c) for b, c in zip(bases, row)]
        for row in zip(*_ket_masks(bases, paper_order, bound))
    ]


@dataclass(frozen=True)
class LinearMap:
    """A GF(2) linear map between coordinate spaces over one universe.

    columns[j] is the image (as a codomain coordinate bitmask) of the j-th
    domain basis vector.
    """

    domain: Basis
    codomain: Basis
    columns: tuple[int, ...]

    def __post_init__(self):
        if type(self.columns) is not tuple:
            raise BasisError("map columns must be a tuple")
        require_same_universe(self.domain, self.codomain)
        n = len(self.domain.universe)
        if len(self.columns) != n:
            raise BasisError(f"map needs {n} columns, got {len(self.columns)}")
        for col in self.columns:
            if col < 0 or col >= (1 << n):
                raise BasisError("column bits out of range")

    @classmethod
    def from_column_subsets(
        cls, domain: Basis, codomain: Basis, images: Sequence[Iterable[str]]
    ) -> "LinearMap":
        """Columns given as coordinate-name sets in the codomain basis."""
        return cls(domain, codomain, tuple(map(codomain.mask_of, images)))


def identity_map(basis: Basis) -> LinearMap:
    n = len(basis.universe)
    return LinearMap(basis, basis, tuple(1 << j for j in range(n)))


def permutation_map(basis: Basis, mapping: dict[str, str]) -> LinearMap:
    """The linear map permuting basis coordinates per the given bijection;
    vector names the mapping leaves out map to themselves."""
    basis.mask_of(mapping)  # raises for a name outside the basis
    cols = tuple(
        1 << basis.name_position(mapping.get(name, name)) for name in basis.vector_names
    )
    if len(set(cols)) != len(cols):
        raise BasisError(f"mapping is not a bijection of basis {basis.name!r}")
    return LinearMap(basis, basis, cols)


def apply_map(m: LinearMap, s: SetKet) -> SetKet:
    """Matrix-vector product over GF(2)."""
    require_same_universe(m.domain, s)
    if s.basis != m.domain:
        raise BasisError("ket is not expressed in the map's domain basis")
    return SetKet._of(m.codomain, reduce(xor, _at_bits(m.columns, s.mask), 0))


def is_nonsingular(m: LinearMap) -> bool:
    """True iff the map keeps distinct vectors distinct (full GF(2) rank)."""
    return gf2_rank(m.columns) == len(m.columns)
