"""Universes, set partitions, dit-sets, and logical entropy.

A partition is stored as int block masks (bit i is element i in universe
order), ordered by least bit; label tuples and the ``{a}|{b,c}`` text are
views.  Two partitions of the same universe are therefore equal iff they are
structurally equal, and every partition is hashable.  A dit-set is held as
the partition it determines.  Public constructors check, _of trusts: the
invariants (nonempty, disjoint, covering, ordered) are checked once, in the
SetPartition constructor, which from_blocks calls after a sort.  The library
builds its values valid and writes their fields into the instance dict
unchecked, through each type's _of; _from_masks sorts its fresh list in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BoundError, CompatibilityError, QmSetsError

DEFAULT_ENUMERATION_BOUND = 6


@dataclass(frozen=True)
class Universe:
    """An ordered finite set of distinct element labels.

    The ordering is fixed at construction; it defines the coordinate
    positions used by the GF(2) vector-space view.
    """

    elements: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.elements) is not tuple:
            raise QmSetsError("universe elements must be a tuple")
        if len(self.elements) < 1:
            raise QmSetsError("universe must have at least one element")
        positions = {u: i for i, u in enumerate(self.elements)}
        if len(positions) != len(self.elements):
            raise QmSetsError("universe labels must be pairwise distinct")
        object.__setattr__(self, "positions", positions)

    @classmethod
    def of(cls, labels: Iterable[str]) -> "Universe":
        return cls(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, label: object) -> bool:
        return label in self.positions

    def position(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise QmSetsError(f"label {label!r} is not in the universe") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        """The mask with the bit of each label set, validating membership."""
        mask = 0
        for label in labels:
            mask |= 1 << self.position(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels whose bits are set in the mask, in universe order; a mask
        with a bit outside the universe, or a negative one, is rejected."""
        return tuple(_at_bits(self.elements, mask))


def _at_bits(items: Sequence, mask: int) -> list:
    """The items at the set bits of mask, lowest bit first, for sequences of
    |U| items.  A plain loop: a generator is about twice as slow here."""
    out, rest = [], mask
    try:
        while rest:
            low = rest & -rest
            out.append(items[low.bit_length() - 1])
            rest ^= low
    except IndexError:  # a bit past the last item, which a negative mask reaches too
        raise QmSetsError(f"mask {mask} has bits outside the universe") from None
    return out


def braced(names: Iterable[str]) -> str:
    """The text form of a set: its names in the order given, in braces."""
    return "{" + ",".join(names) + "}"


def _brace_names(text: str) -> list[str]:
    """The names inside a brace set such as ``{a,b}``, each at most once."""
    inner = text[1:-1].strip()
    names = [s.strip() for s in inner.split(",")] if inner else []
    if len(set(names)) < len(names):
        repeated = next(x for i, x in enumerate(names) if x in names[:i])
        raise QmSetsError(f"{repeated!r} appears twice in {text!r}")
    return names


def require_same_universe(a, b) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise CompatibilityError(
            "operands are defined on different universes and are not compatible"
        )


def _least_bit(mask: int) -> int:
    return mask & -mask


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering a universe, as block masks.

    The constructor rejects masks that do not form a partition ordered by
    least bit, so an accepted value keeps the masks it was given;
    from_blocks and parse take label blocks in any order.
    """

    universe: Universe
    masks: tuple[int, ...]

    def __post_init__(self):
        if type(self.masks) is not tuple:
            raise QmSetsError("partition masks must be a tuple")
        full, seen, last = (1 << len(self.universe)) - 1, 0, 0
        for mask in self.masks:
            if not mask:
                raise QmSetsError("partition has an empty block")
            if not 0 < mask <= full:
                raise QmSetsError(f"block mask {mask} has bits outside the universe")
            if mask & seen:
                (label,) = self.universe.labels_of(_least_bit(mask & seen))
                raise QmSetsError(f"blocks are not disjoint at {label!r}")
            if _least_bit(mask) < last:
                raise QmSetsError("blocks are not ordered by least bit")
            seen, last = seen | mask, _least_bit(mask)
        if seen != full:
            raise QmSetsError("blocks do not cover the universe")

    @classmethod
    def from_blocks(
        cls, universe: Universe, blocks: Iterable[Iterable[str]]
    ) -> "SetPartition":
        return cls(universe, tuple(sorted(map(universe.mask_of, blocks), key=_least_bit)))

    @classmethod
    def _of(cls, universe: Universe, masks: tuple[int, ...]) -> "SetPartition":
        """Masks that already form a partition, already ordered by least bit."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["universe"], d["masks"] = universe, masks
        return obj

    @classmethod
    def _from_masks(cls, universe: Universe, masks: list[int]) -> "SetPartition":
        """A partition's masks in any order, as a fresh list, which it sorts in place."""
        masks.sort(key=_least_bit)
        return cls._of(universe, tuple(masks))

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Each block's labels in universe order."""
        return tuple(self.universe.labels_of(m) for m in self.masks)

    def block_of(self, label: str) -> tuple[str, ...]:
        if label not in self.universe:
            raise QmSetsError(f"label {label!r} not in any block")
        bit = 1 << self.universe.positions[label]
        return next(self.universe.labels_of(m) for m in self.masks if m & bit)

    def block_sets(self) -> list[frozenset[str]]:
        return [frozenset(b) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join(braced(block) for block in self.blocks)

    @classmethod
    def parse(cls, universe: Universe, text: str) -> "SetPartition":
        """Parse the canonical text form, e.g. ``{a}|{b,c}``."""
        blocks = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise QmSetsError(f"malformed block {chunk!r}")
            blocks.append(_brace_names(chunk))
        return cls.from_blocks(universe, blocks)


@dataclass(frozen=True)
class DitSet:
    """The distinctions of a partition, ordered pairs in different blocks, held
    as the partition itself; `pairs` builds the label pairs when asked for."""

    partition: SetPartition

    def __post_init__(self):
        if not isinstance(self.partition, SetPartition):
            raise QmSetsError("a dit-set is built from a SetPartition")

    @classmethod
    def _of(cls, partition: SetPartition) -> "DitSet":
        obj = object.__new__(cls)
        obj.__dict__["partition"] = partition
        return obj

    @property
    def universe(self) -> Universe:
        return self.partition.universe

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        labels_of, full = self.universe.labels_of, (1 << len(self.universe)) - 1
        return frozenset((u, v) for b in self.partition.masks
                         for u in labels_of(b) for v in labels_of(full ^ b))

    def __len__(self) -> int:
        """|U|^2 - sum |B|^2: the pairs not inside one block."""
        n = len(self.universe)
        return n * n - sum(m.bit_count() ** 2 for m in self.partition.masks)

    def __contains__(self, pair: object) -> bool:
        positions = self.universe.positions
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        try:
            both = 1 << positions[pair[0]] | 1 << positions[pair[1]]
        except (KeyError, TypeError):  # not a label, or not even hashable
            return False
        return all(m & both != both for m in self.partition.masks)

    def union(self, other: "DitSet") -> "DitSet":
        return DitSet._of(join(self.partition, other.partition))

    def issubset(self, other: "DitSet") -> bool:
        return refines(other.partition, self.partition)


def indiscrete(universe: Universe) -> SetPartition:
    """The one-block partition {U} (the 'blob', bottom of the lattice)."""
    return SetPartition._of(universe, ((1 << len(universe)) - 1,))


def discrete(universe: Universe) -> SetPartition:
    """The all-singletons partition (top of the lattice)."""
    return SetPartition._of(universe, tuple(1 << i for i in range(len(universe))))


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Partition whose blocks are the nonempty pairwise block intersections.

    The join refines both operands, so when it has as many blocks as one of
    them it is that operand, returned as it is.
    """
    require_same_universe(p, q)
    masks = [m for b in p.masks for c in q.masks if (m := b & c)]
    if len(masks) == len(p.masks):
        return p
    if len(masks) == len(q.masks):
        return q
    return SetPartition._from_masks(p.universe, masks)


def meet(p: SetPartition, q: SetPartition) -> SetPartition:
    """Finest common coarsening: each block of q merges the blocks it meets.

    Dual to join, for API callers: the library itself measures by join.  It
    coarsens both operands, so with as many blocks as one it is that operand.
    """
    require_same_universe(p, q)
    blocks = p.masks
    for c in q.masks:
        merged, rest = 0, []
        for b in blocks:
            if b & c:
                merged |= b
            else:
                rest.append(b)
        if len(rest) < len(blocks) - 1:  # c met two or more blocks
            blocks = [*rest, merged]
    if len(blocks) == len(p.masks):  # nothing merged
        return p
    if len(blocks) == len(q.masks):
        return q
    return SetPartition._from_masks(p.universe, blocks)


def dit(p: SetPartition) -> DitSet:
    """All ordered pairs of elements lying in distinct blocks."""
    return DitSet._of(p)


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True iff every block of p lies in a block of q: meets exactly one of them.
    A partition with fewer blocks than q cannot refine it."""
    require_same_universe(p, q)
    if len(p.masks) < len(q.masks):
        return False
    return len([1 for b in p.masks for c in q.masks if b & c]) == len(p.masks)


def logical_entropy(p: SetPartition) -> Fraction:
    """Logical entropy |dit(p)| / |U|^2, with |dit(p)| = |U|^2 - sum |B|^2."""
    return Fraction(len(DitSet._of(p)), len(p.universe) ** 2)


def enumerate_partitions(
    universe: Universe, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[SetPartition]:
    """All partitions of the universe, in lexicographic restricted-growth-
    string order (Knuth, TAOCP 4A, 7.2.1.5).

    Element i joins each block of every partition of the elements before it,
    then a block of its own; block k is the one whose least element came
    k-th, so the masks are already in canonical order.
    """
    n = len(universe)
    if n > bound:
        raise BoundError(f"universe size {n} exceeds enumeration bound {bound}", size=n)
    rows: list[tuple[int, ...]] = [()]
    for i in range(n):
        bit = 1 << i
        rows = [
            ms[:k] + (ms[k] | bit,) + ms[k + 1:] if k < len(ms) else ms + (bit,)
            for ms in rows
            for k in range(len(ms) + 1)
        ]
    return [SetPartition._of(universe, ms) for ms in rows]


def block_sizes(p: SetPartition) -> list[int]:
    """Occupation numbers of the partition, sorted descending."""
    return sorted((m.bit_count() for m in p.masks), reverse=True)
