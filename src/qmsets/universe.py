"""Universes, set partitions, dit-sets, and logical entropy.

A partition's blocks are stored canonically: each block lists its elements
in universe order, and blocks are ordered by their least element.  Two
partitions of the same universe are therefore equal iff they are structurally
equal, and every partition is hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BoundError, CompatibilityError, QmSetsError

DEFAULT_ENUMERATION_BOUND = 6


@dataclass(frozen=True)
class Universe:
    """An ordered finite set of distinct element labels.

    The ordering is fixed at construction; it defines the coordinate
    positions used by the GF(2) vector-space view.
    """

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(self.elements) < 1:
            raise QmSetsError("universe must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise QmSetsError("universe labels must be pairwise distinct")

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
        return label in self.elements

    def position(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise QmSetsError(f"label {label!r} is not in the universe") from None

    def sort_labels(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Return the labels as a tuple in universe order, validating membership."""
        return tuple(sorted(set(labels), key=self.position))


def require_same_universe(a, b) -> None:
    if a.universe != b.universe:
        raise CompatibilityError(
            "operands are defined on different universes and are not compatible"
        )


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering a universe."""

    universe: Universe
    blocks: tuple[tuple[str, ...], ...]

    @classmethod
    def from_blocks(
        cls, universe: Universe, blocks: Iterable[Iterable[str]]
    ) -> "SetPartition":
        canon = tuple(
            sorted(
                (universe.sort_labels(block) for block in blocks),
                key=lambda b: universe.position(b[0]) if b else -1,
            )
        )
        part = cls(universe, canon)
        part.validate()
        return part

    def validate(self) -> None:
        """Re-check the partition invariants: disjoint, nonempty, covering."""
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise QmSetsError("partition has an empty block")
            for label in block:
                if label not in self.universe:
                    raise QmSetsError(f"block element {label!r} not in universe")
                if label in seen:
                    raise QmSetsError(f"blocks are not disjoint at {label!r}")
                seen.add(label)
        if len(seen) != len(self.universe):
            raise QmSetsError("blocks do not cover the universe")

    def block_of(self, label: str) -> tuple[str, ...]:
        for block in self.blocks:
            if label in block:
                return block
        raise QmSetsError(f"label {label!r} not in any block")

    def block_sets(self) -> list[frozenset[str]]:
        return [frozenset(b) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join("{" + ",".join(block) + "}" for block in self.blocks)

    @classmethod
    def parse(cls, universe: Universe, text: str) -> "SetPartition":
        """Parse the canonical text form, e.g. ``{a}|{b,c}``."""
        blocks = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise QmSetsError(f"malformed block {chunk!r}")
            inner = chunk[1:-1].strip()
            blocks.append([s.strip() for s in inner.split(",")] if inner else [])
        return cls.from_blocks(universe, blocks)


@dataclass(frozen=True)
class DitSet:
    """The distinctions of a partition: ordered pairs in different blocks."""

    universe: Universe
    pairs: frozenset[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs

    def union(self, other: "DitSet") -> "DitSet":
        require_same_universe(self, other)
        return DitSet(self.universe, self.pairs | other.pairs)

    def issubset(self, other: "DitSet") -> bool:
        require_same_universe(self, other)
        return self.pairs <= other.pairs


def indiscrete(universe: Universe) -> SetPartition:
    """The one-block partition {U} (the 'blob', bottom of the lattice)."""
    return SetPartition.from_blocks(universe, [universe.elements])


def discrete(universe: Universe) -> SetPartition:
    """The all-singletons partition (top of the lattice)."""
    return SetPartition.from_blocks(universe, [[u] for u in universe])


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Partition whose blocks are the nonempty pairwise block intersections."""
    require_same_universe(p, q)
    blocks = []
    for b in p.block_sets():
        for c in q.block_sets():
            inter = b & c
            if inter:
                blocks.append(inter)
    return SetPartition.from_blocks(p.universe, blocks)


def meet(p: SetPartition, q: SetPartition) -> SetPartition:
    """Finest common coarsening, via equivalence closure of both block relations.

    Extra lattice operation used for lattice rendering; join is the operation
    with measurement semantics.
    """
    require_same_universe(p, q)
    parent = {u: u for u in p.universe}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u: str, v: str) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru

    for part in (p, q):
        for block in part.blocks:
            for label in block[1:]:
                union(block[0], label)

    groups: dict[str, set[str]] = {}
    for u in p.universe:
        groups.setdefault(find(u), set()).add(u)
    return SetPartition.from_blocks(p.universe, groups.values())


def dit(p: SetPartition) -> DitSet:
    """All ordered pairs of elements lying in distinct blocks."""
    owner = {u: i for i, block in enumerate(p.blocks) for u in block}
    pairs = frozenset(
        (u, v)
        for u in p.universe
        for v in p.universe
        if u != v and owner[u] != owner[v]
    )
    return DitSet(p.universe, pairs)


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True iff every block of p is contained in some block of q."""
    require_same_universe(p, q)
    q_blocks = q.block_sets()
    return all(any(set(b) <= c for c in q_blocks) for b in p.blocks)


def logical_entropy(p: SetPartition) -> Fraction:
    """Logical entropy |dit(p)| / |U|^2, with |dit(p)| = |U|^2 - sum |B|^2."""
    n = len(p.universe)
    return Fraction(n * n - sum(len(b) ** 2 for b in p.blocks), n * n)


def enumerate_partitions(
    universe: Universe, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[SetPartition]:
    """All partitions of the universe, in restricted-growth-string order."""
    n = len(universe)
    if n > bound:
        raise BoundError(
            f"universe size {n} exceeds enumeration bound {bound}"
        )
    elements = universe.elements
    results: list[SetPartition] = []

    def extend(rgs: list[int], max_label: int) -> None:
        if len(rgs) == n:
            k = max_label + 1
            blocks: list[list[str]] = [[] for _ in range(k)]
            for idx, lab in enumerate(rgs):
                blocks[lab].append(elements[idx])
            results.append(SetPartition.from_blocks(universe, blocks))
            return
        for lab in range(max_label + 2):
            rgs.append(lab)
            extend(rgs, max(max_label, lab))
            rgs.pop()

    extend([0], 0)
    return results


def block_sizes(p: SetPartition) -> list[int]:
    """Occupation numbers of the partition, sorted descending."""
    return sorted((len(b) for b in p.blocks), reverse=True)
