"""Permutation actions on a universe: closure, axiom checks, orbit partitions.

Composition is left-to-right: compose(t, s) applies t first, then s,
matching the diagram U -t-> U -s-> U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BoundError, CompatibilityError, GroupError, QmSetsError
from .gf2 import SetKet
from .universe import SetPartition, Universe, _unchecked_new

DEFAULT_CLOSURE_BOUND = 10080


@dataclass(frozen=True)
class Permutation:
    """A bijection of the universe, stored as the image tuple in universe order."""

    universe: Universe
    images: tuple[str, ...]

    def __post_init__(self):
        if sorted(self.images) != sorted(self.universe.elements):
            raise QmSetsError("mapping is not a bijection of the universe")

    # (universe, images) already known to be a bijection.
    _unchecked = classmethod(_unchecked_new)

    @classmethod
    def identity(cls, universe: Universe) -> "Permutation":
        return cls._unchecked(universe, universe.elements)

    @classmethod
    def from_mapping(cls, universe: Universe, mapping: dict[str, str]) -> "Permutation":
        universe.mask_of([*mapping, *mapping.values()])  # a label outside U raises
        return cls(
            universe, tuple(mapping.get(u, u) for u in universe.elements)
        )

    @classmethod
    def from_cycles(cls, universe: Universe, cycles: Sequence[Sequence[str]]) -> "Permutation":
        mapping: dict[str, str] = {}
        for cycle in cycles:
            for i, label in enumerate(cycle):
                if label in cycle[:i]:
                    raise QmSetsError(f"label {label!r} repeated within a cycle")
                if label in mapping:
                    raise QmSetsError(f"label {label!r} repeated across cycles")
                mapping[label] = cycle[(i + 1) % len(cycle)]
        return cls.from_mapping(universe, mapping)

    def __call__(self, label: str) -> str:
        return self.images[self.universe.position(label)]

    def compose(self, then: "Permutation") -> "Permutation":
        """Apply self first, then the other permutation."""
        if self.universe != then.universe:
            raise CompatibilityError("permutations on different universes")
        positions, images = self.universe.positions, then.images
        return Permutation._unchecked(
            self.universe, tuple(images[positions[v]] for v in self.images)
        )

    def inverse(self) -> "Permutation":
        preimage = dict(zip(self.images, self.universe.elements))
        return Permutation._unchecked(self.universe, tuple(preimage[v] for v in self.universe))

    def apply_set(self, labels: Iterable[str]) -> frozenset[str]:
        return frozenset(self(u) for u in labels)

    def cycle_string(self) -> str:
        seen: set[str] = set()
        parts = []
        for u in self.universe:
            if u in seen:
                continue
            cycle = [u]
            seen.add(u)
            v = self(u)
            while v != u:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            if len(cycle) > 1:
                parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts) or "()"


@dataclass(frozen=True)
class TransformationGroup:
    """A set of permutations; the raw constructor checks nothing, orbit_partition does."""

    universe: Universe
    elements: frozenset[Permutation]
    _closed: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking identity, inverses, and closure on a permutation set."""

    has_identity: bool
    missing_inverses: tuple[Permutation, ...]
    closure_violations: tuple[tuple[Permutation, Permutation], ...]

    @property
    def ok(self) -> bool:
        return (
            self.has_identity
            and not self.missing_inverses
            and not self.closure_violations
        )


def generate_group(
    generators: Sequence[Permutation],
    universe: Universe | None = None,
    bound: int = DEFAULT_CLOSURE_BOUND,
) -> TransformationGroup:
    """Smallest group containing the generators, by breadth-first closure
    under products with them (a finite monoid of permutations is a group)."""
    if universe is None:
        if not generators:
            raise QmSetsError("generate_group needs a universe when generators are empty")
        universe = generators[0].universe
    for g in generators:
        if g.universe != universe:
            raise CompatibilityError("generators on different universes")
    elements: set[Permutation] = {Permutation.identity(universe)}
    frontier = list(elements)
    while frontier:
        new: list[Permutation] = []
        for t in frontier:
            for g in generators:
                composed = t.compose(g)
                if composed not in elements:
                    elements.add(composed)
                    new.append(composed)
                    if len(elements) > bound:
                        raise BoundError(f"group closure exceeded bound {bound}")
        frontier = new
    group = TransformationGroup(universe, frozenset(elements))
    object.__setattr__(group, "_closed", True)  # the only place a group is known closed
    return group


def verify_group_axioms(g: TransformationGroup) -> AxiomReport:
    """Report any violated group axiom with a witness."""
    identity = Permutation.identity(g.universe)
    has_identity = identity in g.elements
    missing_inverses = tuple(
        sorted(
            (t for t in g.elements if t.inverse() not in g.elements),
            key=lambda t: t.images,
        )
    )
    ordered = sorted(g.elements, key=lambda t: t.images)
    violations = [
        (t, s) for t in ordered for s in ordered if t.compose(s) not in g.elements
    ]
    return AxiomReport(has_identity, missing_inverses, tuple(violations))


def orbit_partition(g: TransformationGroup) -> SetPartition:
    """Partition of the universe into orbits {t(u) : t in G}.

    G must be a group.  generate_group's are closed; any other set is checked,
    with elements outside the span so far as generators: at most log2 |G|.
    """
    if not g._closed:
        gens: list[Permutation] = []
        span = frozenset([Permutation.identity(g.universe)])
        try:
            for t in sorted(g.elements, key=lambda t: t.images):
                if t not in span:
                    gens.append(t)
                    span = generate_group(gens, g.universe, bound=len(g)).elements
        except BoundError:
            span = None
        if span != g.elements:
            raise GroupError("not a group: its elements generate a different set")
    # Orbit i is column i of the image tuples: {t(u_i) : t in G}.
    orbits = set(map(g.universe.mask_of, zip(*(t.images for t in g))))
    return SetPartition._from_masks(g.universe, orbits)


def is_invariant(g: TransformationGroup, s: SetKet) -> bool:
    """True iff every group element maps the subset into itself."""
    if g.universe != s.universe:
        raise CompatibilityError("group and state on different universes")
    bits, positions = s._bits(), s.universe.positions
    members = [i for i in range(bits.bit_length()) if bits >> i & 1]
    return all(bits >> positions[t.images[i]] & 1 for t in g.elements for i in members)
