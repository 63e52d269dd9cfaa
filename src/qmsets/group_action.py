"""Permutation actions on a universe: closure, axiom checks, orbit partitions.

Composition is left-to-right: compose(t, s) applies t first, then s,
matching the diagram U -t-> U -s-> U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BoundError, CompatibilityError, GroupError, QmSetsError
from .gf2 import SetKet
from .universe import SetPartition, Universe, _at_bits, require_same_universe

DEFAULT_CLOSURE_BOUND = 10080


@dataclass(frozen=True)
class Permutation:
    """A bijection of the universe, held as positions: targets[i] is the
    position of the image of element i.  `images` is the label view."""

    universe: Universe
    targets: tuple[int, ...]

    def __init__(self, universe: Universe, images: Sequence[str]):
        if sorted(images) != sorted(universe.elements):
            raise QmSetsError("mapping is not a bijection of the universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "targets", tuple(map(universe.positions.get, images)))

    @classmethod
    def _unchecked(cls, universe: Universe, targets: tuple[int, ...]) -> "Permutation":
        """(universe, targets) already known to be a bijection."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["universe"], d["targets"] = universe, targets
        return obj

    @classmethod
    def identity(cls, universe: Universe) -> "Permutation":
        return cls._unchecked(universe, tuple(range(len(universe))))

    @classmethod
    def from_mapping(cls, universe: Universe, mapping: dict[str, str]) -> "Permutation":
        universe.mask_of([*mapping, *mapping.values()])  # a label outside U raises
        return cls(universe, [mapping.get(u, u) for u in universe.elements])

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

    @property
    def images(self) -> tuple[str, ...]:
        return tuple(map(self.universe.elements.__getitem__, self.targets))

    def __call__(self, label: str) -> str:
        return self.universe.elements[self.targets[self.universe.position(label)]]

    def compose(self, then: "Permutation") -> "Permutation":
        """Apply self first, then the other permutation."""
        require_same_universe(self, then)
        return Permutation._unchecked(self.universe, tuple(then.targets[i] for i in self.targets))

    def inverse(self) -> "Permutation":
        # Position j's preimage is the i with targets[i] == j.
        preimages = sorted(range(len(self.targets)), key=self.targets.__getitem__)
        return Permutation._unchecked(self.universe, tuple(preimages))

    def apply_set(self, labels: Iterable[str]) -> frozenset[str]:
        return frozenset(self(u) for u in labels)

    def cycle_string(self) -> str:
        labels, seen, parts = self.universe.elements, set(), []
        for start in range(len(labels)):
            cycle, i = [], start
            while i not in seen:
                seen.add(i)
                cycle.append(labels[i])
                i = self.targets[i]
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
    """Smallest group containing the generators: the closure of the identity
    under products with them (a finite monoid of permutations is a group),
    run on bare target tuples, each wrapped as a Permutation once at the end."""
    if universe is None:
        if not generators:
            raise QmSetsError("generate_group needs a universe when generators are empty")
        universe = generators[0].universe
    for g in generators:
        if g.universe != universe:
            raise CompatibilityError("generators on different universes")
    gens = [g.targets for g in generators]
    found = [tuple(range(len(universe)))]
    elements = set(found)
    for t in found:  # found grows as it is walked, so each element is taken once
        if len(found) > bound:
            raise BoundError(f"group closure exceeded bound {bound}")
        for g in gens:
            composed = tuple(g[i] for i in t)
            if composed not in elements:
                elements.add(composed)
                found.append(composed)
    group = TransformationGroup(
        universe, frozenset(Permutation._unchecked(universe, t) for t in found)
    )
    object.__setattr__(group, "_closed", True)  # the only place a group is known closed
    return group


def verify_group_axioms(g: TransformationGroup) -> AxiomReport:
    """Report any violated group axiom with a witness."""
    ordered = sorted(g.elements, key=lambda t: t.images)
    has_identity = Permutation.identity(g.universe) in g.elements
    missing_inverses = tuple(t for t in ordered if t.inverse() not in g.elements)
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
            for t in sorted(g.elements, key=lambda t: t.targets):
                if t not in span:
                    gens.append(t)
                    span = generate_group(gens, g.universe, bound=len(g)).elements
        except BoundError:
            span = None
        if span != g.elements:
            raise GroupError("not a group: its elements generate a different set")
    # Orbit i is column i of the target tuples, {t(u_i) : t in G}, as a mask.
    orbits = {sum(1 << j for j in set(column)) for column in zip(*(t.targets for t in g))}
    return SetPartition._from_masks(g.universe, orbits)


def is_invariant(g: TransformationGroup, s: SetKet) -> bool:
    """True iff every group element maps the subset into itself."""
    require_same_universe(g, s)
    bits = s._bits()
    members = _at_bits(range(len(g.universe)), bits)
    return all(bits >> t.targets[i] & 1 for t in g.elements for i in members)
