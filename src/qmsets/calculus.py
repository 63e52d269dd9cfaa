"""The probability calculus on Z2^|U|: brackets, Born rule, measurement, evolution.

Probabilities are exact rationals end to end; floating point appears only
in norm values and display.  Sampling draws an integer d in [0, 2**64) by a
counter-based pseudorandom scheme keyed by (seed, step index), so cascades
are reproducible and independent of evaluation order, and takes the first
outcome, in value order, whose running count cum has d * |S| < cum * 2**64.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .attributes import Attribute, inverse_image_partition, is_csca
from .errors import BasisError, EmptyStateError, QmSetsError
from .gf2 import (
    Basis,
    LinearMap,
    SetKet,
    apply_map,
    is_nonsingular,
    standard_basis,
)
from .universe import SetPartition, _at_bits, join as partition_join, require_same_universe

_CERTAIN = Fraction(1)


def _standard_bits(s: SetKet) -> int:
    """A standard-basis ket's subset as a bitmask: its coordinates (vector i is element i)."""
    if not s.basis.is_standard:
        raise BasisError("operand must be expressed in the standard basis; convert with to_basis")
    return s.mask


def _standard_basis_of(s: SetKet) -> Basis:
    """standard_basis(U) for a standard-basis ket: its own basis when named as that one."""
    own = s.basis.name == "U" and s.basis.vector_names == s.universe.elements
    return s.basis if own else standard_basis(s.universe)


def bracket(t: SetKet, s: SetKet) -> int:
    """Overlap count |T intersect S| for standard-basis kets."""
    require_same_universe(t, s)
    return (_standard_bits(t) & _standard_bits(s)).bit_count()


class Norm(NamedTuple):
    value: float
    squared: int


def norm(s: SetKet) -> Norm:
    """sqrt(|S|) together with the exact squared norm |S|."""
    squared = _standard_bits(s).bit_count()
    return Norm(math.sqrt(squared), squared)


@dataclass(frozen=True)
class KetBraResolution:
    """Termwise singleton resolution of the bracket and of the ket itself."""

    value: int
    resolution: tuple[SetKet, ...]  # the singleton constituents of S


def ketbra_resolve(t: SetKet, s: SetKet) -> KetBraResolution:
    """Sum over u of <T|{u}><{u}|S>, with the singleton resolution of S."""
    value = bracket(t, s)
    basis, n = _standard_basis_of(s), len(s.universe)
    singletons = [SetKet._of(basis, 1 << i) for i in _at_bits(range(n), s._bits())]
    return KetBraResolution(value, tuple(singletons))


@dataclass(frozen=True)
class Outcome:
    value: str
    probability: Fraction
    collapsed: SetKet

    @classmethod
    def _of(cls, value: str, probability: Fraction, collapsed: SetKet) -> "Outcome":
        """Outcome(value, probability, collapsed) for the library's own outcomes."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["value"], d["probability"], d["collapsed"] = value, probability, collapsed
        return obj


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome distribution conditioned on a nonempty state."""

    state: SetKet
    outcomes: tuple[Outcome, ...]

    @classmethod
    def _of(cls, state: SetKet, outcomes: tuple[Outcome, ...]) -> "OutcomeDistribution":
        """(state, outcomes) built valid by the library; the public constructor checks."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["state"], d["outcomes"] = state, outcomes
        return obj

    def __post_init__(self):
        if type(self.outcomes) is not tuple:
            raise QmSetsError("distribution outcomes must be a tuple")
        total = sum((o.probability for o in self.outcomes), Fraction(0))
        if total != 1:
            raise QmSetsError(f"probabilities sum to {total}, not 1")
        union, values = 0, set()
        for o in self.outcomes:
            if o.probability < 0:
                raise QmSetsError("negative probability")
            if o.value in values:
                raise QmSetsError(f"outcome value {o.value!r} appears twice")
            values.add(o.value)
            require_same_universe(o.collapsed, self.state)
            collapsed = o.collapsed._bits()
            if not collapsed:
                raise QmSetsError("empty collapsed state")
            if union & collapsed:
                raise QmSetsError("collapsed states overlap")
            union |= collapsed
        if union != self.state._bits():
            raise QmSetsError("collapsed states do not partition the state")

    def probability_of(self, value: str) -> Fraction:
        for o in self.outcomes:
            if o.value == value:
                return o.probability
        return Fraction(0)


def born_distribution(s: SetKet) -> OutcomeDistribution:
    """Laplacian equal probability over the singletons of a nonempty state."""
    bits = _standard_bits(s)
    if not bits:
        raise EmptyStateError("cannot condition on the empty state")
    basis, p = _standard_basis_of(s), Fraction(1, bits.bit_count())
    names = basis.vector_names
    outcomes = [Outcome._of(names[i], p, SetKet._of(basis, 1 << i))
                for i in _at_bits(range(len(names)), bits)]
    return OutcomeDistribution._of(s, tuple(outcomes))


@dataclass(frozen=True)
class Projection:
    """Projection onto the power set of a preimage: S maps to support & S."""

    support: frozenset[str]

    def __call__(self, s: SetKet) -> SetKet:
        bits, positions = _standard_bits(s), s.universe.positions
        support = sum(1 << positions[u] for u in self.support if u in positions)
        return SetKet._of(_standard_basis_of(s), support & bits)


def spectral_decompose(f: Attribute) -> list[tuple[str, Projection]]:
    """Ordered (value, projection) pairs.

    The preimages of a total function partition U, so the projections are
    orthogonal and sum to the identity by construction.
    """
    return [(r, Projection(f.preimage(r))) for r in f.attained_values()]


def measure_distribution(f: Attribute, s: SetKet) -> OutcomeDistribution:
    """Pr(r|S) = |f^-1(r) & S| / |S| with collapsed states f^-1(r) & S.

    A state expressed in a non-standard basis is first re-expressed in the
    attribute's home basis (the standard basis of its universe).  A state
    inside one preimage f^-1(r) is an eigenstate: r is certain and the
    collapse is the state, itself when already on _standard_basis_of(s).
    """
    require_same_universe(f, s)
    bits = s._bits()
    if not bits:
        raise EmptyStateError("cannot measure the empty state")
    if not s.basis.is_standard:
        s = SetKet._of(standard_basis(f.universe), bits)
    hits = [(r, inter) for r, m in f._spectrum.items() if (inter := m & bits)]
    if len(hits) == 1:  # the preimages cover U, so S lies inside this one
        collapsed = s if (home := _standard_basis_of(s)) is s.basis else SetKet._of(home, bits)
        return OutcomeDistribution._of(s, (Outcome._of(hits[0][0], _CERTAIN, collapsed),))
    size = bits.bit_count()
    return OutcomeDistribution._of(s, tuple(
        Outcome._of(r, Fraction(inter.bit_count(), size),
                    SetKet._of(standard_basis(f.universe), inter))
        for r, inter in hits
    ))


def _draw(seed: int, step: int) -> int:
    """Deterministic uniform draw d in [0, 2**64) keyed by (seed, step)."""
    digest = hashlib.blake2b(f"{seed}:{step}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class MeasurementStep:
    attribute: str
    value: str
    pre_state: SetKet
    post_state: SetKet
    probability: Fraction
    # measure_sample's draw d, and the drawn outcome's running counts
    # [cum_lo, cum_hi): cum_lo * 2**64 <= d * |pre_state| < cum_hi * 2**64.
    draw: int
    cum_lo: int
    cum_hi: int


@dataclass(frozen=True)
class MeasurementRecord:
    """Audit trail for a sampled measurement cascade."""

    seed: int
    steps: tuple[MeasurementStep, ...]

    @property
    def final_state(self) -> SetKet:
        return self.steps[-1].post_state

    @property
    def value_tuple(self) -> tuple[str, ...]:
        return tuple(step.value for step in self.steps)

    @property
    def path_probability(self) -> Fraction:
        prob = Fraction(1)
        for step in self.steps:
            prob *= step.probability
        return prob


def measure_sample(
    f: Attribute, s: SetKet, seed: int, step: int = 0
) -> MeasurementStep:
    """Draw one outcome from measure_distribution: the first, in value order,
    whose running count cum has d * |S| < cum * 2**64; identical seed, identical draw."""
    dist = measure_distribution(f, s)
    d, cum = _draw(seed, step), 0
    scaled = d * dist.state.mask.bit_count()  # state and collapses are on a standard basis
    for chosen in dist.outcomes:  # the last outcome's cum is |S|, so the loop always breaks
        lo, cum = cum, cum + chosen.collapsed.mask.bit_count()
        if scaled < cum << 64:
            break
    return MeasurementStep(f.name, chosen.value, dist.state, chosen.collapsed,
                           chosen.probability, d, lo, cum)


def measurement_join_partition(s: SetKet) -> SetPartition:
    """The partition {S, complement of S}, with an empty block omitted."""
    universe = s.universe
    bits = _standard_bits(s)
    full = (1 << len(universe)) - 1
    return SetPartition._from_masks(universe, [m for m in (bits, full ^ bits) if m])


@dataclass(frozen=True)
class MeasurementJoin:
    """Join of {S, S^c} with the attribute partition, blocks split by potentiality."""

    partition: SetPartition
    possible: tuple[tuple[str, ...], ...]       # blocks inside S
    not_potential: tuple[tuple[str, ...], ...]  # blocks inside S^c


def measurement_join(f: Attribute, s: SetKet) -> MeasurementJoin:
    require_same_universe(f, s)
    outside = ~_standard_bits(s)
    joined = partition_join(measurement_join_partition(s), inverse_image_partition(f))
    labels_of = joined.universe.labels_of
    possible = tuple(labels_of(m) for m in joined.masks if not m & outside)
    not_potential = tuple(labels_of(m) for m in joined.masks if m & outside)
    return MeasurementJoin(joined, possible, not_potential)


def pythagoras_check(p: SetPartition, s: SetKet) -> tuple[int, int]:
    """(|S|, sum over blocks of |B & S|); equal for every partition."""
    require_same_universe(p, s)
    bits = _standard_bits(s)
    return bits.bit_count(), sum((m & bits).bit_count() for m in p.masks)


def evolve(m: LinearMap, s: SetKet) -> SetKet:
    """Distinction-preserving evolution: apply a non-singular map."""
    require_same_universe(m.domain, s)
    if not is_nonsingular(m):
        raise QmSetsError(
            "singular map: not a distinction-preserving process"
        )
    return apply_map(m, s)


def csca_measure(
    fs: Sequence[Attribute], s: SetKet, seed: int
) -> MeasurementRecord:
    """Sampled non-degenerate measurement: thread collapses through a CSCA."""
    if fs:
        require_same_universe(fs[0], s)
    if not is_csca(fs):
        raise QmSetsError("attribute set is not a CSCA; measurement is degenerate")
    steps = []
    state = s
    for i, f in enumerate(fs):
        step = measure_sample(f, state, seed, step=i)
        steps.append(step)
        state = step.post_state
    return MeasurementRecord(seed, tuple(steps))


def csca_final_distribution(
    fs: Sequence[Attribute], s: SetKet
) -> dict[frozenset[str], Fraction]:
    """Exact distribution over final singleton states of a CSCA cascade: each
    path's probabilities telescope to 1/|S|, so it is {u} -> 1/|S| on S."""
    if fs:
        require_same_universe(fs[0], s)
    if not is_csca(fs):
        raise QmSetsError("attribute set is not a CSCA")
    bits = s._bits()
    if not bits:
        raise EmptyStateError("cannot measure the empty state")
    p = Fraction(1, bits.bit_count())
    return {frozenset((u,)): p for u in s.universe.labels_of(bits)}
