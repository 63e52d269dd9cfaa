"""The library against tests/reference.py, on every input over a 4-set.

The partition lattice, dit-sets, entropy, the Born rule, measurement and
its seeded draws: all 15 partitions, every ordered pair of them, and every
nonempty state.  The lattice and dit-set unions again over a 5-set: all 52
partitions, every ordered pair.  Cascades and their exact finals: every pair of
partition-shaped attributes whose join is discrete.  Group closure and
orbits: every set of one or two of the 24 permutations.  GF(2) coordinates
and basis checks: every ordered triple of distinct nonempty subsets of a
3-set and a seeded sample of ordered bases of the 4-set."""

import random
from itertools import combinations, permutations, product

import pytest

import reference as ref
from qmsets import (
    Attribute,
    BasisError,
    Permutation,
    SetPartition,
    TransformationGroup,
    Universe,
    block_sizes,
    born_distribution,
    check_basis,
    csca_final_distribution,
    csca_measure,
    dit,
    enumerate_partitions,
    generate_group,
    join,
    ket_table,
    logical_entropy,
    measure_distribution,
    measure_sample,
    meet,
    orbit_partition,
    refines,
    standard_basis,
    standard_ket,
    to_basis,
)

LABELS = ("y", "w", "z", "x")  # universe order is not label order
U = Universe.of(LABELS)
PARTITIONS = ref.set_partitions(LABELS)
STATES = [frozenset(u for i, u in enumerate(LABELS) if m >> i & 1) for m in range(1, 16)]


def text(p):
    """A partition's blocks in universe order, for test ids and messages."""
    rows = [sorted(b, key=LABELS.index) for b in p]
    return "|".join("".join(b) for b in sorted(rows, key=lambda b: LABELS.index(b[0])))


def ours(p):
    return SetPartition.from_blocks(U, [sorted(b) for b in p])


def blocks(p):
    return frozenset(map(frozenset, p.blocks))


def test_the_reference_has_every_partition_once():
    assert len(PARTITIONS) == len(set(PARTITIONS)) == 15
    assert {blocks(p) for p in enumerate_partitions(U)} == set(PARTITIONS)


def assert_dits_agree(d, pairs):
    assert len(d) == len(pairs) and d.pairs == pairs
    for pair in product(LABELS, repeat=2):
        assert (pair in d) == (pair in pairs), pair


@pytest.mark.parametrize("p", PARTITIONS, ids=text)
def test_lattice_against_the_reference(p):
    P = ours(p)
    for q in PARTITIONS:
        Q = ours(q)
        # Equality with the checked constructor's value also pins canonical order.
        assert join(P, Q) == ours(ref.join(p, q)), text(q)
        assert meet(P, Q) == ours(ref.meet(p, q)), text(q)
        assert refines(P, Q) == ref.refines(p, q), text(q)
        assert dit(P).union(dit(Q)).pairs == ref.dit(p, LABELS) | ref.dit(q, LABELS)
        assert dit(P).issubset(dit(Q)) == (ref.dit(p, LABELS) <= ref.dit(q, LABELS))


def test_lattice_against_the_reference_on_a_5_set():
    """The benchmark times join, meet, refines and dit at |U| = 5 as well."""
    labels = ("c", "e", "a", "d", "b")  # universe order is not label order
    u5 = Universe.of(labels)
    partitions = ref.set_partitions(labels)
    assert len(set(partitions)) == 52
    # The checked constructor's value: equality with it also pins canonical order.
    checked = {p: SetPartition.from_blocks(u5, [sorted(b) for b in p]) for p in partitions}
    dits = {p: ref.dit(p, labels) for p in partitions}
    for p, P in checked.items():
        for q, Q in checked.items():
            assert join(P, Q) == checked[ref.join(p, q)], (p, q)
            assert meet(P, Q) == checked[ref.meet(p, q)], (p, q)
            assert refines(P, Q) == ref.refines(p, q), (p, q)
            assert dit(P).union(dit(Q)).pairs == dits[p] | dits[q], (p, q)


@pytest.mark.parametrize("p", PARTITIONS, ids=text)
def test_dits_entropy_and_sizes_against_the_reference(p):
    P = ours(p)
    for q in PARTITIONS:
        Q = ours(q)
        for mine, theirs in ((P, p), (join(P, Q), ref.join(p, q)), (meet(P, Q), ref.meet(p, q))):
            assert blocks(mine) == theirs
            assert_dits_agree(dit(mine), ref.dit(theirs, LABELS))
            assert logical_entropy(mine) == ref.logical_entropy(theirs, LABELS)
            assert block_sizes(mine) == ref.block_sizes(theirs)


def outcomes(d):
    return [(o.value, o.probability, o.collapsed.to_subset()) for o in d.outcomes]


@pytest.mark.parametrize("p", PARTITIONS, ids=text)
def test_measurement_against_the_reference(p):
    """The attribute whose level sets are p's blocks, valued 10, 9, ... in
    universe order of the blocks, so value order is numeric, not textual."""
    by_first = sorted(p, key=lambda b: min(map(LABELS.index, b)))
    values = {u: str(10 - k) for k, b in enumerate(by_first) for u in b}
    f = Attribute.from_mapping("f", U, values)
    for state in STATES:
        ket = standard_ket(U, state)
        assert outcomes(measure_distribution(f, ket)) == ref.measure(values, state), state
        assert outcomes(born_distribution(ket)) == ref.born(state, LABELS), state


def level_values(p):
    """The values of the attribute whose level sets are p's blocks: 10, 9, ...
    in universe order of the blocks."""
    by_first = sorted(p, key=lambda b: min(map(LABELS.index, b)))
    return {u: str(10 - k) for k, b in enumerate(by_first) for u in b}


def steps(drawn):
    return [(s.value, s.probability, s.post_state.to_subset()) for s in drawn]


@pytest.mark.parametrize("p", PARTITIONS, ids=text)
def test_draws_against_the_reference(p):
    """Seed 1, steps 0-9, every state: certain measurements included."""
    values = level_values(p)
    f = Attribute.from_mapping("f", U, values)
    for state in STATES:
        ket = standard_ket(U, state)
        drawn = [measure_sample(f, ket, 1, step) for step in range(10)]
        assert all(d.pre_state.to_subset() == state for d in drawn)
        assert steps(drawn) == [ref.sample(values, state, 1, step) for step in range(10)]


def test_cascades_against_the_reference():
    """Every ordered pair of partition-shaped attributes whose join is
    discrete: cascades from the full state, seeds 0-9, where the second step
    is certain whenever the first partition is discrete; and the exact
    finals from every nonempty state."""
    pairs = [(p, q) for p in PARTITIONS for q in PARTITIONS if len(ref.join(p, q)) == 4]
    assert len(pairs) == 113
    for p, q in pairs:
        values = [level_values(p), level_values(q)]
        fs = [Attribute.from_mapping(name, U, v) for name, v in zip("fg", values)]
        for seed in range(10):
            record = csca_measure(fs, standard_ket(U, LABELS), seed)
            assert steps(record.steps) == ref.cascade(values, frozenset(LABELS), seed)
        for state in STATES:
            finals = csca_final_distribution(fs, standard_ket(U, state))
            assert finals == ref.cascade_finals(values, state), (text(p), text(q), state)


PERMUTATIONS = [dict(zip(LABELS, images)) for images in permutations(LABELS)]


def test_groups_and_orbits_against_the_reference():
    """Every set of one or two permutations: the closure, its orbits, and the
    orbits of the same elements as an unchecked set, which orbit_partition
    checks."""
    sets = [gens for k in (1, 2) for gens in combinations(PERMUTATIONS, k)]
    assert len(sets) == 24 + 276
    for gens in sets:
        group = generate_group([Permutation.from_mapping(U, g) for g in gens], U)
        closure = ref.closure(LABELS, gens)
        assert {t.images for t in group} == {tuple(t[u] for u in LABELS) for t in closure}
        orbits = ours(ref.orbits(LABELS, closure))
        assert orbit_partition(group) == orbits, [t.images for t in group]
        assert orbit_partition(TransformationGroup(U, group.elements)) == orbits


U3 = Universe.of(("c", "a", "b"))
TRIPLES = list(permutations([s for s in ref.subsets(U3.elements) if s], 3))


def sample_bases(count, seed=0):
    """Ordered bases of the 4-set, drawn at random and kept when the reference
    calls them bases."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        vectors = rng.sample(STATES, len(LABELS))
        if ref.is_basis(vectors, LABELS):
            out.append(vectors)
    return out


def test_check_basis_against_the_reference():
    accepted = 0
    for vectors in TRIPLES:
        try:
            check_basis(U3, vectors, "B")
            ours = True
        except BasisError:
            ours = False
        assert ours == ref.is_basis(vectors, U3.elements), vectors
        accepted += ours
    assert (len(TRIPLES), accepted) == (210, 168)


@pytest.mark.parametrize("universe, bases", [
    (U3, [v for v in TRIPLES if ref.is_basis(v, U3.elements)]),
    (U, sample_bases(200)),
], ids=["n3-all", "n4-sample"])
def test_coordinates_against_the_reference(universe, bases):
    standard = standard_basis(universe)
    for vectors in bases:
        basis = check_basis(universe, vectors, "B")

        def theirs(subset):
            return {f"B{j}" for j in ref.coordinates(vectors, subset)}

        for subset in ref.subsets(universe.elements):
            assert to_basis(standard_ket(universe, subset), basis).coords == theirs(subset)
        for paper_order in (False, True):
            rows = ket_table([standard, basis], paper_order=paper_order)
            assert sorted(map(len, rows)) == [2] * 2 ** len(universe)
            assert {r[0].coords for r in rows} == set(ref.subsets(universe.elements))
            for s, ket in rows:
                assert ket.coords == theirs(s.coords), (vectors, s)
