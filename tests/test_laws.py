"""Laws of the partition and GF(2) layers, as hypothesis properties.

Universes have 1-6 generated labels.  Partitions are drawn as a block
index per element and handed to from_blocks in a shuffled block order, so
the canonical form is exercised along with the operations.  Bases are the
standard one under random row additions, in shuffled order with shuffled
vector names.  Attributes take values from a fixed token set.  Where
tests/reference.py states a definition, the laws check against it and
nothing else, through ref_form, which states a library value in the
reference's labels.
"""

import csv
import decimal
import io
import json
import pickle
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmsets import (
    Attribute,
    Basis,
    BasisError,
    BoundError,
    CompatibilityError,
    GroupError,
    LinearMap,
    Outcome,
    OutcomeDistribution,
    Permutation,
    QmSetsError,
    SetKet,
    SetPartition,
    TransformationGroup,
    Universe,
    add,
    apply_map,
    born_distribution,
    bracket,
    check_basis,
    csca_final_distribution,
    csca_measure,
    discrete,
    dit,
    eigen_sets,
    enumerate_partitions,
    evolve,
    generate_group,
    identity_map,
    indiscrete,
    is_csca,
    is_invariant,
    is_nonsingular,
    join,
    join_attributes,
    ket_table,
    ketbra_resolve,
    logical_entropy,
    measure_distribution,
    measure_sample,
    measurement_join,
    meet,
    orbit_partition,
    parse_scenario,
    pythagoras_check,
    refines,
    run_scenario,
    spectral_decompose,
    standard_basis,
    standard_ket,
    to_basis,
    verify_group_axioms,
)
from qmsets import calculus
from qmsets.attributes import value_sort_key
from qmsets.calculus import Projection
from qmsets.cli import FORMATS, main
from qmsets.gf2 import DEFAULT_KET_TABLE_BOUND
from qmsets.scenario import COMMANDS

import reference as ref

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}

LAWS = settings(max_examples=40, deadline=None)

_labels = st.lists(
    st.text(alphabet="abcxyz019_'", min_size=1, max_size=3),
    min_size=1,
    max_size=6,
    unique=True,
)
universes = _labels.map(Universe.of)


@st.composite
def partitions(draw, universe):
    n = len(universe)
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for label, k in zip(universe, owner):
        groups.setdefault(k, []).append(label)
    blocks = draw(st.permutations([draw(st.permutations(g)) for g in groups.values()]))
    return SetPartition.from_blocks(universe, blocks)


@st.composite
def universe_and(draw, count):
    universe = draw(universes)
    return (universe, *(draw(partitions(universe)) for _ in range(count)))


def ref_form(value):
    """A library value as tests/reference.py states it: a partition as its
    set of blocks, an attribute or a permutation as its dict of labels, and a
    ket as its subset, the symmetric difference of its basis vectors."""
    if isinstance(value, SetPartition):
        return frozenset(value.block_sets())
    if isinstance(value, SetKet):
        vectors = dict(zip(value.basis.vector_names, value.basis.vectors))
        return ref.symmetric_difference(vectors[x] for x in value.coords)
    if isinstance(value, Attribute):
        return dict(zip(value.universe, value.values))
    return dict(zip(value.universe, value.images))  # a Permutation


class TestLattice:
    @LAWS
    @given(universe_and(2))
    def test_commutative(self, upq):
        _, p, q = upq
        assert join(p, q) == join(q, p)
        assert meet(p, q) == meet(q, p)

    @LAWS
    @given(universe_and(3))
    def test_associative(self, upqr):
        _, p, q, r = upqr
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(meet(p, q), r) == meet(p, meet(q, r))

    @LAWS
    @given(universe_and(1))
    def test_idempotent(self, up):
        _, p = up
        assert join(p, p) == p
        assert meet(p, p) == p

    @LAWS
    @given(universe_and(2))
    def test_absorption(self, upq):
        _, p, q = upq
        assert join(p, meet(p, q)) == p
        assert meet(p, join(p, q)) == p

    @LAWS
    @given(universe_and(2))
    def test_refines_iff_join_is_left(self, upq):
        _, p, q = upq
        assert refines(p, q) == (join(p, q) == p)
        assert refines(p, q) == (meet(p, q) == q)

    @LAWS
    @given(universe_and(1))
    def test_top_and_bottom(self, up):
        u, p = up
        top, bottom = discrete(u), indiscrete(u)
        assert len(top.blocks) == len(u) and len(bottom.blocks) == 1
        assert join(p, bottom) == p and join(p, top) == top
        assert meet(p, top) == p and meet(p, bottom) == bottom
        assert refines(top, p) and refines(p, bottom)

    @LAWS
    @given(universe_and(1))
    def test_canonical_text_round_trip(self, up):
        u, p = up
        assert SetPartition.parse(u, str(p)) == p
        assert sorted(label for block in p.blocks for label in block) == sorted(u)

    @settings(max_examples=12, deadline=None)
    @given(universes)
    def test_enumeration_gives_bell_many_distinct(self, u):
        parts = enumerate_partitions(u)
        assert len(parts) == len(set(parts)) == BELL[len(u)]
        for p in parts:
            assert sorted(label for block in p.blocks for label in block) == sorted(u)


class TestDitsAndEntropy:
    @LAWS
    @given(universe_and(2))
    def test_dit_of_join_is_union(self, upq):
        _, p, q = upq
        assert dit(join(p, q)).pairs == dit(p).pairs | dit(q).pairs

    @LAWS
    @given(universe_and(1))
    def test_dit_count(self, up):
        u, p = up
        n = len(u)
        assert dit(p).pairs == ref.dit(ref_form(p), u)
        assert len(dit(p)) == n * n - sum(len(b) ** 2 for b in p.blocks)

    @LAWS
    @given(universe_and(1))
    def test_entropy_is_dit_density(self, up):
        u, p = up
        assert logical_entropy(p) == Fraction(len(dit(p)), len(u) ** 2)


@st.composite
def dit_operands(draw):
    """A universe of 1-5 labels and two partitions of it."""
    universe = draw(_labels.map(lambda labels: Universe.of(labels[:5])))
    return universe, draw(partitions(universe)), draw(partitions(universe))


class TestDitSet:
    """The dit-set operations against the reference dit-set."""

    @LAWS
    @given(dit_operands())
    def test_len_and_membership_match_the_pairs(self, upq):
        u, p, _ = upq
        d, apart = dit(p), ref.dit(ref_form(p), u)
        assert len(d) == len(apart)
        for pair in ((x, y) for x in u for y in u):
            assert (pair in d) == (pair in apart)

    @LAWS
    @given(dit_operands())
    def test_only_pairs_of_universe_labels_are_members(self, upq):
        u, _, _ = upq
        d = dit(discrete(u))
        for x in u:
            for y in u:
                assert x + y not in d
                assert (x, y, y) not in d
                assert (x, "?") not in d and ("?", y) not in d
            assert x not in d and (x,) not in d

    @LAWS
    @given(dit_operands())
    def test_unhashable_items_are_not_members(self, upq):
        u, _, _ = upq
        d = dit(discrete(u))
        for x in u:
            for item in ([x], {x}, {x: x}):
                assert (item, x) not in d and (x, item) not in d and (item, item) not in d

    @LAWS
    @given(dit_operands())
    def test_union_is_dit_of_join(self, upq):
        u, p, q = upq
        union = dit(p).union(dit(q))
        assert union == dit(join(p, q))
        assert union.pairs == ref.dit(ref_form(p), u) | ref.dit(ref_form(q), u)

    @LAWS
    @given(dit_operands())
    def test_issubset_is_pair_inclusion(self, upq):
        u, p, q = upq
        for a, b in ((p, q), (q, p), (p, join(p, q)), (join(p, q), p), (meet(p, q), p), (p, p)):
            assert dit(a).issubset(dit(b)) == (ref.dit(ref_form(a), u) <= ref.dit(ref_form(b), u))

    @LAWS
    @given(dit_operands())
    def test_equal_iff_same_partition(self, upq):
        u, p, q = upq
        same_pairs = ref.dit(ref_form(p), u) == ref.dit(ref_form(q), u)
        assert (dit(p) == dit(q)) == (p == q) == same_pairs
        copy = SetPartition.parse(u, str(p))
        assert dit(p) == dit(copy) and hash(dit(p)) == hash(dit(copy))

    @LAWS
    @given(dit_operands())
    def test_operands_on_different_universes_raise(self, upq):
        u, p, _ = upq
        other = dit(discrete(Universe.of([*u, "?"])))
        for a, b in ((dit(p), other), (other, dit(p))):
            with pytest.raises(CompatibilityError):
                a.union(b)
            with pytest.raises(CompatibilityError):
                a.issubset(b)


class TestOrbits:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_orbits_are_the_reference_orbits(self, data):
        u = data.draw(universes)
        images = data.draw(st.lists(st.permutations(u.elements), min_size=1, max_size=3))
        gens = [Permutation(u, tuple(im)) for im in images]
        closure = ref.closure(u, [ref_form(t) for t in gens])
        assert ref_form(orbit_partition(generate_group(gens, u))) == ref.orbits(u, closure)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_closed_groups_skip_only_a_check_they_pass(self, data):
        """generate_group's result is not re-checked: the same elements through
        the raw constructor, which are checked, give the same orbits, and a
        replace of a closed group onto a non-group is checked and rejected."""
        u = data.draw(universes)
        images = data.draw(st.lists(st.permutations(u.elements), min_size=1, max_size=3))
        group = generate_group([Permutation(u, tuple(im)) for im in images], u)
        assert orbit_partition(group) == orbit_partition(TransformationGroup(u, group.elements))
        no_identity = group.elements - {Permutation(u, u.elements)}
        with pytest.raises(GroupError, match="^not a group: its elements generate a different set$"):
            orbit_partition(replace(group, elements=no_identity))


@st.composite
def independent_vectors(draw, universe):
    """|U| independent label sets: row operations on the singletons, in any order."""
    n = len(universe)
    vectors = [frozenset((u,)) for u in universe]
    # Adding one vector to another keeps the set independent.
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        if i != j:
            vectors[i] ^= vectors[j]
    return draw(st.permutations(vectors))


@st.composite
def bases(draw, universe, name):
    """A basis of generated independent vectors over `universe`."""
    vectors = draw(independent_vectors(universe))
    names = draw(st.permutations([f"{name}{k}" for k in range(len(universe))]))
    return check_basis(universe, vectors, name, names)


@st.composite
def universe_and_bases(draw, count, max_size=6):
    universe = draw(universes.filter(lambda u: len(u) <= max_size))
    return (universe, *(draw(bases(universe, name)) for name in "VW"[:count]))


def in_basis_order(basis, coords):
    return sorted(coords, key=basis.vector_names.index)


def paper_cmp(a, b):
    """Paper order on position lists, each highest position first: the larger
    set first; then at the first level where they differ, the smaller
    position first at even levels and the larger at odd ones."""
    if len(a) != len(b):
        return len(b) - len(a)
    for level, (p, q) in enumerate(zip(a, b)):
        if p != q:
            return p - q if level % 2 == 0 else q - p
    return 0


def paper_order_subsets(universe):
    """Every subset of the universe, as a frozenset of labels, in paper order."""
    n = len(universe)
    tops = [[p for p in reversed(range(n)) if (m >> p) & 1] for m in range(2 ** n)]
    return [frozenset(universe.elements[p] for p in t)
            for t in sorted(tops, key=cmp_to_key(paper_cmp))]


universes_to_8 = st.lists(
    st.text(alphabet="abcxyz019_'", min_size=1, max_size=3), min_size=1, max_size=8, unique=True
).map(Universe.of)


class TestGF2:
    @LAWS
    @given(universe_and_bases(2), st.booleans())
    def test_ket_table_rows_are_each_subset_once(self, uvw, paper_order):
        u, *others = uvw
        rows = ket_table([standard_basis(u), *others], paper_order=paper_order)
        subsets = []
        for row in rows:
            named = {ref_form(k) for k in row}
            assert len(named) == 1
            subsets += named
        assert len(set(subsets)) == len(subsets) == 2 ** len(u)
        if not paper_order:
            # Binary counting on the standard-basis subset.
            assert [sum(1 << u.position(x) for x in s) for s in subsets] == list(
                range(2 ** len(u))
            )

    @pytest.mark.parametrize("paper_order", [False, True], ids=["rows", "paper"])
    def test_ket_table_up_to_its_bound(self, paper_order):
        """Every n up to the default bound, on the standard basis and a
        triangular one, vector j holding labels j..n-1 (standard only at
        n = 1): each cell's vectors XOR back to its row's subset, and the rows
        count in binary or follow the paper order."""
        for n in range(1, DEFAULT_KET_TABLE_BOUND + 1):
            u = Universe.of(f"e{i}" for i in range(n))
            triangular = check_basis(u, [u.elements[j:] for j in range(n)], "T")
            rows = ket_table([standard_basis(u), triangular], paper_order=paper_order)
            expected = paper_order_subsets(u) if paper_order else [
                frozenset(x for p, x in enumerate(u.elements) if m >> p & 1)
                for m in range(2 ** n)
            ]
            assert [[ref_form(k) for k in row] for row in rows] == [[s, s] for s in expected]

    @LAWS
    @given(universe_and_bases(2), st.booleans())
    def test_cli_rows_agree_with_ket_table(self, uvw, paper_order):
        u, v, w = uvw
        text = f"universe U = {' '.join(u)}\n" + "".join(
            f"basis {b.name} on U = "
            + " ".join(f"{n}:{{{','.join(vec)}}}" for n, vec in zip(b.vector_names, b.vectors))
            + "\n"
            for b in (v, w)
        ) + "ket-table U V W\n"
        scenario = parse_scenario(text)
        expected = [
            [in_basis_order(k.basis, k.coords) for k in row]
            for row in ket_table([standard_basis(u), v, w], paper_order=paper_order)
        ]
        out, _ = run_scenario(scenario, fmt="json", paper_order=paper_order)
        assert json.loads(out)["rows"] == expected
        out, _ = run_scenario(scenario, fmt="text", paper_order=paper_order)
        cells = [line.split() for line in out.splitlines()[1:]]
        assert cells == [["{" + ",".join(c) + "}" for c in row] for row in expected]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_paper_order_rows_follow_the_oracle(self, data):
        u = data.draw(universes_to_8)
        v, w = data.draw(bases(u, "V")), data.draw(bases(u, "W"))
        rows = ket_table([standard_basis(u), v, w], paper_order=True)
        assert [{ref_form(k) for k in row} for row in rows] == [{s} for s in paper_order_subsets(u)]
        expected = [[in_basis_order(k.basis, k.coords) for k in row] for row in rows]
        scenario = parse_scenario(
            f"universe U = {' '.join(u)}\n" + "".join(
                f"basis {b.name} on U = " + " ".join(
                    f"{n}:{{{','.join(vec)}}}" for n, vec in zip(b.vector_names, b.vectors))
                + "\n" for b in (v, w)
            ) + "ket-table U V W\n"
        )
        cells = [["{" + ",".join(c) + "}" for c in row] for row in expected]
        out, _ = run_scenario(scenario, fmt="json", paper_order=True)
        assert json.loads(out)["rows"] == expected
        out, _ = run_scenario(scenario, fmt="csv", paper_order=True)
        assert list(csv.reader(io.StringIO(out)))[1:] == cells
        out, _ = run_scenario(scenario, fmt="text", paper_order=True)
        assert [line.split() for line in out.splitlines()[1:]] == cells

    @LAWS
    @given(universe_and_bases(2), st.data())
    def test_to_basis_round_trips(self, uvw, data):
        u, v, w = uvw
        subset = frozenset(data.draw(st.sets(st.sampled_from(u.elements))))
        s = standard_ket(u, subset)
        in_v = to_basis(s, v)
        assert ref_form(in_v) == subset
        assert to_basis(to_basis(in_v, w), v) == in_v
        assert to_basis(in_v, standard_basis(u)) == s

    @LAWS
    @given(universe_and_bases(1, max_size=5), st.data())
    def test_nonsingular_iff_injective(self, uv, data):
        u, v = uv
        n = len(u)
        columns = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
        m = LinearMap(v, v, tuple(columns))
        images = {
            apply_map(m, SetKet(v, frozenset(n for j, n in enumerate(v.vector_names)
                                             if (c >> j) & 1)))
            for c in range(2 ** n)
        }
        assert is_nonsingular(m) == (len(images) == 2 ** n)


# Digit tokens compare as numbers and come first; the rest compare as text.
VALUES = ["0", "2", "10", "x", "y", "xy"]


@st.composite
def attributes(draw, universe, name="f"):
    values = draw(st.lists(st.sampled_from(VALUES), min_size=len(universe),
                           max_size=len(universe)))
    return Attribute.from_mapping(name, universe, dict(zip(universe, values)))


@st.composite
def nonempty_subsets(draw, universe):
    return frozenset(draw(st.sets(st.sampled_from(universe.elements), min_size=1)))


@st.composite
def universe_attribute_state(draw):
    universe = draw(universes)
    return universe, draw(attributes(universe)), draw(nonempty_subsets(universe))


class TestMeasurement:
    @LAWS
    @given(universe_attribute_state())
    def test_probabilities_are_preimage_shares(self, ufs):
        u, f, subset = ufs
        dist = measure_distribution(f, standard_ket(u, subset))
        assert [(o.value, o.probability, o.collapsed.to_subset()) for o in dist.outcomes] == (
            ref.measure(ref_form(f), subset))
        assert sum(o.probability for o in dist.outcomes) == 1

    @LAWS
    @given(universe_attribute_state())
    def test_collapses_partition_the_state(self, ufs):
        u, f, subset = ufs
        outcomes = measure_distribution(f, standard_ket(u, subset)).outcomes
        collapses = [o.collapsed.to_subset() for o in outcomes]
        assert all(collapses)
        assert sum(len(c) for c in collapses) == len(frozenset().union(*collapses))
        assert frozenset().union(*collapses) == subset
        assert [(o.value, c) for o, c in zip(outcomes, collapses)] == [
            (r, c) for r, _, c in ref.measure(ref_form(f), subset)]

    @LAWS
    @given(st.data())
    def test_pythagoras_sides_are_equal(self, data):
        u, p = data.draw(universe_and(1))
        subset = data.draw(nonempty_subsets(u))
        left, right = pythagoras_check(p, standard_ket(u, subset))
        assert left == right == len(subset)
        assert right == sum(len(subset & set(b)) for b in p.blocks)

    @LAWS
    @given(st.data())
    def test_csca_final_distribution_is_uniform_on_singletons(self, data):
        u = data.draw(universes)
        fs = [data.draw(attributes(u, f"f{i}")) for i in range(data.draw(st.integers(1, 3)))]
        if not is_csca(fs):
            fs.append(Attribute.from_mapping("d", u, {x: str(i) for i, x in enumerate(u)}))
        subset = data.draw(nonempty_subsets(u))
        assert csca_final_distribution(fs, standard_ket(u, subset)) == {
            frozenset([x]): Fraction(1, len(subset)) for x in subset
        }

    @LAWS
    @given(universe_and_bases(1), st.data())
    def test_other_basis_measures_as_its_standard_form(self, uv, data):
        u, v = uv
        f = data.draw(attributes(u))
        coords = frozenset(data.draw(st.sets(st.sampled_from(v.vector_names), min_size=1)))
        s = SetKet(v, coords)
        standard = to_basis(s, standard_basis(u))
        assert measure_distribution(f, s).outcomes == measure_distribution(f, standard).outcomes

    @LAWS
    @given(st.data())
    def test_born_rule_reads_any_basis_as_its_standard_form(self, data):
        """Outcomes and singletons come back on standard_basis(U) whatever the
        state's basis is named; a basis whose vectors are not the singletons in
        universe order is refused."""
        u = data.draw(universes)
        singletons = [frozenset((x,)) for x in u]
        renamed = st.builds(
            lambda name, names: check_basis(u, singletons, name, names),
            st.sampled_from(["U", "B"]),
            st.one_of(st.just(u.elements), st.permutations(u.elements),
                      st.just([f"x{k}" for k in range(len(u))])),
        )
        basis = data.draw(st.one_of(renamed, bases(u, "V")))
        s = SetKet(basis, data.draw(st.sets(st.sampled_from(basis.vector_names), min_size=1)))
        standard = to_basis(s, standard_basis(u))
        if not basis.is_standard:
            with pytest.raises(BasisError):
                born_distribution(s)
            with pytest.raises(BasisError):
                ketbra_resolve(standard, s)
            return
        assert born_distribution(s).outcomes == born_distribution(standard).outcomes
        assert ketbra_resolve(standard, s) == ketbra_resolve(standard, standard)


# Numerically equal tokens in several spellings, other numbers, and text.
SPECTRUM_VALUES = ["1", "1.0", "01", "2", "-3", "1/2", "10", "x", "y", "xy"]


@st.composite
def universe_and_values(draw):
    universe = draw(universes)
    values = draw(st.lists(st.sampled_from(SPECTRUM_VALUES), min_size=len(universe),
                           max_size=len(universe)))
    return universe, values


class TestSpectrum:
    @LAWS
    @given(universe_and_values())
    def test_spectrum_is_the_preimages_in_value_order(self, uv):
        u, values = uv
        f = Attribute.from_mapping("f", u, dict(zip(u, values)))
        assert f.attained_values() == sorted(set(values), key=value_sort_key)
        for r in SPECTRUM_VALUES + ["unattained"]:
            assert f.preimage(r) == frozenset(x for x, v in zip(u, values) if v == r)
        spectrum = spectral_decompose(f)
        assert [r for r, _ in spectrum] == f.attained_values()
        supports = [projection.support for _, projection in spectrum]
        assert all(supports)
        assert sum(len(s) for s in supports) == len(u)
        assert frozenset().union(*supports) == frozenset(u)

    @LAWS
    @given(universe_and_values())
    def test_equal_attributes_are_equal_hash_alike_and_print_alike(self, uv):
        u, values = uv
        f = Attribute.from_mapping("f", u, dict(zip(u, values)))
        g = Attribute("f", Universe.of(list(u)), tuple(values))
        assert f == g
        assert hash(f) == hash(g)
        assert repr(f) == repr(g) == (
            f"Attribute(name='f', universe={u!r}, values={tuple(values)!r})"
        )


class TestDraws:
    @settings(max_examples=100, deadline=None)
    @given(universe_attribute_state(), st.integers(0, 2**40), st.integers(0, 8))
    def test_draw_is_first_outcome_past_the_hash(self, ufs, seed, step):
        u, f, subset = ufs
        drawn = measure_sample(f, standard_ket(u, subset), seed, step=step)
        assert (drawn.value, drawn.probability, drawn.post_state.to_subset()) == ref.sample(
            ref_form(f), subset, seed, step)
        assert drawn.pre_state.to_subset() == subset

    @settings(max_examples=100, deadline=None)
    @given(universe_attribute_state(), st.integers(0, 2**40), st.integers(0, 8))
    def test_a_step_records_its_draw_and_running_counts(self, ufs, seed, step):
        """A step re-derives by hand: its draw is reference.draw(seed, step),
        and the drawn outcome's running counts [cum_lo, cum_hi) hold it."""
        u, f, subset = ufs
        ones = Attribute("ones", u, tuple(map(str, range(len(u)))))
        s = standard_ket(u, subset)
        steps = [(measure_sample(f, s, seed, step=step), step)] + [
            (drawn, i) for i, drawn in enumerate(csca_measure([f, ones], s, seed).steps)]
        for drawn, i in steps:
            d, size = ref.draw(seed, i), len(drawn.pre_state.to_subset())
            assert drawn.draw == d
            assert drawn.cum_lo * 2**64 <= d * size < drawn.cum_hi * 2**64
            assert drawn.cum_hi - drawn.cum_lo == len(drawn.post_state.to_subset())

    @LAWS
    @given(st.data(), st.integers(0, 2**40), st.integers(0, 8))
    def test_a_step_measures_the_state_itself_on_any_standard_basis(self, data, seed, step):
        """pre_state is the state object on a standard basis, whatever it and
        its vectors are named; on any other basis it is the state's standard
        form, on basis "U"."""
        u = data.draw(universes)
        f = data.draw(attributes(u))
        singletons = [frozenset((x,)) for x in u]
        renamed = st.builds(
            lambda name, names: check_basis(u, singletons, name, names),
            st.sampled_from(["U", "V"]),
            st.one_of(st.just(u.elements), st.permutations(u.elements)),
        )
        basis = data.draw(st.one_of(renamed, bases(u, "V")))
        s = SetKet(basis, data.draw(st.sets(st.sampled_from(basis.vector_names), min_size=1)))
        pre = measure_sample(f, s, seed, step).pre_state
        if basis.is_standard:
            assert pre is s
        else:
            assert pre == to_basis(s, standard_basis(u)) and pre.basis.name == "U"


# Spellings of one number, underscores, exponents, ratios, and tokens
# outside the number grammar, such as "1__0", "1 /2" and "1/0", which are text.
VALUE_FORMS = ["1", "01", "1.0", "1_0", "10", "1e1", "10/1", "1/2", ".5", "5e-1", "-2.5e-1",
               "1__0", "1 /2", "1/0", "\u00b2", "x", "nan"]
# A discrete attribute in numerically equal spellings: only their text orders them.
ONES = ("1", "01", "+1", "1.0", "1e0", "1/1")


class TestValueForms:
    @LAWS
    @given(universes, st.data())
    def test_measure_sample_and_cascade_follow_the_reference_value_order(self, u, data):
        forms = st.lists(st.sampled_from(VALUE_FORMS), min_size=len(u), max_size=len(u))
        count = data.draw(st.integers(1, 3))
        fs = [Attribute(f"f{i}", u, tuple(data.draw(forms))) for i in range(count)]
        if not is_csca(fs):
            fs.append(Attribute("ones", u, ONES[:len(u)]))
        subset = data.draw(nonempty_subsets(u))
        s, seed = standard_ket(u, subset), data.draw(st.integers(0, 2**40))
        for step, f in enumerate(fs):
            outcomes = measure_distribution(f, s).outcomes
            assert [(o.value, o.probability, o.collapsed.to_subset()) for o in outcomes] == (
                ref.measure(ref_form(f), subset))
            drawn = measure_sample(f, s, seed, step=step)
            assert (drawn.value, drawn.probability, drawn.post_state.to_subset()) == ref.sample(
                ref_form(f), subset, seed, step)
        assert [(d.value, d.probability, d.post_state.to_subset())
                for d in csca_measure(fs, s, seed).steps] == ref.cascade(
                    [ref_form(f) for f in fs], subset, seed)


@st.composite
def scenario_files(draw):
    """A scenario text using every declaration kind, with `to` paths in {out}."""
    u, v = draw(universe_and_bases(1))
    f, g = draw(attributes(u, "f")), draw(attributes(u, "g"))
    p = draw(partitions(u))
    labels = list(u)
    cycle = draw(st.lists(st.sampled_from(labels), unique=True, max_size=3))

    def coords(pool):
        return "{" + ",".join(draw(st.sets(st.sampled_from(pool), min_size=1))) + "}"

    lines = [
        f"seed {draw(st.integers(0, 999))}",
        f"universe U = {' '.join(labels)}",
        "basis V on U = " + " ".join(
            f"{n}:{{{','.join(vec)}}}" for n, vec in zip(v.vector_names, v.vectors)),
        "attribute f on U = " + " ".join(f"{x}:{f(x)}" for x in labels),
        "attribute g on U = " + " ".join(f"{x}:{g(x)}" for x in labels),
        "attribute d on U = " + " ".join(f"{x}:{i}" for i, x in enumerate(labels)),
        f"partition P on U = {p}",
        f"group G on U = ({' '.join(cycle)})",
        f"state S on U = {coords(labels)}",
        f"state T in V = {coords(list(v.vector_names))}",
        "map M on U = " + " ".join("{" + ",".join(vec) + "}" for vec in v.vectors),
        "",
        "ket-table U V to {out}/table.txt", "distribution S", "measure f T",
        "entropy g", "join P f to {out}/join.txt", "orbits G", "evolve M S",
        "cascade f g d from S", "lattice U", "pythagoras P S",
    ]
    return "\n".join(lines) + "\n"


def run_cli(path, *flags):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(path), *flags])
    written = {p.name: p.read_bytes() for p in path.parent.glob("*.txt")}
    for p in path.parent.glob("*.txt"):
        p.unlink()
    return code, out.getvalue(), err.getvalue(), written


class TestCLIDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(scenario_files())
    def test_same_file_same_bytes(self, text):
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "s.qms"
            path.write_text(text.replace("{out}", out))
            for fmt in ("text", "json", "csv"):
                first = run_cli(path, "--format", fmt)
                assert first[0] == 0 and len(first[3]) == 2, first
                assert run_cli(path, "--format", fmt) == first

    @settings(max_examples=10, deadline=None)
    @given(scenario_files())
    def test_to_writes_the_bytes_stdout_would_print(self, text):
        """Every command kind, in every format, goes through one writer: alone
        in a file with `to x.txt`, a command writes its output and a line break,
        the very bytes it prints to stdout without `to`."""
        declarations, commands = text.split("\n\n")
        commands = [line.split(" to ")[0] for line in commands.splitlines()]
        assert sorted(line.split()[0] for line in commands) == sorted(COMMANDS)
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "s.qms"
            for command in commands:
                for fmt in FORMATS:
                    path.write_text(f"{declarations}\n\n{command}\n")
                    code, stdout, err, written = run_cli(path, "--format", fmt)
                    assert (code, err, written) == (0, "", {}), (command, fmt)
                    path.write_text(f"{declarations}\n\n{command} to {out}/x.txt\n")
                    assert run_cli(path, "--format", fmt) == (
                        0, "", "", {"x.txt": stdout.encode("utf-8")}), (command, fmt)

    @settings(max_examples=25, deadline=None)
    @given(scenario_files())
    def test_formats_carry_the_same_values(self, text):
        # The generated declarations, then one command per output key.
        declarations = text.split("\n\n")[0]
        commands = ("distribution S to d", "measure f T to m", "entropy g to e",
                    "join P f to j", "pythagoras P S to p")
        scenario = parse_scenario(declarations + "\n\n" + "\n".join(commands) + "\n")
        out = {fmt: run_scenario(scenario, fmt=fmt)[1] for fmt in ("text", "csv", "json")}
        for key in "dm":
            text_rows = [line.split() for line in out["text"][key].splitlines()[1:]]
            csv_rows = list(csv.reader(io.StringIO(out["csv"][key])))
            assert text_rows == csv_rows
            assert csv_rows[0] == ["value", "probability", "decimal", "collapsed"]
            record = json.loads(out["json"][key])
            assert [[o["value"], o["probability"], f"{float(Fraction(o['probability'])):.6f}",
                     sorted(o["collapsed"])] for o in record["outcomes"]] == [
                [value, p, decimal, sorted(collapsed[1:-1].split(",") if collapsed != "{}" else [])]
                for value, p, decimal, collapsed in csv_rows[1:]
            ]
        for fmt in ("text", "csv"):
            entropy = json.loads(out["json"]["e"])["entropy"]
            h = Fraction(entropy)
            assert out[fmt]["e"] == f"entropy g = {entropy} ({float(h):.6f})\n"
            partition = json.loads(out["json"]["j"])["partition"]
            assert out[fmt]["j"] == f"join P f = {partition}\n"
            record = json.loads(out["json"]["p"])
            head, _, tail = out[fmt]["p"].rstrip("\n").partition(": |S|^2 = ")
            left, terms, right = tail.split(" = ")
            assert head == "pythagoras P S"
            assert (int(left), int(right)) == (record["left"], record["right"])
            assert sum(int(t) for t in terms.split(" + ")) == record["right"]


ONES_5000 = "1" * 5000
# VALUE_FORMS and numbers with more digits than an int/str digit limit allows.
LONG_FORMS = VALUE_FORMS + [
    ONES_5000, ONES_5000 + "/3", "3/" + ONES_5000, "-" + "1" * 700 + ".5e-3", "7" * 700 + "/7"]
# Exponents at and past the decimal range, which tests/reference.py, building
# each number as a Fraction, does not read.
HUGE_EXPONENTS = ["1e9999999999999999999999", "9e999999999999999999", "-1e-999999999999999999"]
SETTINGS = [
    pytest.param("decimal", decimal.Context(prec=1, Emax=1, Emin=-1, traps=[]),
                 id="decimal-traps-nothing"),
    pytest.param("decimal", decimal.Context(traps=list(decimal.Context().traps)),
                 id="decimal-traps-everything"),
    pytest.param("digits", 640, id="digits-640"),
    pytest.param("digits", None, id="digits-default"),
    pytest.param("digits", 0, id="digits-unlimited"),
]


@contextmanager
def process_setting(kind, value):
    """Run the block under a decimal context or an int/str digit limit (None
    for the interpreter's default), and restore the setting after it."""
    if kind == "decimal":
        with decimal.localcontext(value):
            yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python sets no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits if value is None else value)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("kind, value", SETTINGS)
class TestProcessWideSettings:
    """Value order, and so every outcome list and draw, is the same under any
    decimal context or int/str digit limit the calling process sets."""

    def test_every_token_keeps_its_key(self, kind, value):
        tokens = LONG_FORMS + HUGE_EXPONENTS
        keys, order = [value_sort_key(t) for t in tokens], sorted(tokens, key=value_sort_key)
        with process_setting(kind, value):
            assert [value_sort_key(t) for t in tokens] == keys
            assert sorted(tokens, key=value_sort_key) == order
            assert [ref.value_order(t) for t in LONG_FORMS] == keys[:len(LONG_FORMS)]

    @LAWS
    @given(universes, st.data())
    def test_measure_sample_and_cascade_follow_the_reference(self, kind, value, u, data):
        forms = st.lists(st.sampled_from(LONG_FORMS), min_size=len(u), max_size=len(u))
        values, subset = data.draw(forms), data.draw(nonempty_subsets(u))
        s, seed = standard_ket(u, subset), data.draw(st.integers(0, 2**40))
        with process_setting(kind, value):
            fs = [Attribute("f", u, tuple(values)), Attribute("ones", u, ONES[:len(u)])]
            for step, f in enumerate(fs):
                outcomes = measure_distribution(f, s).outcomes
                assert [(o.value, o.probability, o.collapsed.to_subset()) for o in outcomes] == (
                    ref.measure(ref_form(f), subset))
                drawn = measure_sample(f, s, seed, step=step)
                assert (drawn.value, drawn.probability, drawn.post_state.to_subset()) == (
                    ref.sample(ref_form(f), subset, seed, step))
            assert [(d.value, d.probability, d.post_state.to_subset())
                    for d in csca_measure(fs, s, seed).steps] == ref.cascade(
                        [ref_form(f) for f in fs], subset, seed)

    def test_the_value_order_golden_files(self, kind, value, tmp_path):
        golden = Path(__file__).parent / "golden"
        path = tmp_path / "value_order.qms"
        path.write_bytes((golden / "value_order.qms").read_bytes())
        for fmt in FORMATS:
            for flags, name in (([], fmt), (["--paper-order"], f"paper.{fmt}")):
                with process_setting(kind, value):
                    code, out, err, _ = run_cli(path, "--format", fmt, *flags)
                want = (golden / f"value_order.{name}").read_text(encoding="utf-8")
                assert (code, out, err) == (0, want, "")

    def test_a_long_ratio_value_runs_alike(self, kind, value, tmp_path):
        path = tmp_path / "long.qms"
        path.write_text(f"seed 3\nuniverse U = a b c d\n"
                        f"attribute f on U = a:{ONES_5000}/3 b:1 c:x d:1e9999999999999999999999\n"
                        "state S on U = {a,b,c,d}\nmeasure f S\ncascade f from S\n")
        runs = [run_cli(path, "--format", fmt) for fmt in FORMATS]
        assert all(code == 0 and not err for code, _, err, _ in runs)
        with process_setting(kind, value):
            assert [run_cli(path, "--format", fmt) for fmt in FORMATS] == runs


def assert_public(k, names):
    """k equals, and hashes like, the public ket with these coordinate names,
    and its coordinate view and text agree with them."""
    for public in (SetKet(k.basis, k.coords), SetKet(k.basis, frozenset(names))):
        assert k == public and hash(k) == hash(public)
    assert type(k.coords) is frozenset and k.coords == frozenset(names)
    assert str(k) == "{" + ",".join(in_basis_order(k.basis, names)) + "}"


class TestLibraryKets:
    """Kets the library builds from masks equal the ones built from names."""

    def test_a_ket_is_its_basis_and_coordinate_mask(self):
        assert [f.name for f in fields(SetKet)] == ["basis", "mask"]

    @LAWS
    @given(universe_and_bases(2), st.data())
    def test_to_basis_and_add(self, uvw, data):
        u, v, w = uvw
        names = st.frozensets(st.sampled_from(v.vector_names))
        a, b = data.draw(names), data.draw(names)
        assert_public(add(SetKet(v, a), SetKet(v, b)), a ^ b)
        in_v = SetKet(v, a)
        subset = ref_form(in_v)
        coords = ref.coordinates(w.vectors, subset)
        assert_public(to_basis(in_v, w), {w.vector_names[j] for j in coords})
        assert_public(to_basis(in_v, standard_basis(u)), subset)

    @LAWS
    @given(universe_and_bases(2), st.data())
    def test_apply_map(self, uvw, data):
        u, v, w = uvw
        n = len(u)
        columns = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
        a = data.draw(st.frozensets(st.sampled_from(v.vector_names)))
        image = 0
        for name in a:
            image ^= columns[v.vector_names.index(name)]
        names = {x for j, x in enumerate(w.vector_names) if (image >> j) & 1}
        assert_public(apply_map(LinearMap(v, w, tuple(columns)), SetKet(v, a)), names)

    @LAWS
    @given(universe_and_bases(2, max_size=5))
    def test_ket_table(self, uvw):
        u, v, w = uvw
        bases = [standard_basis(u), v, w]
        for m, row in enumerate(ket_table(bases)):
            subset = frozenset(x for i, x in enumerate(u) if (m >> i) & 1)
            for b, k in zip(bases, row):
                coords = ref.coordinates(b.vectors, subset)
                assert_public(k, {b.vector_names[j] for j in coords})

    @LAWS
    @given(universe_attribute_state())
    def test_measurement_collapses(self, ufs):
        u, f, subset = ufs
        outcomes = measure_distribution(f, standard_ket(u, subset)).outcomes
        for o, (r, _, collapse) in zip(outcomes, ref.measure(ref_form(f), subset), strict=True):
            assert o.value == r
            assert_public(o.collapsed, collapse)

    @LAWS
    @given(universe_and_bases(1), st.data())
    def test_csca_finals_match_the_reference_cascade(self, uv, data):
        u, v = uv
        fs = [data.draw(attributes(u, f"f{i}")) for i in range(data.draw(st.integers(1, 3)))]
        if not is_csca(fs):
            fs.append(Attribute.from_mapping("d", u, {x: str(i) for i, x in enumerate(u)}))
        ket = SetKet(v, data.draw(st.frozensets(st.sampled_from(v.vector_names), min_size=1)))
        for s in (ket, standard_ket(u, ref_form(ket))):
            assert csca_final_distribution(fs, s) == ref.cascade_finals(
                [ref_form(f) for f in fs], ref_form(ket))


class TestLibraryDistributions:
    """Distributions the library builds unchecked pass the public constructor."""

    @LAWS
    @given(universe_and_bases(1), st.data())
    def test_measurement(self, uv, data):
        u, v = uv
        f = data.draw(attributes(u))
        ket = SetKet(v, data.draw(st.frozensets(st.sampled_from(v.vector_names), min_size=1)))
        for s in (ket, standard_ket(u, ref_form(ket))):
            d = measure_distribution(f, s)
            assert OutcomeDistribution(d.state, d.outcomes) == d

    @LAWS
    @given(universe_attribute_state())
    def test_born_rule(self, ufs):
        u, _, subset = ufs
        d = born_distribution(standard_ket(u, subset))
        assert OutcomeDistribution(d.state, d.outcomes) == d


@st.composite
def raw_basis_args(draw, universe):
    """(name, vector names, vectors) for the raw Basis constructor, each vector
    under its own name: most draws are independent vectors (~80 % build), the
    rest any label sets, which are mostly dependent."""
    n = len(universe)
    if draw(st.integers(0, 2)) < 2:
        vectors = draw(independent_vectors(universe))
    else:
        vectors = draw(st.lists(st.frozensets(st.sampled_from(universe.elements)),
                                min_size=n, max_size=n))
    names = draw(st.permutations([f"v{k}" for k in range(n)]))
    return draw(st.sampled_from("VW")), tuple(names), tuple(vectors)


@st.composite
def two_raw_basis_args(draw):
    """A universe and two argument triples that differ in at most one place."""
    universe = draw(universes)
    a, b = draw(raw_basis_args(universe)), draw(raw_basis_args(universe))
    k = draw(st.integers(0, 3))  # 3: no argument taken from b
    return universe, a, tuple(b[i] if i == k else a[i] for i in range(3))


@st.composite
def raw_partition_masks(draw, universe):
    """Any int masks for the raw SetPartition constructor: a partition's own
    masks, the same masks in any order, or a few ints of any kind."""
    n = len(universe)
    masks = draw(partitions(universe)).masks
    ints = st.integers(-1, 1 << n) | st.integers()
    return tuple(draw(st.just(masks) | st.permutations(masks)
                      | st.lists(ints, max_size=n + 1)))


def _built(constructor, *args):
    """constructor(*args), or None when it raises QmSetsError."""
    try:
        return constructor(*args)
    except QmSetsError:
        return None


class TestMaskBases:
    """A basis holds its vectors as masks; the label sets are a view of them.
    Each public constructor checks its value: a raw partition or basis is the
    one the label path (from_blocks, check_basis) builds, or is rejected."""

    def test_a_basis_is_its_masks(self):
        assert [f.name for f in fields(Basis)] == [
            "universe", "name", "vector_names", "masks", "positions"]

    @LAWS
    @given(st.data())
    def test_a_raw_partition_is_the_one_from_blocks_builds(self, data):
        u = data.draw(universes)
        masks = data.draw(raw_partition_masks(u))
        built = _built(SetPartition, u, masks)
        in_range = all(0 <= m < 1 << len(u) for m in masks)
        checked = in_range and _built(SetPartition.from_blocks, u, map(u.labels_of, masks))
        if checked and checked.masks == masks:
            assert_indistinguishable(built, checked)
        else:
            assert built is None

    @LAWS
    @given(st.data())
    def test_vectors_are_the_label_view_of_the_masks(self, data):
        u = data.draw(universes)
        name, names, vectors = data.draw(raw_basis_args(u))
        b = _built(Basis, u, name, names, [sorted(v, reverse=True) for v in vectors])
        assert b == _built(check_basis, u, vectors, name, names)
        assert (b is not None) == ref.is_basis(vectors, u.elements)
        if b is not None:
            assert b.vectors == vectors
            assert all(type(v) is frozenset for v in b.vectors)
            assert b.masks == tuple(sum(1 << u.elements.index(x) for x in v) for v in vectors)
            assert b.positions == {x: j for j, x in enumerate(names)}

    @LAWS
    @given(two_raw_basis_args())
    def test_equal_and_hash_alike_iff_the_public_fields_are_equal(self, uab):
        u, a, c = uab
        b1, b2 = _built(Basis, u, *a), _built(Basis, u, c[0], c[1], [list(v) for v in c[2]])
        if a == c:
            assert b1 == b2 and hash(b1) == hash(b2)
        elif b1 is not None and b2 is not None:
            assert b1 != b2

    @LAWS
    @given(st.data())
    def test_is_standard_and_bits_on_every_basis(self, data):
        """is_standard holds exactly when the masks are the single bits in
        order, and a ket's _bits label the symmetric difference of its vectors:
        on the raw and checked constructors, standard_basis under any name and
        the generated bases."""
        u = data.draw(universes)
        name, names, vectors = data.draw(raw_basis_args(u))
        built = [
            _built(Basis, u, name, names, vectors),
            _built(check_basis, u, vectors, name, names),
            _built(check_basis, u, vectors, name),
            Basis(u, name, names, [(x,) for x in u]),
            standard_basis(u, data.draw(st.text(max_size=3))),
            data.draw(bases(u, "V")),
        ]
        single_bits = tuple(1 << i for i in range(len(u)))
        for b in filter(None, built):
            assert b.is_standard == (b.masks == single_bits)
            for m in range(1 << len(u)):
                ket = SetKet(b, b.names_of(m))
                assert frozenset(u.labels_of(ket._bits())) == ref_form(ket)


@st.composite
def universe_and_attributes(draw):
    universe = draw(universes)
    count = draw(st.integers(1, 3))
    return universe, [draw(attributes(universe, f"f{i}")) for i in range(count)]


@st.composite
def group_and_state(draw):
    """A generated group and a state that is a union of its orbits about half the time."""
    universe = draw(universes)
    images = draw(st.lists(st.permutations(universe.elements), min_size=1, max_size=3))
    group = generate_group([Permutation(universe, tuple(im)) for im in images], universe)
    orbits = orbit_partition(group).block_sets()
    chosen = draw(st.lists(st.sampled_from(orbits), unique=True))
    subset = draw(st.one_of(st.just(frozenset().union(*chosen)),
                            st.frozensets(st.sampled_from(universe.elements))))
    return universe, group, subset, draw(bases(universe, "V"))


class TestMasksAgainstLabels:
    """The mask-level operations against label-level references."""

    @LAWS
    @given(universe_and_attributes())
    def test_join_attributes_is_the_iterated_join(self, ufs):
        u, fs = ufs
        joined = join_attributes(fs)
        # Each attribute's preimages are the collapses of measuring it on all of U.
        preimages = [frozenset(c for *_, c in ref.measure(ref_form(f), frozenset(u))) for f in fs]
        assert joined.partition == SetPartition.from_blocks(u, reduce(ref.join, preimages))
        assert joined.block_values == tuple(
            tuple(f(block[0]) for f in fs) for block in joined.partition.blocks)

    @LAWS
    @given(universe_attribute_state())
    def test_eigen_sets_are_the_label_combinations(self, ufs):
        u, f, _ = ufs
        for r in [*f.attained_values(), "unattained"]:
            support = [x for x in u if f(x) == r]
            subsets = [c for k in range(1, len(support) + 1) for c in combinations(support, k)]
            kets = eigen_sets(f, r)
            assert [k.to_subset() for k in kets] == [frozenset(c) for c in subsets]
            for k, c in zip(kets, subsets):
                assert k.basis == standard_basis(u)
                assert_public(k, c)

    @LAWS
    @given(universe_attribute_state(), st.frozensets(st.sampled_from(["a", "b", "?", "zz"])))
    def test_projection_is_the_label_intersection(self, ufs, extra):
        u, f, subset = ufs
        for r in f.attained_values():
            support = f.preimage(r) | extra
            for basis in (standard_basis(u), standard_basis(u, "S")):
                image = Projection(support)(SetKet(basis, subset))
                assert image.basis == standard_basis(u)
                assert_public(image, support & subset)

    @LAWS
    @given(group_and_state())
    def test_is_invariant_is_apply_set_inclusion(self, ugs):
        u, group, subset, v = ugs
        want = all(t.apply_set(subset) <= subset for t in group)
        for s in (standard_ket(u, subset), to_basis(standard_ket(u, subset), v)):
            assert is_invariant(group, s) == want
            assert is_invariant(TransformationGroup(u, group.elements), s) == want

    @LAWS
    @given(st.data())
    def test_inverse_is_the_reversed_mapping(self, data):
        u = data.draw(universes)
        t = Permutation(u, tuple(data.draw(st.permutations(u.elements))))
        want = Permutation.from_mapping(u, {v: x for x, v in zip(u, t.images)})
        assert t.inverse() == want and hash(t.inverse()) == hash(want)
        assert t.compose(t.inverse()) == Permutation.identity(u) == t.inverse().compose(t)


@st.composite
def universe_and_permutations(draw, min_size=1, max_size=3):
    universe = draw(universes.filter(lambda u: len(u) <= 5))
    images = draw(st.lists(st.permutations(universe.elements),
                           min_size=min_size, max_size=max_size))
    return universe, [Permutation(universe, tuple(im)) for im in images]


class TestPermutationsAgainstLabels:
    """The position-level permutation operations against label-level references."""

    @LAWS
    @given(universe_and_permutations(2, 2))
    def test_compose_is_dict_composition(self, ups):
        u, (t, s) = ups
        composed = ref.compose(ref_form(t), ref_form(s))
        want = Permutation.from_mapping(u, composed)
        assert t.compose(s) == want and hash(t.compose(s)) == hash(want)
        assert ref_form(t.compose(s)) == composed

    @LAWS
    @given(universe_and_permutations(1, 1))
    def test_images_rebuild_the_permutation(self, ups):
        u, (t,) = ups
        assert Permutation(u, t.images) == t and hash(Permutation(u, t.images)) == hash(t)
        assert Permutation(u, list(t.images)) == t
        assert [t(x) for x in u] == list(t.images)

    @LAWS
    @given(universe_and_permutations(1, 1))
    def test_cycle_string_round_trips(self, ups):
        u, (t,) = ups
        text = t.cycle_string()
        cycles = [c.split() for c in text[1:-1].split(")(")] if text != "()" else []
        assert Permutation.from_cycles(u, cycles) == t

    @LAWS
    @given(universe_and_permutations(0, 3), st.integers(0, 130))
    def test_closure_is_the_reference_closure_within_its_bound(self, ups, bound):
        u, gens = ups
        want = {tuple(t[x] for x in u) for t in ref.closure(u, [ref_form(g) for g in gens])}
        for b in (0, 1, bound, len(want) - 1, len(want)):
            if len(want) > b:
                with pytest.raises(BoundError, match=f"^group closure exceeded bound {b}$"):
                    generate_group(gens, u, bound=b)
            else:
                group = generate_group(gens, u, bound=b)
                assert {t.images for t in group} == want
                assert group.elements == {Permutation(u, im) for im in want}

    def test_axiom_witnesses_are_in_image_order(self):
        u = Universe.of("dcba")
        ab, abc, abcd = (Permutation.from_cycles(u, [c]) for c in ("ab", "abc", "abcd"))
        report = verify_group_axioms(TransformationGroup(u, frozenset([ab, abc, abcd])))
        by_images = [abcd, abc, ab]  # images (a d c b), (d a c b), (d c a b)
        assert by_images == sorted(by_images, key=lambda t: t.images)
        assert by_images != sorted(by_images, key=lambda t: t.targets)
        assert report.missing_inverses == (abcd, abc)
        assert report.closure_violations == tuple(
            (t, s) for t in by_images for s in by_images
            if t.compose(s) not in (ab, abc, abcd)
        )


def assert_indistinguishable(built, public):
    """A value the library built through its unchecked constructor is the
    public one: equality, hash, repr, field order and pickled form."""
    assert built == public and hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert list(vars(built)) == list(vars(public)) == [f.name for f in fields(public)]
    assert pickle.dumps(built) == pickle.dumps(public)
    again = pickle.loads(pickle.dumps(built))
    assert again == public and list(vars(again)) == list(vars(public))


class TestLibraryBuiltValues:
    """_of, _from_masks and _unchecked build what the public constructors build."""

    @LAWS
    @given(universe_and_bases(1), st.data())
    def test_kets_outcomes_and_distributions(self, uv, data):
        u, v = uv
        f = data.draw(attributes(u))
        names = data.draw(st.frozensets(st.sampled_from(v.vector_names), min_size=1))
        s = SetKet(v, names)
        assert_indistinguishable(SetKet._of(v, s.mask), s)
        for d in (measure_distribution(f, s), born_distribution(standard_ket(u, ref_form(s)))):
            public = tuple(Outcome(o.value, o.probability, o.collapsed) for o in d.outcomes)
            for o, p in zip(d.outcomes, public):
                assert_indistinguishable(o, p)
                assert_indistinguishable(Outcome._of(p.value, p.probability, p.collapsed), p)
            assert_indistinguishable(d, OutcomeDistribution(d.state, public))
            assert_indistinguishable(OutcomeDistribution._of(d.state, public),
                                     OutcomeDistribution(d.state, public))

    @LAWS
    @given(universe_and(1), st.randoms(use_true_random=False))
    def test_partitions(self, up, rng):
        u, p = up
        masks = list(p.masks)
        rng.shuffle(masks)
        assert_indistinguishable(SetPartition._from_masks(u, masks),
                                 SetPartition.from_blocks(u, p.blocks))
        assert_indistinguishable(join(p, p), p)
        assert_indistinguishable(meet(p, discrete(u)), p)

    @LAWS
    @given(universe_and(1), st.data())
    def test_partitions_built_from_canonical_masks(self, up, data):
        """enumerate_partitions, discrete, indiscrete and join_attributes
        write their masks through SetPartition._of, unsorted."""
        u, p = up
        (listed,) = [e for e in enumerate_partitions(u) if e == p]
        assert_indistinguishable(listed, p)
        assert_indistinguishable(discrete(u), SetPartition.from_blocks(u, [[x] for x in u]))
        assert_indistinguishable(indiscrete(u), SetPartition.from_blocks(u, [list(u)]))
        fs = [data.draw(attributes(u, f"f{i}")) for i in range(data.draw(st.integers(1, 3)))]
        joined = join_attributes(fs).partition
        assert_indistinguishable(joined, SetPartition.from_blocks(u, joined.blocks))

    @LAWS
    @given(universe_and_permutations(2, 2))
    def test_permutations(self, ups):
        u, (t, s) = ups
        assert_indistinguishable(Permutation._unchecked(u, t.targets), t)
        composed = t.compose(s)
        assert_indistinguishable(composed, Permutation(u, composed.images))
        assert_indistinguishable(t.inverse(), Permutation(u, t.inverse().images))


class TestAnswersThatAreOperands:
    """A measurement that splits nothing, and a join or meet of comparable
    partitions, answer with what they were given."""

    @LAWS
    @given(universe_attribute_state())
    def test_measuring_a_collapse_again_is_certain(self, ufs):
        u, f, subset = ufs
        for o in measure_distribution(f, standard_ket(u, subset)).outcomes:
            again = measure_distribution(f, o.collapsed)
            assert again.state == o.collapsed
            assert [(a.value, a.probability, a.collapsed) for a in again.outcomes] == [
                (o.value, 1, o.collapsed)
            ]

    @LAWS
    @given(st.data())
    def test_a_certain_measurement_builds_no_standard_basis(self, data):
        """An eigenstate on standard_basis(U) is its own collapse; the same
        subset in a renamed or non-standard basis collapses on "U"."""
        u = data.draw(universes)
        f = data.draw(attributes(u))
        r = data.draw(st.sampled_from(f.attained_values()))
        subset = data.draw(st.frozensets(st.sampled_from(sorted(f.preimage(r))), min_size=1))
        eigenstate = standard_ket(u, subset)
        singletons = [frozenset((x,)) for x in u]
        renamed = st.builds(
            lambda name, names: check_basis(u, singletons, name, names),
            st.sampled_from(["U", "B"]),
            st.permutations(u.elements),
        )
        other = to_basis(eigenstate, data.draw(st.one_of(renamed, bases(u, "V"))))
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return standard_basis(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calculus, "standard_basis", counted)
            (o,) = measure_distribution(f, eigenstate).outcomes
            assert built == []
            assert (o.value, o.probability, o.collapsed) == (r, 1, eigenstate)
            (o,) = measure_distribution(f, other).outcomes
        assert (o.value, o.probability, o.collapsed) == (r, 1, eigenstate)
        assert o.collapsed.basis.name == "U"

    @LAWS
    @given(st.data())
    def test_a_certain_measurement_collapses_onto_the_state_itself(self, data):
        """On standard_basis(U) the collapse is the state object, with
        probability 1; on a standard basis named "V" it is the state's
        standard form on "U", a new ket."""
        u = data.draw(universes)
        f = data.draw(attributes(u))
        r = data.draw(st.sampled_from(f.attained_values()))
        subset = data.draw(st.frozensets(st.sampled_from(sorted(f.preimage(r))), min_size=1))
        s = standard_ket(u, subset)
        (o,) = measure_distribution(f, s).outcomes
        assert (o.value, o.probability) == (r, 1) and o.collapsed is s
        on_v = SetKet(standard_basis(u, "V"), subset)
        (o,) = measure_distribution(f, on_v).outcomes
        assert (o.value, o.probability, o.collapsed) == (r, 1, s)
        assert o.collapsed is not on_v

    @LAWS
    @given(universe_and(2))
    def test_join_and_meet_of_comparable_partitions_are_operands(self, upq):
        u, p, q = upq
        fine_pq, coarse_pq = (SetPartition.from_blocks(u, op(ref_form(p), ref_form(q)))
                              for op in (ref.join, ref.meet))
        for fine, coarse in ((fine_pq, p), (p, coarse_pq)):
            for a, b in ((fine, coarse), (coarse, fine)):
                joined, met = join(a, b), meet(a, b)
                assert joined == fine and met == coarse
                assert any(joined is x for x in (a, b)) and any(met is x for x in (a, b))

    @LAWS
    @given(universe_and(2))
    def test_fewer_blocks_never_refine(self, upq):
        u, p, q = upq
        candidates = (p, q, *(SetPartition.from_blocks(u, op(ref_form(p), ref_form(q)))
                              for op in (ref.join, ref.meet)))
        for a in candidates:
            for b in candidates:
                assert refines(a, b) == ref.refines(ref_form(a), ref_form(b))
                if len(a.blocks) < len(b.blocks):
                    assert not refines(a, b)


@st.composite
def two_universes(draw):
    """A universe and another: the same labels in another order, one label
    more, or one fewer."""
    labels = draw(universes).elements
    others = [x for x in (labels[1:] + labels[:1], labels + ("?",), labels[:-1])
              if x and x != labels]
    return Universe(labels), Universe(draw(st.sampled_from(others)))


@st.composite
def operands(draw, universe):
    """One operand of each kind on `universe`, the ket in a drawn basis and
    possibly empty."""
    basis = draw(st.just(standard_basis(universe)) | bases(universe, "V"))
    subset = draw(st.frozensets(st.sampled_from(universe.elements)))
    return {
        "universe": universe,
        "partition": draw(partitions(universe)),
        "attribute": draw(attributes(universe)),
        "csca": [Attribute("c", universe, tuple(map(str, range(len(universe)))))],
        "basis": basis,
        "ket": to_basis(standard_ket(universe, subset), basis),
        "state": standard_ket(universe, draw(nonempty_subsets(universe))),
        "permutation": Permutation(universe, tuple(draw(st.permutations(universe.elements)))),
    }


# Each public op on two operands, called with a's operand first and b's second.
TWO_OPERAND_OPS = {
    "join": lambda a, b: join(a["partition"], b["partition"]),
    "meet": lambda a, b: meet(a["partition"], b["partition"]),
    "refines": lambda a, b: refines(a["partition"], b["partition"]),
    "DitSet.union": lambda a, b: dit(a["partition"]).union(dit(b["partition"])),
    "DitSet.issubset": lambda a, b: dit(a["partition"]).issubset(dit(b["partition"])),
    "bracket": lambda a, b: bracket(a["ket"], b["ket"]),
    "ketbra_resolve": lambda a, b: ketbra_resolve(a["ket"], b["ket"]),
    "add": lambda a, b: add(a["ket"], b["ket"]),
    "to_basis": lambda a, b: to_basis(a["ket"], b["basis"]),
    "ket_table": lambda a, b: ket_table([a["basis"], b["basis"]]),
    "LinearMap": lambda a, b: LinearMap(a["basis"], b["basis"],
                                        identity_map(a["basis"]).columns),
    "apply_map": lambda a, b: apply_map(identity_map(a["basis"]), b["ket"]),
    "evolve": lambda a, b: evolve(identity_map(a["basis"]), b["ket"]),
    "evolve with a singular map": lambda a, b: evolve(
        LinearMap(a["basis"], a["basis"], (0,) * len(a["universe"])), b["ket"]),
    "measure_distribution": lambda a, b: measure_distribution(a["attribute"], b["ket"]),
    "measure_sample": lambda a, b: measure_sample(a["attribute"], b["ket"], 1),
    "measurement_join": lambda a, b: measurement_join(a["attribute"], b["ket"]),
    "pythagoras_check": lambda a, b: pythagoras_check(a["partition"], b["ket"]),
    "csca_measure": lambda a, b: csca_measure(a["csca"], b["ket"], 1),
    "csca_final_distribution": lambda a, b: csca_final_distribution(a["csca"], b["ket"]),
    # A constant attribute is not a CSCA on two or more elements, and one of
    # the two universes always has that many.
    "csca_measure on a non-CSCA": lambda a, b: csca_measure(
        [Attribute("k", a["universe"], ("0",) * len(a["universe"]))], b["ket"], 1),
    "csca_final_distribution on a non-CSCA": lambda a, b: csca_final_distribution(
        [Attribute("k", a["universe"], ("0",) * len(a["universe"]))], b["ket"]),
    "compose": lambda a, b: a["permutation"].compose(b["permutation"]),
    "is_invariant": lambda a, b: is_invariant(generate_group([a["permutation"]]), b["ket"]),
    "join_attributes": lambda a, b: join_attributes([a["attribute"], b["attribute"]]),
    "generate_group": lambda a, b: generate_group([a["permutation"], b["permutation"]]),
    "generate_group on a universe": lambda a, b: generate_group([a["permutation"]],
                                                                b["universe"]),
    "OutcomeDistribution": lambda a, b: OutcomeDistribution(
        a["state"], born_distribution(b["state"]).outcomes),
}

# join_attributes names both attributes; generate_group compares its
# generators with a universe, not with another operand.
OWN_MESSAGE = {"join_attributes", "generate_group", "generate_group on a universe"}


class TestOneUniverse:
    """Operands on two universes are never compatible: each public two-operand
    op raises CompatibilityError, with require_same_universe's message, before
    any check of a ket's basis or emptiness."""

    @LAWS
    @given(st.data())
    def test_operands_on_two_universes_raise(self, data):
        u, v = data.draw(two_universes())
        a, b = data.draw(operands(u)), data.draw(operands(v))
        for op, call in TWO_OPERAND_OPS.items():
            message = None if op in OWN_MESSAGE else (
                "^operands are defined on different universes and are not compatible$")
            for x, y in ((a, b), (b, a)):
                with pytest.raises(CompatibilityError, match=message):
                    call(x, y)

    @LAWS
    @given(st.data())
    def test_labels_of_inverts_mask_of(self, data):
        """Also names_of and a basis's mask_of; a mask outside U is rejected."""
        u = data.draw(universes)
        b, n = data.draw(bases(u, "V")), len(u)
        for m in range(1 << n):
            labels, names = u.labels_of(m), b.names_of(m)
            assert labels == tuple(x for i, x in enumerate(u) if m >> i & 1)
            assert u.mask_of(labels) == m
            assert names == tuple(x for i, x in enumerate(b.vector_names) if m >> i & 1)
            assert b.mask_of(names) == m
        for m in (1 << n, -1):
            with pytest.raises(QmSetsError):
                u.labels_of(m)
            with pytest.raises(QmSetsError):
                b.names_of(m)
