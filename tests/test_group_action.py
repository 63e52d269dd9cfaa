from itertools import combinations

import pytest

from qmsets import (
    CompatibilityError,
    GroupError,
    Permutation,
    QmSetsError,
    SetPartition,
    TransformationGroup,
    Universe,
    discrete,
    generate_group,
    indiscrete,
    is_invariant,
    orbit_partition,
    standard_ket,
    verify_group_axioms,
)

import reference as ref


def perm(universe, *cycles):
    return Permutation.from_cycles(universe, cycles)


class TestPermutation:
    def test_rejects_non_bijection(self, u3):
        with pytest.raises(QmSetsError):
            Permutation(u3, ("a", "a", "c"))

    def test_cycle_parsing(self, u3):
        t = perm(u3, "ab")
        assert t("a") == "b" and t("b") == "a" and t("c") == "c"

    def test_compose_left_to_right(self, u3):
        t = perm(u3, "ab")
        s = perm(u3, "bc")
        # apply t first: a->b, then s: b->c
        assert t.compose(s)("a") == "c"

    def test_inverse(self, u3):
        t = perm(u3, "abc")
        assert t.compose(t.inverse()) == Permutation.identity(u3)

    def test_cycle_string_round_trip(self, u3):
        t = perm(u3, "abc")
        assert t.cycle_string() == "(a b c)"
        assert Permutation.identity(u3).cycle_string() == "()"


class TestGenerateGroup:
    def test_empty_generators(self, u3):
        g = generate_group([], u3)
        assert g.elements == frozenset([Permutation.identity(u3)])

    def test_three_cycle(self, u3):
        g = generate_group([perm(u3, "abc")])
        assert len(g) == 3

    def test_symmetric_group(self, u3):
        g = generate_group([perm(u3, "ab"), perm(u3, "abc")])
        assert len(g) == 6

    def test_bound(self, u4):
        with pytest.raises(QmSetsError):
            generate_group([perm(u4, "ab"), perm(u4, "abcd")], bound=10)

    def test_closure_outputs_are_groups(self, u4):
        for gens in combinations([perm(u4, "ab"), perm(u4, "abcd"), perm(u4, "cd")], 2):
            g = generate_group(list(gens))
            assert verify_group_axioms(g).ok


class TestAxiomReport:
    def test_identity_only(self, u3):
        g = TransformationGroup(u3, frozenset([Permutation.identity(u3)]))
        assert verify_group_axioms(g).ok

    def test_closure_violation_with_witness(self, u3):
        t = perm(u3, "abc")
        g = TransformationGroup(u3, frozenset([Permutation.identity(u3), t]))
        report = verify_group_axioms(g)
        assert not report.ok
        assert (t, t) in report.closure_violations
        assert t in report.missing_inverses

    def test_missing_identity(self, u3):
        g = TransformationGroup(u3, frozenset([perm(u3, "ab")]))
        report = verify_group_axioms(g)
        assert not report.has_identity


class TestOrbits:
    def test_identity_group(self, u3):
        assert orbit_partition(generate_group([], u3)) == discrete(u3)

    def test_three_cycle(self, u3):
        assert orbit_partition(generate_group([perm(u3, "abc")])) == indiscrete(u3)

    def test_transposition(self, u3):
        g = generate_group([perm(u3, "ab")])
        assert orbit_partition(g) == SetPartition.from_blocks(u3, ["ab", "c"])

    @pytest.mark.parametrize(
        "cycles",
        [
            [(), ("abc",)],  # no inverse
            [(), ("ab",), ("bc",)],  # identity and inverses, but not closed
            [("ab",)],  # no identity
            [],  # empty set
        ],
        ids=["no-inverse", "not-closed", "no-identity", "empty"],
    )
    def test_rejects_non_group(self, u3, cycles):
        broken = TransformationGroup(
            u3, frozenset(perm(u3, *c) for c in cycles)
        )
        with pytest.raises(GroupError):
            orbit_partition(broken)

    def test_orbits_match_the_reference(self):
        u5 = Universe.of("abcde")
        catalog = [
            perm(u5, "ab"), perm(u5, "abc"), perm(u5, "de"),
            perm(u5, "abcde"), perm(u5, "ab", "cd"),
        ]
        for gens in combinations(catalog, 2):
            g = generate_group(list(gens))
            closure = ref.closure(u5, [{u: t(u) for u in u5} for t in gens])
            assert set(orbit_partition(g).block_sets()) == ref.orbits(u5, closure)

    def test_orbit_stabilizer(self):
        u4 = Universe.of("abcd")
        g = generate_group([perm(u4, "ab"), perm(u4, "abcd")])
        part = orbit_partition(g)
        for block in part.blocks:
            for u in block:
                stabilizer = [t for t in g if t(u) == u]
                assert len(stabilizer) * len(block) == len(g)


class TestInvariance:
    def test_orbit_blocks_invariant_and_minimal(self):
        u5 = Universe.of("abcde")
        g = generate_group([perm(u5, "abc"), perm(u5, "de")])
        part = orbit_partition(g)
        for block in part.blocks:
            assert is_invariant(g, standard_ket(u5, block))
            for k in range(1, len(block)):
                for proper in combinations(block, k):
                    assert not is_invariant(g, standard_ket(u5, proper))

    def test_singleton_not_invariant(self, u3):
        g = generate_group([perm(u3, "ab")])
        assert not is_invariant(g, standard_ket(u3, "a"))

    def test_whole_universe_invariant(self, u3):
        g = generate_group([perm(u3, "ab"), perm(u3, "abc")])
        assert is_invariant(g, standard_ket(u3, u3.elements))


class TestLabelsOutsideTheUniverse:
    @pytest.mark.parametrize("mapping", [{"z": "a"}, {"a": "z"}, {"z": "z"}])
    def test_from_mapping_names_the_label(self, u3, mapping):
        with pytest.raises(QmSetsError, match="^label 'z' is not in the universe$"):
            Permutation.from_mapping(u3, mapping)

    @pytest.mark.parametrize("cycles", [[("z",), ("a", "b")], [("a", "z")]])
    def test_from_cycles_names_the_label(self, u3, cycles):
        with pytest.raises(QmSetsError, match="^label 'z' is not in the universe$"):
            Permutation.from_cycles(u3, cycles)

    def test_label_repeated_within_a_cycle(self, u3):
        with pytest.raises(QmSetsError, match="^label 'a' repeated within a cycle$"):
            Permutation.from_cycles(u3, [("a", "b", "a")])


class TestInvariantAcrossUniverses:
    def test_group_and_state_on_different_universes_raise(self, u3):
        g = generate_group([perm(u3, "ab")])
        message = "^operands are defined on different universes and are not compatible$"
        with pytest.raises(CompatibilityError, match=message):
            is_invariant(g, standard_ket(Universe.of("ab"), "ab"))


class TestImageInput:
    @pytest.mark.parametrize("kind", [tuple, list, "".join], ids=["tuple", "list", "str"])
    @pytest.mark.parametrize("images, cycles", [("bac", ["ab"]), ("abc", [])])
    def test_equal_and_hash_alike_whatever_the_sequence(self, u3, kind, images, cycles):
        t, want = Permutation(u3, kind(images)), perm(u3, *cycles)
        assert t == want and hash(t) == hash(want)
        assert t.images == tuple(images)


class TestCycleAndGeneratorErrors:
    def test_label_repeated_across_cycles(self, u3):
        with pytest.raises(QmSetsError) as exc:
            perm(u3, "ab", "bc")
        assert str(exc.value) == "label 'b' repeated across cycles"

    def test_no_generators_and_no_universe(self):
        with pytest.raises(QmSetsError) as exc:
            generate_group([])
        assert str(exc.value) == "generate_group needs a universe when generators are empty"
