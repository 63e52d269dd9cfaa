from fractions import Fraction

import pytest

from qmsets import (
    CompatibilityError,
    DitSet,
    QmSetsError,
    SetPartition,
    Universe,
    block_sizes,
    discrete,
    dit,
    enumerate_partitions,
    indiscrete,
    join,
    logical_entropy,
    meet,
    refines,
)

import reference as ref


def part(universe, *blocks):
    return SetPartition.from_blocks(universe, blocks)


class TestConstruction:
    def test_size_is_the_label_count(self):
        assert Universe.of("abcd").size == len(Universe.of("abcd")) == 4

    def test_universe_rejects_duplicates(self):
        with pytest.raises(QmSetsError):
            Universe.of("aba")

    def test_universe_rejects_empty(self):
        with pytest.raises(QmSetsError):
            Universe.of("")

    def test_blocks_canonical_order(self, u3):
        p = SetPartition.from_blocks(u3, [["c", "b"], ["a"]])
        assert p.blocks == (("a",), ("b", "c"))
        assert str(p) == "{a}|{b,c}"

    def test_validator_rejects_overlap(self, u3):
        with pytest.raises(QmSetsError):
            part(u3, "ab", "bc")

    def test_validator_rejects_partial_cover(self, u3):
        with pytest.raises(QmSetsError):
            part(u3, "ab")

    def test_validator_rejects_empty_block(self, u3):
        with pytest.raises(QmSetsError):
            part(u3, "abc", "")

    def test_parse_round_trip(self, u3):
        p = part(u3, "a", "bc")
        assert SetPartition.parse(u3, str(p)) == p

    @pytest.mark.parametrize("masks, message", [
        ((3, 3), "blocks are not disjoint at 'a'"),
        ((6, 1), "blocks are not ordered by least bit"),
        ((1, 0, 6), "partition has an empty block"),
        ((1, 2), "blocks do not cover the universe"),
        ((1, 14), "block mask 14 has bits outside the universe"),
        ((-1,), "block mask -1 has bits outside the universe"),
        ([1, 6], "partition masks must be a tuple"),
    ])
    def test_raw_constructor_rejects_what_is_not_a_canonical_partition(self, u3, masks, message):
        with pytest.raises(QmSetsError) as exc:
            SetPartition(u3, masks)
        assert str(exc.value) == message


class TestTopAndBottom:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_indiscrete_single_block(self, n):
        u = Universe.of(f"e{i}" for i in range(n))
        assert len(indiscrete(u).blocks) == 1

    def test_indiscrete_examples(self, u3):
        assert indiscrete(u3) == part(u3, "abc")
        u1 = Universe.of("a")
        assert indiscrete(u1) == discrete(u1) == part(u1, "a")

    def test_discrete_examples(self, u3):
        assert discrete(u3) == part(u3, "a", "b", "c")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_discrete_dit_count(self, n):
        u = Universe.of(f"e{i}" for i in range(n))
        assert len(dit(discrete(u))) == n * (n - 1)


class TestJoin:
    def test_join_example(self, u3):
        p = part(u3, "a", "bc")
        q = part(u3, "ab", "c")
        assert join(p, q) == discrete(u3)

    def test_join_universe_mismatch(self, u3):
        other = Universe.of("xyz")
        with pytest.raises(CompatibilityError):
            join(indiscrete(u3), indiscrete(other))

    def test_join_lattice_laws_exhaustive_u4(self, u4):
        parts = enumerate_partitions(u4)
        bot = indiscrete(u4)
        for p in parts:
            assert join(p, bot) == p
            assert join(p, p) == p
            for q in parts:
                assert join(p, q) == join(q, p)
                assert refines(join(p, q), p) and refines(join(p, q), q)

    def test_join_associative_u3(self, u3):
        parts = enumerate_partitions(u3)
        for p in parts:
            for q in parts:
                for r in parts:
                    assert join(join(p, q), r) == join(p, join(q, r))


class TestDit:
    def test_dit_example(self, u3):
        p = part(u3, "a", "bc")
        assert p and dit(p).pairs == {("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")}

    def test_dit_indiscrete_empty(self, u4):
        assert len(dit(indiscrete(u4))) == 0

    def test_dit_matches_brute_force_u4(self, u4):
        for p in enumerate_partitions(u4):
            assert dit(p).pairs == ref.dit(frozenset(p.block_sets()), u4)

    def test_dit_join_is_union_exhaustive_u4(self, u4):
        parts = enumerate_partitions(u4)
        for p in parts:
            for q in parts:
                assert dit(join(p, q)).pairs == dit(p).pairs | dit(q).pairs

    @pytest.mark.parametrize("value", ["abc", None, (1, 2, 4)], ids=["text", "none", "masks"])
    def test_a_dit_set_is_built_from_a_partition(self, value):
        with pytest.raises(QmSetsError) as exc:
            DitSet(value)
        assert str(exc.value) == "a dit-set is built from a SetPartition"

    def test_complement_is_equivalence_u5(self):
        u5 = Universe.of("abcde")
        for p in enumerate_partitions(u5):
            ditset = dit(p).pairs
            indits = {
                (u, v)
                for u in u5
                for v in u5
                if (u, v) not in ditset
            }
            # reflexive, symmetric, transitive
            assert all((u, u) in indits for u in u5)
            assert all((v, u) in indits for (u, v) in indits)
            assert all(
                (u, w) in indits
                for (u, v) in indits
                for (x, w) in indits
                if v == x
            )


class TestRefinesAndEntropy:
    def test_discrete_refines_all(self, u4):
        for p in enumerate_partitions(u4):
            assert refines(discrete(u4), p)

    def test_refines_counterexample(self, u3):
        assert not refines(part(u3, "a", "bc"), part(u3, "ab", "c"))

    def test_refines_iff_dit_inclusion_u4(self, u4):
        parts = enumerate_partitions(u4)
        for p in parts:
            for q in parts:
                assert refines(p, q) == (dit(q).pairs <= dit(p).pairs)

    def test_entropy_examples(self, u3):
        assert logical_entropy(indiscrete(u3)) == 0
        assert logical_entropy(part(u3, "a", "bc")) == Fraction(4, 9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_entropy_bounds(self, n):
        u = Universe.of(f"e{i}" for i in range(n))
        top = Fraction(n * (n - 1), n * n)
        assert logical_entropy(discrete(u)) == top == 1 - Fraction(1, n)
        for p in enumerate_partitions(u):
            assert 0 <= logical_entropy(p) <= top


class TestEnumerationAndSizes:
    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_bell_counts(self, n, bell):
        u = Universe.of(f"e{i}" for i in range(n))
        parts = enumerate_partitions(u)
        assert len(parts) == bell
        assert len(set(parts)) == bell  # each exactly once

    def test_bound_enforced(self):
        u = Universe.of(f"e{i}" for i in range(7))
        with pytest.raises(QmSetsError):
            enumerate_partitions(u)
        assert len(enumerate_partitions(u, bound=7)) == 877

    def test_block_sizes(self, u3, u4):
        assert block_sizes(SetPartition.from_blocks(u3, ["a", "bc"])) == [2, 1]
        assert block_sizes(indiscrete(u4)) == [4]


class TestMeet:
    def test_meet_is_coarsest_common_coarsening_u4(self, u4):
        parts = enumerate_partitions(u4)
        for p in parts:
            for q in parts:
                m = meet(p, q)
                assert refines(p, m) and refines(q, m)
                for r in parts:
                    if refines(p, r) and refines(q, r):
                        assert refines(m, r)


class TestRawUniverseChecks:
    def test_elements_must_be_a_tuple(self):
        # A list could change after the label positions are built from it.
        with pytest.raises(QmSetsError) as exc:
            Universe([])
        assert str(exc.value) == "universe elements must be a tuple"

    def test_block_of_a_label_outside_the_universe(self, u3):
        with pytest.raises(QmSetsError) as exc:
            discrete(u3).block_of("z")
        assert str(exc.value) == "label 'z' not in any block"
