from fractions import Fraction

import pytest

from qmsets import (
    Attribute,
    BasisError,
    CompatibilityError,
    EmptyStateError,
    LinearMap,
    Outcome,
    OutcomeDistribution,
    QmSetsError,
    SetKet,
    SetPartition,
    Universe,
    born_distribution,
    bracket,
    check_basis,
    csca_final_distribution,
    csca_measure,
    enumerate_partitions,
    evolve,
    identity_map,
    inverse_image_partition,
    ketbra_resolve,
    measure_distribution,
    measure_sample,
    measurement_join,
    norm,
    permutation_map,
    pythagoras_check,
    spectral_decompose,
    standard_basis,
    standard_ket,
    to_basis,
)
from qmsets.gf2 import bits_to_subset
from qmsets.calculus import Projection


@pytest.fixture
def f(u3):
    return Attribute.from_mapping("f", u3, {"a": "1", "b": "1", "c": "2"})


@pytest.fixture
def g(u3):
    return Attribute.from_mapping("g", u3, {"a": "x", "b": "y", "c": "y"})


@pytest.fixture
def u_prime(u3):
    return check_basis(
        u3, [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}], "U'", ("a'", "b'", "c'")
    )


def nonempty_kets(universe):
    basis = standard_basis(universe)
    n = len(universe)
    return [SetKet(basis, bits_to_subset(universe, m)) for m in range(1, 1 << n)]


def attr_from_partition(universe, partition, name="h"):
    mapping = {}
    for i, block in enumerate(partition.blocks):
        for label in block:
            mapping[label] = str(i)
    return Attribute.from_mapping(name, universe, mapping)


class TestBracketAndNorm:
    def test_bracket_example(self, u3):
        assert bracket(standard_ket(u3, "ab"), standard_ket(u3, "bc")) == 1

    def test_self_bracket(self, u3):
        for s in nonempty_kets(u3):
            assert bracket(s, s) == len(s.to_subset())

    def test_singleton_delta(self, u3):
        for u in u3:
            for v in u3:
                expected = 1 if u == v else 0
                assert bracket(standard_ket(u3, u), standard_ket(u3, v)) == expected

    def test_nonstandard_basis_rejected(self, u3, u_prime):
        t = SetKet(u_prime, frozenset(["a'"]))
        with pytest.raises(BasisError):
            bracket(t, standard_ket(u3, "a"))

    def test_norm_of_paper_vector(self, u3, u_prime):
        # {a'} = {a,b} in the standard basis, so the squared norm is exactly 2.
        a_prime = to_basis(SetKet(u_prime, frozenset(["a'"])), standard_basis(u3))
        value, squared = norm(a_prime)
        assert squared == 2
        assert f"{value:.6f}" == "1.414214"

    def test_norm_zero_and_universe(self, u3):
        assert norm(standard_ket(u3, "")).squared == 0
        assert norm(standard_ket(u3, u3.elements)).squared == 3


class TestKetBra:
    def test_matches_bracket(self, u3):
        res = ketbra_resolve(standard_ket(u3, "ab"), standard_ket(u3, "bc"))
        assert res.value == 1

    def test_empty_state(self, u3):
        res = ketbra_resolve(standard_ket(u3, "ab"), standard_ket(u3, ""))
        assert res.value == 0
        assert res.resolution == ()

    def test_resolution_size(self, u3):
        for s in nonempty_kets(u3):
            res = ketbra_resolve(s, s)
            assert len(res.resolution) == len(s.to_subset())

    def test_agrees_with_bracket_all_pairs_u4(self, u4):
        kets = nonempty_kets(u4)
        for t in kets:
            for s in kets:
                assert ketbra_resolve(t, s).value == bracket(t, s)

    def test_operands_on_different_universes_rejected(self, u3):
        t = standard_ket(u3, "ab")
        s = standard_ket(Universe.of("abz"), "ab")
        with pytest.raises(QmSetsError, match="different universes"):
            ketbra_resolve(t, s)


class TestBorn:
    def test_two_element_state(self, u3):
        dist = born_distribution(standard_ket(u3, "ab"))
        assert [(o.value, o.probability) for o in dist.outcomes] == [
            ("a", Fraction(1, 2)), ("b", Fraction(1, 2)),
        ]

    def test_certainty(self, u3):
        dist = born_distribution(standard_ket(u3, "a"))
        assert dist.outcomes[0].probability == 1

    def test_empty_state_rejected(self, u3):
        with pytest.raises(EmptyStateError):
            born_distribution(standard_ket(u3, ""))

    def test_normalization_exhaustive_u5(self):
        u5 = Universe.of("abcde")
        for s in nonempty_kets(u5):
            dist = born_distribution(s)
            assert sum(o.probability for o in dist.outcomes) == 1


class TestSpectral:
    def test_projections(self, f, u3):
        pairs = spectral_decompose(f)
        assert [(r, set(p.support)) for r, p in pairs] == [
            ("1", {"a", "b"}), ("2", {"c"}),
        ]

    def test_injective_attribute(self, u3):
        inj = Attribute.from_mapping("i", u3, {"a": "1", "b": "2", "c": "3"})
        assert len(spectral_decompose(inj)) == 3

    def test_completeness_reconstructs_state_u5(self):
        u5 = Universe.of("abcde")
        for p in enumerate_partitions(u5):
            h = attr_from_partition(u5, p)
            pairs = spectral_decompose(h)
            for s in nonempty_kets(u5):
                pieces = [proj(s).to_subset() for _, proj in pairs]
                combined = frozenset()
                for piece in pieces:
                    combined ^= piece
                assert combined == s.to_subset()

    def test_orthogonality(self, f, u3):
        pairs = spectral_decompose(f)
        s = standard_ket(u3, u3.elements)
        for r1, p1 in pairs:
            for r2, p2 in pairs:
                if r1 != r2:
                    assert p1(p2(s)).to_subset() == frozenset()


class TestMeasurement:
    def test_distribution_example(self, f, u3):
        dist = measure_distribution(f, standard_ket(u3, u3.elements))
        assert [(o.value, o.probability, o.collapsed.to_subset()) for o in dist.outcomes] == [
            ("1", Fraction(2, 3), frozenset("ab")),
            ("2", Fraction(1, 3), frozenset("c")),
        ]

    def test_repeated_measurement(self, f, u3):
        dist = measure_distribution(f, standard_ket(u3, "ab"))
        assert len(dist.outcomes) == 1
        assert dist.outcomes[0].probability == 1
        assert dist.outcomes[0].collapsed.to_subset() == frozenset("ab")

    def test_injective_uniform(self, u3):
        inj = Attribute.from_mapping("i", u3, {"a": "1", "b": "2", "c": "3"})
        dist = measure_distribution(inj, standard_ket(u3, u3.elements))
        assert all(o.probability == Fraction(1, 3) for o in dist.outcomes)

    def test_nonstandard_basis_state_converted(self, f, u3, u_prime):
        # {a'} expands to {a,b}; measuring f on it must equal measuring {a,b}.
        s = SetKet(u_prime, frozenset(["a'"]))
        dist = measure_distribution(f, s)
        assert dist.outcomes[0].value == "1"
        assert dist.outcomes[0].probability == 1

    def test_empty_rejected(self, f, u3):
        with pytest.raises(EmptyStateError):
            measure_distribution(f, standard_ket(u3, ""))

    def test_collapse_idempotent_exhaustive_u5(self):
        u5 = Universe.of("abcde")
        parts = [p for p in enumerate_partitions(u5) if len(p.blocks) <= 3]
        for p in parts:
            h = attr_from_partition(u5, p)
            for s in nonempty_kets(u5):
                for outcome in measure_distribution(h, s).outcomes:
                    again = measure_distribution(h, outcome.collapsed)
                    assert len(again.outcomes) == 1
                    repeat = again.outcomes[0]
                    assert repeat.value == outcome.value
                    assert repeat.probability == 1
                    assert repeat.collapsed.to_subset() == outcome.collapsed.to_subset()


class TestSampling:
    def test_certain_outcome(self, f, u3):
        step = measure_sample(f, standard_ket(u3, "a"), seed=7)
        assert step.value == "1"
        assert step.probability == 1

    def test_determinism(self, f, u3):
        s = standard_ket(u3, u3.elements)
        a = measure_sample(f, s, seed=123)
        b = measure_sample(f, s, seed=123)
        assert a == b

    def test_empirical_frequency(self, f, u3):
        s = standard_ket(u3, u3.elements)
        hits = sum(
            measure_sample(f, s, seed=i).value == "1" for i in range(20000)
        )
        assert abs(hits / 20000 - 2 / 3) < 0.02

    @pytest.mark.parametrize("d, value, interval", [
        (2**63 - 1, "1", (0, 1)),  # u just under 1/2
        (2**63, "2", (1, 2)),  # u exactly 1/2, not below the first outcome's 1/2
    ])
    def test_a_draw_on_a_boundary_takes_the_next_outcome(self, f, u3, monkeypatch, d, value,
                                                          interval):
        """d * |S| < cum * 2**64 is strict: on a state split 1|1, d = 2**63
        puts u = 1/2 on the first outcome's upper end, so the second is drawn."""
        monkeypatch.setattr("qmsets.calculus._draw", lambda seed, step: d)
        step = measure_sample(f, standard_ket(u3, ["a", "c"]), seed=0)
        assert (step.value, step.probability) == (value, Fraction(1, 2))
        assert (step.draw, step.cum_lo, step.cum_hi) == (d, *interval)

    @pytest.mark.parametrize("d, value, interval", [
        (0, "1", (0, 1)), (2**64 - 1, "3", (2, 3)),
    ])
    def test_the_extreme_draws_take_the_first_and_last_outcomes(self, u3, monkeypatch, d, value,
                                                                interval):
        monkeypatch.setattr("qmsets.calculus._draw", lambda seed, step: d)
        h = Attribute("h", u3, ("1", "2", "3"))
        step = measure_sample(h, standard_ket(u3, u3.elements), seed=0)
        assert step.value == value
        assert step.post_state.to_subset() == frozenset("abc"[int(value) - 1])
        assert (step.draw, step.cum_lo, step.cum_hi) == (d, *interval)


class TestMeasurementJoin:
    def test_example(self, f, u3):
        mj = measurement_join(f, standard_ket(u3, "ab"))
        assert mj.possible == (("a", "b"),)
        assert mj.not_potential == (("c",),)

    def test_full_state_reduces_to_attribute_partition(self, f, u3):
        mj = measurement_join(f, standard_ket(u3, u3.elements))
        assert mj.partition == inverse_image_partition(f)
        assert mj.not_potential == ()

    def test_possible_blocks_match_collapses_u5(self):
        u5 = Universe.of("abcde")
        for p in enumerate_partitions(u5)[:20]:
            h = attr_from_partition(u5, p)
            for s in nonempty_kets(u5):
                mj = measurement_join(h, s)
                collapses = {
                    o.collapsed.to_subset()
                    for o in measure_distribution(h, s).outcomes
                }
                assert {frozenset(b) for b in mj.possible} == collapses

    def test_join_refines_state_partition_u4(self, u4):
        # Type 1 creates distinctions: the dit-set never shrinks.
        from qmsets import dit, refines
        from qmsets.calculus import measurement_join_partition

        for p in enumerate_partitions(u4)[:10]:
            h = attr_from_partition(u4, p)
            for s in nonempty_kets(u4):
                state_part = measurement_join_partition(s)
                joined = measurement_join(h, s).partition
                assert refines(joined, state_part)
                assert dit(state_part).pairs <= dit(joined).pairs


class TestPythagoras:
    def test_whole_universe(self, u3):
        p = SetPartition.from_blocks(u3, ["a", "bc"])
        assert pythagoras_check(p, standard_ket(u3, u3.elements)) == (3, 3)

    def test_example(self, u3):
        p = SetPartition.from_blocks(u3, ["a", "bc"])
        left, right = pythagoras_check(p, standard_ket(u3, "ab"))
        assert (left, right) == (2, 2)

    def test_exhaustive_u4(self, u4):
        for p in enumerate_partitions(u4):
            for s in nonempty_kets(u4):
                left, right = pythagoras_check(p, s)
                assert left == right


class TestCrossUniverse:
    def test_operands_on_different_universes_rejected(self, f, g, u3):
        s = standard_ket(Universe.of("ab"), "ab")
        with pytest.raises(CompatibilityError):
            measure_distribution(f, s)
        with pytest.raises(CompatibilityError):
            pythagoras_check(inverse_image_partition(f), s)
        with pytest.raises(CompatibilityError):
            csca_measure([f, g], s, seed=0)


class TestEvolve:
    def test_identity(self, u3):
        basis = standard_basis(u3)
        s = standard_ket(u3, "ac")
        assert evolve(identity_map(basis), s) == s

    def test_permutation(self, u3):
        basis = standard_basis(u3)
        m = permutation_map(basis, {"a": "b", "b": "a"})
        assert evolve(m, standard_ket(u3, "ac")).to_subset() == frozenset("bc")

    def test_singular_rejected(self, u3):
        basis = standard_basis(u3)
        m = LinearMap(basis, basis, (0b001, 0b001, 0b100))
        with pytest.raises(QmSetsError):
            evolve(m, standard_ket(u3, "a"))

    def test_preserves_distinctness_u4(self, u4):
        basis = standard_basis(u4)
        m = LinearMap(basis, basis, (0b0011, 0b0110, 0b1100, 0b1000))
        from qmsets import is_nonsingular

        assert is_nonsingular(m)
        kets = nonempty_kets(u4)
        for s in kets:
            for t in kets:
                if s != t:
                    assert evolve(m, s) != evolve(m, t)

    def test_preserves_block_sizes_u4(self, u4):
        # A non-singular image of a partition's blocks keeps the block sizes.
        basis = standard_basis(u4)
        m = permutation_map(basis, {"a": "b", "b": "c", "c": "d", "d": "a"})
        from qmsets import block_sizes

        for p in enumerate_partitions(u4):
            images = [
                evolve(m, standard_ket(u4, b)).to_subset() for b in p.blocks
            ]
            imaged = SetPartition.from_blocks(u4, images)
            assert block_sizes(imaged) == block_sizes(p)


class TestCsca:
    def test_cascade_terminates_in_singleton(self, f, g, u3):
        record = csca_measure([f, g], standard_ket(u3, u3.elements), seed=5)
        assert len(record.final_state.to_subset()) == 1
        assert len(record.value_tuple) == 2

    def test_same_seed_identical_record(self, f, g, u3):
        s = standard_ket(u3, u3.elements)
        assert csca_measure([f, g], s, 11) == csca_measure([f, g], s, 11)

    def test_path_probability_chain_rule(self, f, g, u3):
        record = csca_measure([f, g], standard_ket(u3, u3.elements), seed=5)
        assert record.path_probability == Fraction(1, 3)

    def test_non_csca_rejected(self, f, u3):
        with pytest.raises(QmSetsError):
            csca_measure([f], standard_ket(u3, u3.elements), seed=0)

    def test_final_distribution_uniform(self, f, g, u3):
        dist = csca_final_distribution([f, g], standard_ket(u3, u3.elements))
        assert dist == {
            frozenset(u): Fraction(1, 3) for u in u3
        }

    def test_order_invariant(self, f, g, u3):
        s = standard_ket(u3, u3.elements)
        assert csca_final_distribution([f, g], s) == csca_final_distribution([g, f], s)

    def test_marginal_reproduces_born(self, f, g, u3):
        s = standard_ket(u3, "ab")
        final = csca_final_distribution([f, g], s)
        born = born_distribution(s)
        for o in born.outcomes:
            assert final[frozenset([o.value])] == o.probability


def _distribution(universe, state, outcomes):
    """An OutcomeDistribution built through its public constructor from
    (value, probability, collapsed labels) triples."""
    return OutcomeDistribution(
        standard_ket(universe, state),
        tuple(Outcome(v, Fraction(p), standard_ket(universe, c)) for v, p, c in outcomes),
    )


class TestOutcomeDistributionChecks:
    def test_valid_distribution_builds(self, u3):
        dist = _distribution(u3, "abc", [("1", "2/3", "ab"), ("2", "1/3", "c")])
        assert dist.probability_of("1") == Fraction(2, 3)

    def test_probabilities_must_sum_to_one(self, u3):
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "ab", [("1", "1/2", "a")])
        assert str(exc.value) == "probabilities sum to 1/2, not 1"

    def test_negative_probability(self, u3):
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "ab", [("1", "3/2", "a"), ("2", "-1/2", "b")])
        assert str(exc.value) == "negative probability"

    def test_empty_collapse(self, u3):
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "a", [("1", "1", "")])
        assert str(exc.value) == "empty collapsed state"

    def test_overlapping_collapses(self, u3):
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "ab", [("1", "1/2", "a"), ("2", "1/2", "ab")])
        assert str(exc.value) == "collapsed states overlap"

    @pytest.mark.parametrize("collapses", [["a"], ["a", "c"]])
    def test_collapses_must_cover_the_state(self, u3, collapses):
        # One collapse leaves b out; the other also reaches c outside the state.
        share = str(Fraction(1, len(collapses)))
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "ab", [(str(i), share, c) for i, c in enumerate(collapses)])
        assert str(exc.value) == "collapsed states do not partition the state"

    def test_a_value_names_one_outcome(self, u3):
        with pytest.raises(QmSetsError) as exc:
            _distribution(u3, "ab", [("1", "1/2", "a"), ("1", "1/2", "b")])
        assert str(exc.value) == "outcome value '1' appears twice"

    def test_collapses_live_on_the_state_universe(self, u3):
        elsewhere = standard_ket(Universe.of("xyz"), "xy")
        with pytest.raises(CompatibilityError):
            OutcomeDistribution(standard_ket(u3, "ab"), (Outcome("1", Fraction(1), elsewhere),))

    def test_outcomes_must_be_a_tuple(self, u3):
        # A list could grow after its probabilities were summed.
        with pytest.raises(QmSetsError) as exc:
            OutcomeDistribution(standard_ket(u3, "ab"), [])
        assert str(exc.value) == "distribution outcomes must be a tuple"

    def test_a_value_without_an_outcome_has_probability_zero(self, u3):
        dist = _distribution(u3, "abc", [("1", "2/3", "ab"), ("2", "1/3", "c")])
        assert dist.probability_of("3") == 0


class TestLibraryDistributions:
    """Distributions the library builds are frozen values, like public ones."""

    def test_measured_distribution_is_a_hashable_tuple(self, f, u3, u_prime):
        for s in (standard_ket(u3, "abc"), SetKet(u_prime, {"a'", "b'"})):
            d = measure_distribution(f, s)
            assert type(d.outcomes) is tuple
            assert hash(d) == hash(OutcomeDistribution(d.state, d.outcomes))

    def test_born_distribution_is_a_hashable_tuple(self, u3):
        d = born_distribution(standard_ket(u3, "ac"))
        assert type(d.outcomes) is tuple
        assert hash(d) == hash(OutcomeDistribution(d.state, d.outcomes))


class TestCscaErrors:
    def test_final_distribution_rejects_a_non_csca(self, f, u3):
        with pytest.raises(QmSetsError) as exc:
            csca_final_distribution([f], standard_ket(u3, "ab"))
        assert str(exc.value) == "attribute set is not a CSCA"

    def test_final_distribution_rejects_the_empty_state(self, f, g, u3, u_prime):
        for s in (standard_ket(u3, ""), SetKet(u_prime, ())):
            with pytest.raises(EmptyStateError) as exc:
                csca_final_distribution([f, g], s)
            assert str(exc.value) == "cannot measure the empty state"

    def test_cascade_rejects_the_empty_state(self, f, g, u3, u_prime):
        for s in (standard_ket(u3, ""), SetKet(u_prime, ())):
            with pytest.raises(EmptyStateError) as exc:
                csca_measure([f, g], s, seed=0)
            assert str(exc.value) == "cannot measure the empty state"


class TestMaskProjectionAndJoin:
    def test_measurement_join_across_universes_raises(self, f):
        with pytest.raises(CompatibilityError):
            measurement_join(f, standard_ket(Universe.of("ab"), "ab"))

    def test_projection_ignores_support_labels_outside_the_universe(self, u3):
        projected = Projection(frozenset({"a", "c", "z", "?"}))(standard_ket(u3, "abc"))
        assert projected == standard_ket(u3, "ac")
        assert Projection(frozenset({"z"}))(standard_ket(u3, "ab")) == standard_ket(u3, "")
