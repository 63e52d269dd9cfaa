import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qmsets import (
    Attribute,
    CompatibilityError,
    QmSetsError,
    SetPartition,
    Universe,
    compatible,
    discrete,
    eigen_sets,
    enumerate_partitions,
    indiscrete,
    inverse_image_partition,
    is_csca,
    join_attributes,
)
from qmsets.attributes import value_sort_key

import reference as ref


@pytest.fixture
def f(u3):
    return Attribute.from_mapping("f", u3, {"a": "1", "b": "1", "c": "2"})


@pytest.fixture
def g(u3):
    return Attribute.from_mapping("g", u3, {"a": "x", "b": "y", "c": "y"})


def attr_from_partition(universe, partition, name="h"):
    mapping = {}
    for i, block in enumerate(partition.blocks):
        for label in block:
            mapping[label] = str(i)
    return Attribute.from_mapping(name, universe, mapping)


class TestAttribute:
    def test_totality_enforced(self, u3):
        with pytest.raises(QmSetsError):
            Attribute.from_mapping("p", u3, {"a": "1", "b": "2"})

    def test_rejects_stray_elements(self, u3):
        with pytest.raises(QmSetsError):
            Attribute.from_mapping("p", u3, {"a": "1", "b": "2", "c": "3", "d": "4"})

    def test_inverse_image(self, f, u3):
        assert inverse_image_partition(f) == SetPartition.from_blocks(u3, ["ab", "c"])

    def test_constant_gives_indiscrete(self, u3):
        const = Attribute.from_mapping("c", u3, {u: "0" for u in u3})
        assert inverse_image_partition(const) == indiscrete(u3)

    def test_injective_gives_discrete(self, u3):
        inj = Attribute.from_mapping("i", u3, {"a": "1", "b": "2", "c": "3"})
        assert inverse_image_partition(inj) == discrete(u3)

    def test_numeric_values_sort_numerically(self, u3):
        f = Attribute.from_mapping("f", u3, {"a": "10", "b": "2", "c": "10"})
        assert f.attained_values() == ["2", "10"]


class TestCompatibility:
    def test_same_universe(self, f, g):
        assert compatible(f, g)
        assert compatible(f, f)

    def test_different_universe(self, f):
        other = Universe.of(["a'", "b'", "c'"])
        h = Attribute.from_mapping("h", other, {u: "1" for u in other})
        assert not compatible(f, h)


class TestJoinAndCsca:
    def test_join_example(self, f, g, u3):
        joined = join_attributes([f, g])
        assert joined.partition == discrete(u3)
        assert joined.block_values == (("1", "x"), ("1", "y"), ("2", "y"))

    def test_single_attribute(self, f):
        assert join_attributes([f]).partition == inverse_image_partition(f)

    def test_join_idempotent(self, f):
        assert join_attributes([f, f]).partition == inverse_image_partition(f)

    def test_empty_rejected(self):
        with pytest.raises(QmSetsError):
            join_attributes([])

    def test_csca_examples(self, f, g, u3):
        assert is_csca([f, g])
        const = Attribute.from_mapping("c", u3, {u: "0" for u in u3})
        assert not is_csca([const])
        inj = Attribute.from_mapping("i", u3, {"a": "1", "b": "2", "c": "3"})
        assert is_csca([inj])

    def test_order_insensitive_exhaustive_u4(self, u4):
        parts = enumerate_partitions(u4)
        attrs = [attr_from_partition(u4, p, f"h{i}") for i, p in enumerate(parts[:6])]
        for combo in permutations(attrs, 3):
            base = join_attributes(list(combo)).partition
            for perm in permutations(combo):
                assert join_attributes(list(perm)).partition == base

    def test_pairing_equals_join_small(self, u4):
        parts = enumerate_partitions(u4)
        attrs = [attr_from_partition(u4, p, f"h{i}") for i, p in enumerate(parts)]
        for f1 in attrs[:8]:
            for f2 in attrs[:8]:
                paired = Attribute.from_mapping(
                    "pair", u4, {u: f"{f1(u)},{f2(u)}" for u in u4}
                )
                assert inverse_image_partition(paired) == join_attributes([f1, f2]).partition

    def test_csca_tuple_bijective(self, f, g, u3):
        joined = join_attributes([f, g])
        assert is_csca([f, g])
        assert len(set(joined.block_values)) == len(u3)


class TestEigenSets:
    def test_eigen_sets_example(self, f, u3):
        kets = eigen_sets(f, "1")
        subsets = {k.to_subset() for k in kets}
        assert subsets == {frozenset("a"), frozenset("b"), frozenset("ab")}
        assert len(kets) == 2 ** 2 - 1

    def test_singleton_eigenspace(self, f):
        assert [k.to_subset() for k in eigen_sets(f, "2")] == [frozenset("c")]

    def test_unattained_value_empty(self, f):
        assert eigen_sets(f, "3") == []

    def test_dimension_law(self, u4):
        for p in enumerate_partitions(u4):
            h = attr_from_partition(u4, p)
            assert sum(len(h.preimage(r)) for r in h.attained_values()) == len(u4)


class TestAcrossUniverses:
    def test_join_and_csca_name_both_attributes(self, f, g):
        other = Attribute.from_mapping("h", Universe.of("abd"), {"a": "1", "b": "2", "d": "3"})
        for call in (join_attributes, is_csca):
            with pytest.raises(CompatibilityError) as exc:
                call([f, g, other])
            assert str(exc.value) == "attributes 'f' and 'h' are incompatible"


class TestValueOrder:
    """Numeric tokens in exact numeric order, an exponent included, without
    building 10**exponent."""

    VALUES = ["1e100000000", "-1e100000000", "1e-100000000", "1/2", "2", "inf", "x"]

    def test_large_exponents_build_fast_and_sort_exactly(self):
        u = Universe.of([f"u{i}" for i in range(len(self.VALUES))])
        start = time.perf_counter()
        f = Attribute("f", u, tuple(self.VALUES))
        assert time.perf_counter() - start < 1
        # -10**1e8 < 10**-1e8 < 1/2 < 2 < 10**1e8, then inf and x as text
        assert f.attained_values() == [
            "-1e100000000", "1e-100000000", "1/2", "2", "1e100000000", "inf", "x"
        ]

    @given(st.lists(st.tuples(
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["0", "1", "25", "1_0", "007", "3.", ".5", "2.50"]),
        st.sampled_from(["", "/3", "/1_0", "e0", "E2", "e-3", "e+1", "e1_0", "e-20"]),
    ), min_size=1, max_size=8))
    def test_numeric_tokens_sort_as_fractions(self, parts):
        tokens = {"".join(p) for p in parts if not ("." in p[1] and "/" in p[2])}
        assert sorted(tokens, key=value_sort_key) == sorted(tokens, key=ref.value_order)

    @pytest.mark.parametrize("token", ["1e", "e5", "1/2e3", "1e5e5", "1e_5", "1e5_", "nan"])
    def test_malformed_exponent_tokens_are_text(self, token):
        assert value_sort_key(token) == (1, Fraction(0), token)

    # Python 3.10's Fraction() reads no underscore, and 3.12's reads spaces
    # around "/"; the grammar is 3.11's on every Python.
    @pytest.mark.parametrize("token, value", [
        ("1_0", 10), ("-1_0.2_5e1_0", Fraction("-10.25e10")), ("+1_0/4", Fraction(5, 2)),
        (" 1/2\t", Fraction(1, 2)), ("\u0661\u0662", 12), ("1.", 1), (".5E1", 5),
    ])
    def test_numbers_of_the_grammar(self, token, value):
        assert value_sort_key(token) == (0, value, token)

    @pytest.mark.parametrize("token", [
        "1__0", "_1", "1_", "1_.5", "1 /2", "1/ 2", "1/0", "\u00b2", "inf",
        "1e9999999999999999999999",
    ])
    def test_other_tokens_are_text(self, token):
        assert value_sort_key(token) == (1, Fraction(0), token)


class TestRawAttributeChecks:
    def test_values_must_be_a_tuple(self, u3):
        # A list could change after the preimages are built from it.
        with pytest.raises(QmSetsError) as exc:
            Attribute("g", u3, ["1", "2"])
        assert str(exc.value) == "attribute 'g' values must be a tuple"

    def test_one_value_per_element(self, u3):
        with pytest.raises(QmSetsError) as exc:
            Attribute("g", u3, ("1", "2"))
        assert str(exc.value) == "attribute 'g' must assign a value to every element"
