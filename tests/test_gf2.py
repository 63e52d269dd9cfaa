from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from qmsets import (
    Basis,
    BasisError,
    LinearMap,
    QmSetsError,
    SetKet,
    Universe,
    add,
    apply_map,
    check_basis,
    identity_map,
    is_nonsingular,
    ket_table,
    permutation_map,
    standard_basis,
    standard_ket,
    to_basis,
)
from qmsets.gf2 import bits_to_subset, gf2_solve


@pytest.fixture
def u_basis(u3):
    return standard_basis(u3)


@pytest.fixture
def u_prime(u3):
    return check_basis(
        u3, [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}], "U'", ("a'", "b'", "c'")
    )


@pytest.fixture
def u_double_prime(u3):
    return check_basis(
        u3, [{"a"}, {"a", "b"}, {"a", "c"}], "U''", ("a''", "b''", "c''")
    )


def all_kets(universe):
    basis = standard_basis(universe)
    n = len(universe)
    return [SetKet(basis, bits_to_subset(universe, m)) for m in range(1 << n)]


class TestAdd:
    def test_symmetric_difference_example(self, u3):
        s = standard_ket(u3, "ab")
        t = standard_ket(u3, "abc")
        assert add(s, t).to_subset() == frozenset("c")

    def test_self_inverse_and_identity(self, u3):
        empty = standard_ket(u3, "")
        for s in all_kets(u3):
            assert add(s, s).to_subset() == frozenset()
            assert add(s, empty) == s

    def test_basis_mismatch_rejected(self, u3, u_prime):
        s = standard_ket(u3, "a")
        t = SetKet(u_prime, frozenset(["a'"]))
        with pytest.raises(BasisError):
            add(s, t)

    def test_abelian_group_exhaustive_u4(self, u4):
        kets = all_kets(u4)
        for s in kets:
            for t in kets:
                assert add(s, t) == add(t, s)
        for s in kets[:4]:
            for t in kets[:4]:
                for r in kets[:4]:
                    assert add(add(s, t), r) == add(s, add(t, r))

    @given(st.sets(st.sampled_from("abcd")), st.sets(st.sampled_from("abcd")))
    def test_add_matches_symmetric_difference(self, xs, ys):
        u = Universe.of("abcd")
        assert add(standard_ket(u, xs), standard_ket(u, ys)).to_subset() == frozenset(
            xs
        ) ^ frozenset(ys)


class TestCheckBasis:
    def test_paper_basis_valid(self, u_prime):
        assert [set(v) for v in u_prime.vectors] == [
            {"a", "b"}, {"b", "c"}, {"a", "b", "c"},
        ]

    def test_standard_basis_valid(self, u3):
        b = standard_basis(u3)
        assert b.is_standard

    def test_short_raw_basis_is_rejected(self, u3):
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ("a", "b"), (frozenset("a"), frozenset("b")))
        assert str(exc.value) == "basis 'B' needs exactly 3 vectors, got 2"

    def test_raw_basis_rejects_a_label_outside_the_universe(self, u3):
        with pytest.raises(QmSetsError, match="^label 'z' is not in the universe$"):
            Basis(u3, "B", ("x", "y", "z"), (frozenset("a"), frozenset("b"), frozenset("z")))

    def test_raw_basis_rejects_a_repeated_vector(self, u3):
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ("x", "y", "z"), (frozenset("a"), frozenset("a"), frozenset("b")))
        assert str(exc.value) == (
            "basis 'B' is rank-deficient: vector 1 = {a} "
            "is a GF(2) combination of earlier vectors")

    def test_dependent_rejected(self, u3):
        with pytest.raises(BasisError, match="rank-deficient"):
            check_basis(u3, [{"a"}, {"b"}, {"a", "b"}], "bad")

    def test_wrong_count_rejected(self, u3):
        with pytest.raises(BasisError, match="exactly 3"):
            check_basis(u3, [{"a"}, {"b"}], "short")


class TestToBasis:
    def test_paper_row(self, u3, u_prime):
        s = standard_ket(u3, "a")
        assert to_basis(s, u_prime).coords == frozenset(["b'", "c'"])

    def test_identity_conversion(self, u3, u_basis):
        for s in all_kets(u3):
            assert to_basis(s, u_basis) == s

    def test_round_trip_all_kets_all_basis_pairs(self, u3, u_basis, u_prime, u_double_prime):
        bases = [u_basis, u_prime, u_double_prime]
        for s in all_kets(u3):
            for b1 in bases:
                for b2 in bases:
                    moved = to_basis(to_basis(s, b1), b2)
                    assert moved.to_subset() == s.to_subset()

    def test_expansion_oracle_u4(self, u4):
        # Expanding target coordinates back through the basis's subset sums
        # must reproduce the standard-basis subset.
        alt = check_basis(
            u4,
            [{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}],
            "chain",
        )
        for s in all_kets(u4):
            converted = to_basis(s, alt)
            bits = 0
            for name in converted.coords:
                idx = alt.name_position(name)
                bits ^= u4.mask_of(alt.vectors[idx])
            assert bits_to_subset(u4, bits) == s.to_subset()


class TestKetTable:
    def test_paper_table(self, u_basis, u_prime, u_double_prime):
        rows = ket_table([u_basis, u_prime, u_double_prime], paper_order=True)
        rendered = [[str(k) for k in row] for row in rows]
        assert rendered == [
            ["{a,b,c}", "{c'}", "{a'',b'',c''}"],
            ["{a,b}", "{a'}", "{b''}"],
            ["{b,c}", "{b'}", "{b'',c''}"],
            ["{a,c}", "{a',b'}", "{c''}"],
            ["{a}", "{b',c'}", "{a''}"],
            ["{b}", "{a',b',c'}", "{a'',b''}"],
            ["{c}", "{a',c'}", "{a'',c''}"],
            ["{}", "{}", "{}"],
        ]

    def test_single_standard_basis_rows_are_subsets(self, u3, u_basis):
        rows = ket_table([u_basis])
        assert {row[0].to_subset() for row in rows} == {
            frozenset(c) for k in range(4) for c in combinations("abc", k)
        }

    def test_empty_row_everywhere(self, u_basis, u_prime):
        rows = ket_table([u_basis, u_prime])
        assert rows[0][0].coords == rows[0][1].coords == frozenset()

    def test_bound(self, u3, u_basis):
        with pytest.raises(Exception, match="bound"):
            ket_table([u_basis], bound=2)


class TestLinearMaps:
    def test_identity(self, u3, u_basis):
        m = identity_map(u_basis)
        for s in all_kets(u3):
            assert apply_map(m, s) == s

    def test_permutation_column_lookup(self, u3, u_basis):
        m = permutation_map(u_basis, {"a": "b", "b": "a"})
        assert apply_map(m, standard_ket(u3, "a")).to_subset() == frozenset("b")
        assert is_nonsingular(m)

    @pytest.mark.parametrize("mapping", [{"z": "a"}, {"a": "z"}])
    def test_permutation_names_must_be_vectors(self, u_basis, mapping):
        with pytest.raises(BasisError, match="'z' is not a vector"):
            permutation_map(u_basis, mapping)

    @pytest.mark.parametrize("mapping", [{"a": "b"}, {"a": "c", "b": "c", "c": "a"}])
    def test_permutation_must_be_bijection(self, u_basis, mapping):
        with pytest.raises(BasisError, match="not a bijection"):
            permutation_map(u_basis, mapping)

    def test_linearity_exhaustive_u4(self, u4):
        basis = standard_basis(u4)
        m = LinearMap(basis, basis, (0b0011, 0b0110, 0b1100, 0b1001))
        kets = all_kets(u4)
        for s in kets:
            for t in kets:
                assert apply_map(m, add(s, t)) == add(apply_map(m, s), apply_map(m, t))

    def test_rank_deficient_collision(self, u3, u_basis):
        m = LinearMap(u_basis, u_basis, (0b001, 0b001, 0b100))
        assert not is_nonsingular(m)
        assert apply_map(m, standard_ket(u3, "a")) == apply_map(m, standard_ket(u3, "b"))

    def test_nonsingular_iff_injective_u3(self, u3, u_basis):
        kets = all_kets(u3)
        for cols in product(range(8), repeat=3):
            m = LinearMap(u_basis, u_basis, cols)
            images = {apply_map(m, s) for s in kets}
            assert is_nonsingular(m) == (len(images) == len(kets))


class TestVectorNames:
    def test_raw_basis_rejects_a_repeated_vector_name(self, u3):
        vectors = (frozenset("a"), frozenset("b"), frozenset("c"))
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ("x", "x", "z"), vectors)
        assert str(exc.value) == "basis 'B' needs 3 distinct vector names"

    @pytest.mark.parametrize("names", [("x", "x", "z"), ("x", "y"), ("x", "y", "z", "w")])
    def test_check_basis_needs_one_distinct_name_per_vector(self, u3, names):
        with pytest.raises(BasisError) as exc:
            check_basis(u3, [{"a"}, {"b"}, {"c"}], "B", names)
        assert str(exc.value) == "basis 'B' needs 3 distinct vector names"

    def test_an_extra_name_repeating_another_is_rejected(self, u3):
        with pytest.raises(BasisError) as exc:
            check_basis(u3, [{"a"}, {"b"}, {"c"}], "B", ("x", "y", "z", "x"))
        assert str(exc.value) == "basis 'B' needs 3 distinct vector names"


class TestRawBasisChecks:
    def test_a_label_outside_the_universe_is_reported_before_a_repeated_name(self, u3):
        vectors = (frozenset("a"), frozenset("b"), frozenset("z"))
        with pytest.raises(QmSetsError) as exc:
            Basis(u3, "B", ("x", "x", "z"), vectors)
        assert type(exc.value) is QmSetsError
        assert str(exc.value) == "label 'z' is not in the universe"


class TestKetTableRawBasis:
    """The raw constructor rejects a basis ket_table could not tabulate."""

    def test_too_few_vectors(self, u3):
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ("x", "y"), [{"a"}, {"b"}])
        assert str(exc.value) == "basis 'B' needs exactly 3 vectors, got 2"

    def test_dependent_vectors(self, u3):
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ("x", "y", "z"), [{"a"}, {"b"}, {"a", "b"}])
        assert str(exc.value) == (
            "basis 'B' is rank-deficient: vector 2 = {a,b} "
            "is a GF(2) combination of earlier vectors")


class TestSolve:
    def test_singular_system(self):
        with pytest.raises(BasisError) as exc:
            gf2_solve((0b011, 0b011, 0b100), 0b100)
        assert str(exc.value) == "singular system: columns are GF(2)-dependent"

    def test_target_outside_the_span(self):
        with pytest.raises(BasisError) as exc:
            gf2_solve((0b001, 0b010), 0b100)
        assert str(exc.value) == "inconsistent system: target is not in the column span"


class TestRawFieldChecks:
    """Each public constructor rejects a list, which could change after it
    was checked, with its own error, before any other check."""

    def test_basis_vector_names_must_be_a_tuple(self, u3):
        with pytest.raises(BasisError) as exc:
            Basis(u3, "B", ["x", "y"], [{"a"}, {"b"}])
        assert str(exc.value) == "basis 'B' vector names must be a tuple"

    def test_map_columns_must_be_a_tuple(self, u3, u_basis):
        with pytest.raises(BasisError) as exc:
            LinearMap(u_basis, standard_basis(Universe.of("xyz")), [1, 2])
        assert str(exc.value) == "map columns must be a tuple"


class TestMapAndTableErrors:
    def test_ket_table_needs_a_basis(self):
        with pytest.raises(BasisError) as exc:
            ket_table([])
        assert str(exc.value) == "ket_table needs at least one basis"

    @pytest.mark.parametrize("column", [0b1000, -1])
    def test_column_out_of_range(self, u_basis, column):
        with pytest.raises(BasisError) as exc:
            LinearMap(u_basis, u_basis, (0b001, 0b010, column))
        assert str(exc.value) == "column bits out of range"

    def test_ket_on_another_basis_of_the_universe(self, u3, u_basis, u_prime):
        with pytest.raises(BasisError) as exc:
            apply_map(identity_map(u_basis), SetKet(u_prime, {u_prime.vector_names[0]}))
        assert str(exc.value) == "ket is not expressed in the map's domain basis"
