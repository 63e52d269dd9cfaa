"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Everything is exact arithmetic or exhaustive small-case checking.
"""

import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

from qmsets import (
    Attribute,
    LinearMap,
    Permutation,
    SetKet,
    Universe,
    apply_map,
    born_distribution,
    check_basis,
    csca_final_distribution,
    csca_measure,
    dit,
    enumerate_partitions,
    generate_group,
    inverse_image_partition,
    is_csca,
    is_nonsingular,
    join,
    measure_distribution,
    measure_sample,
    norm,
    orbit_partition,
    parse_scenario,
    run_scenario,
    standard_basis,
    standard_ket,
    to_basis,
)
from qmsets.gf2 import bits_to_subset

import reference as ref

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, text):
    print(f"PASS criterion {num}: {text}")


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


PAPER_TABLE = """\
U = {a,b,c}  U' = {a',b',c'}  U'' = {a'',b'',c''}
{a,b,c}      {c'}             {a'',b'',c''}
{a,b}        {a'}             {b''}
{b,c}        {b'}             {b'',c''}
{a,c}        {a',b'}          {c''}
{a}          {b',c'}          {a''}
{b}          {a',b',c'}       {a'',b''}
{c}          {a',c'}          {a'',c''}
{}           {}               {}
"""


def test_criterion_1_ket_table_reproduction():
    start = time.monotonic()
    text = (SCENARIO_DIR / "paper_table.qms").read_text()
    out, _ = run_scenario(parse_scenario(text), paper_order=True)
    elapsed = time.monotonic() - start
    assert out == PAPER_TABLE
    assert elapsed < 1.0
    report(1, "three-basis ket table reproduced byte-exactly under --paper-order")


def test_criterion_2_norm_example():
    u3 = Universe.of("abc")
    u_prime = check_basis(
        u3, [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}], "U'", ("a'", "b'", "c'")
    )
    a_prime = to_basis(SetKet(u_prime, frozenset(["a'"])), standard_basis(u3))
    value, squared = norm(a_prime)
    assert squared == 2
    assert f"{value:.6f}" == "1.414214"
    report(2, "norm of {a'} is exactly sqrt(2): squared norm 2, 1.414214 to 6 decimals")


def test_criterion_3_quotient_counting():
    start = time.monotonic()
    orderings = ["".join(p) for p in permutations("abcd")]
    universe = Universe.of(orderings)
    first_two = Attribute.from_mapping(
        "first2", universe, {o: "".join(sorted(o[:2])) for o in orderings}
    )
    partition = inverse_image_partition(first_two)
    assert len(partition.blocks) == 6
    assert all(len(b) == 4 for b in partition.blocks)
    assert set(partition.block_of("abcd")) == {"abcd", "bacd", "abdc", "badc"}
    assert time.monotonic() - start < 1.0
    report(3, "24 orderings quotient to 6 blocks of 4; block of abcd is {abcd,bacd,abdc,badc}")


def test_criterion_4_born_normalization():
    for n in range(1, 6):
        universe = Universe.of(f"e{i}" for i in range(n))
        states = nonempty_kets(universe)
        assert len(states) == 2 ** n - 1
        for s in states:
            total = sum(
                (o.probability for o in born_distribution(s).outcomes), Fraction(0)
            )
            assert total == 1
    report(4, "Born probabilities sum to exactly 1 for all nonempty states, |U| <= 5")


def test_criterion_5_pythagoras():
    for n in range(1, 6):
        universe = Universe.of(f"e{i}" for i in range(n))
        attrs = [
            attr_from_partition(universe, p)
            for p in enumerate_partitions(universe)
            if len(p.blocks) <= 3
        ]
        for f in attrs:
            preimages = [f.preimage(r) for r in f.attained_values()]
            for s in nonempty_kets(universe):
                subset = s.to_subset()
                assert len(subset) == sum(len(pre & subset) for pre in preimages)
    report(5, "squared norm decomposes exactly over eigenspaces, attrs <= 3 values, |U| <= 5")


def test_criterion_6_repeat_measurement_certainty():
    for n in range(1, 6):
        universe = Universe.of(f"e{i}" for i in range(n))
        for p in enumerate_partitions(universe):
            f = attr_from_partition(universe, p)
            for s in nonempty_kets(universe):
                for outcome in measure_distribution(f, s).outcomes:
                    again = measure_distribution(f, outcome.collapsed)
                    assert again.probability_of(outcome.value) == 1
                    repeat = again.outcomes[0]
                    assert repeat.collapsed.to_subset() == outcome.collapsed.to_subset()
    report(6, "repeat measurement yields the same value with probability 1, state unchanged")


def test_criterion_7_dit_join_law():
    for n in range(1, 5):
        universe = Universe.of(f"e{i}" for i in range(n))
        parts = enumerate_partitions(universe)
        pairs = 0
        for p in parts:
            for q in parts:
                assert dit(join(p, q)).pairs == dit(p).pairs | dit(q).pairs
                pairs += 1
        if n == 4:
            assert pairs == 225
    report(7, "dit(join) equals union of dit-sets for all partition pairs, |U| <= 4")


def test_criterion_8_type2_characterization():
    start = time.monotonic()
    for n in range(1, 4):
        universe = Universe.of(f"e{i}" for i in range(n))
        basis = standard_basis(universe)
        kets = [
            SetKet(basis, bits_to_subset(universe, m)) for m in range(1 << n)
        ]
        from itertools import product

        for cols in product(range(1 << n), repeat=n):
            m = LinearMap(basis, basis, cols)
            injective = len({apply_map(m, s) for s in kets}) == len(kets)
            assert is_nonsingular(m) == injective
    # n = 4: deterministic sample of matrices.
    universe = Universe.of("abcd")
    basis = standard_basis(universe)
    kets = [SetKet(basis, bits_to_subset(universe, m)) for m in range(16)]
    sampled = [
        (c0 % 16, (c0 * 7 + 3) % 16, (c0 * 11 + 5) % 16, (c0 * 13 + 9) % 16)
        for c0 in range(256)
    ]
    for cols in sampled:
        m = LinearMap(basis, basis, cols)
        injective = len({apply_map(m, s) for s in kets}) == len(kets)
        assert is_nonsingular(m) == injective
    assert time.monotonic() - start < 10.0
    report(8, "non-singularity coincides with injectivity on all kets (n <= 3 full, n = 4 sampled)")


def test_criterion_9_orbit_oracle():
    for n in range(1, 6):
        universe = Universe.of(f"e{i}" for i in range(n))
        e = universe.elements
        catalog = [Permutation.identity(universe)]
        if n >= 2:
            catalog.append(Permutation.from_cycles(universe, [e[:2]]))
        if n >= 3:
            catalog.append(Permutation.from_cycles(universe, [e[:3]]))
        if n >= 4:
            catalog.append(Permutation.from_cycles(universe, [e[:2], e[2:4]]))
        catalog.append(Permutation.from_cycles(universe, [e]))
        for gens in combinations_with_replacement(catalog, 2):
            group = generate_group(list(gens), universe)
            closure = ref.closure(e, [{u: t(u) for u in e} for t in gens])
            assert set(orbit_partition(group).block_sets()) == ref.orbits(e, closure)
    report(9, "orbit partitions agree with the reference orbits of the closure, |U| <= 5")


def test_criterion_10_monte_carlo():
    start = time.monotonic()
    u3 = Universe.of("abc")
    f = Attribute.from_mapping("f", u3, {"a": "1", "b": "1", "c": "2"})
    state = standard_ket(u3, u3.elements)
    trials = 100_000
    hits = sum(measure_sample(f, state, seed=i).value == "1" for i in range(trials))
    frequency = hits / trials
    assert abs(frequency - 2 / 3) <= 0.01
    assert time.monotonic() - start < 5.0
    report(10, f"empirical frequency {frequency:.4f} of r=1 within 2/3 +/- 0.01 over 1e5 seeds")


def test_criterion_11_csca_nondegeneracy():
    for n in range(1, 5):
        universe = Universe.of(f"e{i}" for i in range(n))
        parts = enumerate_partitions(universe)
        attrs = [attr_from_partition(universe, p, f"h{i}") for i, p in enumerate(parts)]
        cscas = [[a] for a in attrs if is_csca([a])]
        cscas += [
            [a, b]
            for a, b in combinations(attrs, 2)
            if is_csca([a, b])
        ]
        assert cscas
        state = standard_ket(universe, universe.elements)
        uniform = Fraction(1, n)
        for fs in cscas:
            record = csca_measure(fs, state, seed=17)
            final = record.final_state.to_subset()
            assert len(final) == 1
            # the value tuple identifies the singleton uniquely
            (u,) = final
            assert tuple(f(u) for f in fs) == record.value_tuple
            dist = csca_final_distribution(fs, state)
            assert dist == {frozenset([u]): uniform for u in universe}
    report(11, "every small CSCA cascade ends in a singleton; exact final distribution uniform 1/|U|")


def test_criterion_12_bell_counts():
    counts = []
    for n in range(1, 6):
        universe = Universe.of(f"e{i}" for i in range(n))
        counts.append(len(enumerate_partitions(universe)))
    assert counts == [1, 2, 5, 15, 52]
    report(12, "partition enumeration counts match Bell numbers 1, 2, 5, 15, 52")
