"""`exhaustive`: exact structure checks over small universes.

A cycle is a fixed mix of tasks (MIX); the seed and the cycle pick labels,
partitions of a fixed shape and the relabelling of each generator set, so
every seed and every cycle gets the same costs, while no input is passed to
the library twice in a run.  The mix puts the n = 6 lattice (seconds) among
the 95th percentile's ten samples, the n = 5 lattice, S5 orbits and n = 400
entropy around it, and many cheap tasks around the median.  S6 orbits are
left out: at ~4.5 s a call (|G|^2 = 518 k compositions) one would take most
of a cycle and leave too few repeats per run for steady figures; S5 orbits
on n = 5 and n = 6 carry the same |G|^2 cost at 1/36 the size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import oracle
from common import Op, Workload, labels

# (task, n, variant) -> ops per cycle
MIX = {
    ("lattice", 6, None): 1,
    ("lattice", 5, None): 6,
    ("orbits", 5, "S5"): 4,
    ("orbits", 6, "S5"): 2,
    ("entropy", 400, None): 4,
    ("orbits", 5, "A5"): 2,
    ("orbits", 6, "A5"): 1,
    ("entropy", 200, None): 4,
    ("lattice", 4, None): 10,
    ("orbits", 4, "S4"): 4,
    ("orbits", 4, "D4"): 4,
    ("orbits", 4, "C4"): 4,
    ("orbits", 4, "V4"): 4,
    ("orbits", 5, "D5"): 4,
    ("orbits", 5, "C5"): 4,
    ("orbits", 6, "D6"): 4,
    ("orbits", 6, "C6"): 4,
    ("orbits", 6, "S3xS3"): 4,
    ("measure_all", 5, None): 40,
    ("join_all", 4, None): 30,
    ("join_all", 5, None): 30,
    ("csca_final", 4, None): 10,
    ("csca_final", 6, None): 10,
    ("entropy", 100, None): 20,
}


def _generators(kind: str) -> tuple[list[list[int]], int]:
    """Generator cycles on positions 0..m-1 and the order of the group."""
    m = int(kind[1:]) if kind[1:].isdigit() else 6
    full = list(range(m))
    if kind.startswith("S") and kind != "S3xS3":
        return [[[0, 1]], [full]], factorial(m)
    if kind == "A5":
        return [[[0, 1, 2]], [full]], 60
    if kind.startswith("D"):
        flip = [[i, m - 1 - i] for i in range(m // 2)]
        return [[full], flip], 2 * m
    if kind.startswith("C"):
        return [[full]], m
    if kind == "V4":
        return [[[0, 1], [2, 3]], [[0, 2], [1, 3]]], 4
    return [[[0, 1]], [[0, 1, 2]], [[3, 4]], [[3, 4, 5]]], 36  # S3 x S3


def _shape(n: int, i: int) -> list[int]:
    """Block sizes of the i-th partition shape used at size n."""
    shapes = {4: [[2, 1, 1], [2, 2], [3, 1], [1, 1, 1, 1]],
              5: [[2, 2, 1], [3, 1, 1], [2, 1, 1, 1], [3, 2], [1, 1, 1, 1, 1], [4, 1]]}
    if n in shapes:
        return shapes[n][i % len(shapes[n])]
    sizes, k = [], 1
    while sum(sizes) + k <= n:  # 1, 2, 3, ... then the remainder
        sizes.append(k)
        k += 1
    return sizes + ([n - sum(sizes)] if sum(sizes) < n else [])


def _blocks(rng, labs, sizes):
    order = rng.sample(labs, len(labs))
    out, start = [], 0
    for s in sizes:
        out.append(order[start:start + s])
        start += s
    return out


def build(Q, seed: int, workdir) -> Workload:
    rng = random.Random(seed)
    ops = []
    for (task, n, variant), count in MIX.items():
        for i in range(count):
            ops.append(_fresh(Q, BUILDERS[task], n, variant, i, rng.getrandbits(64)))
    rng.shuffle(ops)
    return Workload(ops, CORRUPT)


def _fresh(Q, builder, n, variant, i, op_seed) -> Op:
    """An op whose inputs are made anew for every cycle, off the clock.

    Cycle `rep` builds the op again from labels, blocks and relabellings
    drawn from (op_seed, rep), so no two cycles pass the library equal or
    identical inputs and a memo over them cannot hit on a repeat.  The shapes
    stay fixed, so every cycle costs the same.  Cycle 0 is built here, in
    set-up.
    """
    current = {}

    def prepare(rep):
        rng = random.Random(f"{op_seed}:{rep}")
        labs = labels(rng, n)
        current["op"] = builder(Q, rng, Q.Universe.of(labs), labs, variant, i)

    prepare(0)
    first = current["op"]
    return Op(first.kind, n, lambda rep: current["op"].run(rep),
              lambda out, rep: current["op"].check(out, rep), first.facts, prepare)


def _lattice(Q, rng, U, labs, variant, i):
    cli = Q.cli

    def facts(text):
        return {"universe.edges": text.count(" -> ")}

    return Op(f"lattice.n{len(labs)}", len(labs), lambda rep: cli.lattice_render(U),
              lambda text, rep: oracle.check_lattice(text, labs), facts)


def _orbits(Q, rng, U, labs, variant, i):
    cycles, order = _generators(variant)
    relabel = rng.sample(labs, len(labs))
    gen_cycles = [[[relabel[p] for p in c] for c in g] for g in cycles]
    gens = [Q.Permutation.from_cycles(U, g) for g in gen_cycles]
    images = [oracle.cycles_to_images(labs, g) for g in gen_cycles]
    if oracle.group_order(labs, images) != order:
        raise AssertionError(f"generator table gives the wrong order for {variant}")
    expected = oracle.orbits(labs, images)
    ga = Q.group_action

    def run(rep):
        group = ga.generate_group(gens, U)
        return group, ga.orbit_partition(group)

    def check(out, rep):
        group, part = out
        if len(group) != order:
            return f"group {variant} has order {len(group)}, expected {order}"
        if set(oracle.parse_partition(str(part))) != expected:
            return f"orbits {part} differ from the union-find oracle"
        return None

    return Op(f"orbits.{variant}.n{len(labs)}", len(labs), run, check)


def _measure_all(Q, rng, U, labs, variant, i):
    blocks = _blocks(rng, labs, _shape(len(labs), i))
    values = {u: str(j + 1) for j, b in enumerate(blocks) for u in b}
    f = Q.Attribute.from_mapping("h", U, values)
    P = Q.SetPartition.from_blocks(U, blocks)
    n = len(labs)
    subsets = [{labs[j] for j in range(n) if m >> j & 1} for m in range(1, 1 << n)]
    kets = [Q.standard_ket(U, s) for s in subsets]
    calc = Q.calculus

    def run(rep):
        out = []
        for ket in kets:
            dist = calc.measure_distribution(f, ket)
            again = [calc.measure_distribution(f, o.collapsed) for o in dist.outcomes]
            out.append((dist, again, calc.pythagoras_check(P, ket),
                        calc.born_distribution(ket)))
        return out

    def check(out, rep):
        for state, (dist, again, pyth, born) in zip(subsets, out):
            got = [(o.value, o.probability, o.collapsed.to_subset()) for o in dist.outcomes]
            want = [(r, Fraction(len(b), len(state)), b)
                    for r, b in oracle.outcome_counts(values, state)]
            if got != want:
                return f"measure on {sorted(state)}: {got} != {want}"
            for o, rep_dist in zip(dist.outcomes, again):
                (o2,) = rep_dist.outcomes
                if (o2.value, o2.probability) != (o.value, 1) or \
                        o2.collapsed.to_subset() != o.collapsed.to_subset():
                    return "repeat measurement is not certain"
            if tuple(pyth) != (len(state), len(state)):
                return f"pythagoras {pyth} for |S| = {len(state)}"
            singles = {frozenset([u]) for u in state}
            if {o.collapsed.to_subset() for o in born.outcomes} != singles or any(
                    o.probability != Fraction(1, len(state)) for o in born.outcomes):
                return "born distribution is not uniform over the singletons"
        return None

    return Op(f"measure_all.n{n}", n, run, check)


def _join_all(Q, rng, U, labs, variant, i):
    n = len(labs)
    p_blocks = [frozenset(b) for b in _blocks(rng, labs, _shape(n, i))]
    p = Q.SetPartition.from_blocks(U, p_blocks)
    all_q = oracle.set_partitions(labs)
    qs = [Q.SetPartition.from_blocks(U, q) for q in all_q]
    order = {u: j for j, u in enumerate(labs)}
    uni = Q.universe

    def run(rep):
        dp = uni.dit(p)
        return dp, [(uni.join(p, q), uni.meet(p, q), uni.dit(uni.join(p, q)),
                     uni.dit(q), uni.refines(p, q)) for q in qs]

    def check(out, rep):
        dp, rows = out
        owner_p = {u: b for b in p_blocks for u in b}
        for q_blocks, (j, m, dj, dq, ref) in zip(all_q, rows):
            owner_q = {u: b for b in q_blocks for u in b}
            if str(j) != oracle.partition_str(oracle.intersections(p_blocks, q_blocks), order):
                return f"join {j} differs from the block intersections"
            links = [(b[0], u) for b in (sorted(x) for x in p_blocks + q_blocks) for u in b]
            if str(m) != oracle.partition_str(oracle.union_find(labs, links), order):
                return f"meet {m} differs from the union-find closure"
            if ref != all(any(b <= c for c in q_blocks) for b in p_blocks):
                return f"refines says {ref}"
            size = 0
            for u in labs:
                for v in labs:
                    if u == v:
                        continue
                    in_p, in_q = owner_p[u] != owner_p[v], owner_q[u] != owner_q[v]
                    size += in_p or in_q
                    if ((u, v) in dp, (u, v) in dq, (u, v) in dj) != (in_p, in_q, in_p or in_q):
                        return f"dit(p v q) != dit(p) | dit(q) at {(u, v)}"
            if len(dj) != size:
                return f"|dit(p v q)| = {len(dj)}, expected {size}"
        return None

    return Op(f"join_all.n{n}", n, run, check)


def _csca_final(Q, rng, U, labs, variant, i):
    n = len(labs)
    order = rng.sample(labs, n)
    f = Q.Attribute.from_mapping("f", U, {u: str(j % 2 + 1) for j, u in enumerate(order)})
    g = Q.Attribute.from_mapping("g", U, {u: str(j // 2 + 1) for j, u in enumerate(order)})
    ket = Q.standard_ket(U, labs)
    calc = Q.calculus
    want = {frozenset([u]): Fraction(1, n) for u in labs}

    def check(dist, rep):
        return None if dist == want else f"CSCA finals {dist} are not uniform 1/{n}"

    return Op(f"csca_final.n{n}", n, lambda rep: calc.csca_final_distribution([f, g], ket),
              check)


def _entropy(Q, rng, U, labs, variant, i):
    n = len(labs)
    sizes = _shape(n, i)
    P = Q.SetPartition.from_blocks(U, _blocks(rng, labs, sizes))
    want = (oracle.entropy(sizes, n), sorted(sizes, reverse=True))
    uni = Q.universe

    def check(out, rep):
        h, bs = out
        return None if (h, list(bs)) == want else f"entropy {h}, sizes {bs}; expected {want}"

    return Op(f"entropy.n{n}", n, lambda rep: (uni.logical_entropy(P), uni.block_sizes(P)),
              check)


BUILDERS = {
    "lattice": _lattice,
    "orbits": _orbits,
    "measure_all": _measure_all,
    "join_all": _join_all,
    "csca_final": _csca_final,
    "entropy": _entropy,
}


CORRUPT = {
    "lattice": lambda text: text.rsplit("\n", 1)[0],  # drop one covering edge
    "entropy": lambda out: (out[0] + Fraction(1, 10**6), out[1]),
}
