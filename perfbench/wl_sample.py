"""`sample`: Monte Carlo measurement over a seeded pool of (attribute, state).

Each op is one `measure_sample(f, S, seed, step)` or, for a fixed share, one
`csca_measure(fs, S, seed)` cascade.  The pool is stratified over universe
size, value count and state size, so every seed gives the same cost mix and
only the labels and assignments change.  Every draw is re-derived by the
oracle from blake2b(seed:step).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import oracle
from common import Op, Workload, labels, spread

SIZES = (3, 16, 64)
VARIANTS = 3
# Ops per cycle by kind; the cycle is shuffled once per seed.
MIX = {
    ("measure", 3): 300,   # a third of these (kind measure.c10) are the criterion-10 instance
    ("measure", 16): 300,
    ("measure", 64): 300,
    ("csca", 3): 10,
    ("csca", 16): 10,
    ("csca", 64): 80,
}
# Value counts of CSCA attribute tuples; each product covers n.
CSCA_SHAPES = {3: [(2, 2), (2, 2, 2)], 16: [(4, 4), (2, 2, 4)], 64: [(8, 8), (4, 4, 4)]}


def _surjection(rng, labs, k):
    """Values "1".."k" on the labels, each value attained."""
    order = rng.sample(labs, len(labs))
    values = {u: str(i + 1) for i, u in enumerate(order[:k])}
    values.update((u, str(rng.randrange(k) + 1)) for u in order[k:])
    return values


def _grid(rng, labs, shape):
    """Attributes of a CSCA: the coordinates of each label in a mixed-radix grid."""
    order = rng.sample(labs, len(labs))
    attrs = [{} for _ in shape]
    for i, u in enumerate(order):
        for j, radix in enumerate(shape):
            attrs[j][u] = str(i % radix + 1)
            i //= radix
    return attrs


def build(Q, seed: int, workdir) -> Workload:
    rng = random.Random(seed)
    measure_pool = {}
    csca_pool = {}
    for n in SIZES:
        labs = ["a", "b", "c"] if n == 3 else labels(rng, n)
        U = Q.Universe.of(labs)
        state_sizes = (1, 2, 3) if n == 3 else (1, n // 4, n // 2, 3 * n // 4, n)
        entries = []
        for k in range(2, min(8, n) + 1):
            for size in state_sizes:
                for v in range(VARIANTS):
                    values = _surjection(rng, labs, k)
                    state = rng.sample(labs, size)
                    f = Q.Attribute.from_mapping(f"f{k}_{v}", U, values)
                    entries.append((f, values, Q.standard_ket(U, state), set(state), f"n{n}"))
        if n == 3:
            values = {"a": "1", "b": "1", "c": "2"}
            c10 = (Q.Attribute.from_mapping("f", U, values), values,
                   Q.standard_ket(U, labs), set(labs), "c10")
            entries = spread([c10], MIX["measure", 3] // 3) + spread(
                entries, MIX["measure", 3] - MIX["measure", 3] // 3)
        measure_pool[n] = entries
        cascades = []
        for shape in CSCA_SHAPES[n]:
            for size in (n // 2 or 1, n):
                for v in range(VARIANTS):
                    attrs = _grid(rng, labs, shape)
                    fs = [Q.Attribute.from_mapping(f"g{j}_{v}", U, a)
                          for j, a in enumerate(attrs)]
                    state = rng.sample(labs, size)
                    cascades.append((fs, attrs, Q.standard_ket(U, state), set(state)))
        csca_pool[n] = cascades

    slots = []
    for (kind, n), count in MIX.items():
        pool = measure_pool[n] if kind == "measure" else csca_pool[n]
        slots += [(kind, n, entry) for entry in spread(pool, count)]
    rng.shuffle(slots)
    length = len(slots)
    ops = [_measure_op(Q, seed, i, length, n, entry) if kind == "measure"
           else _csca_op(Q, seed, i, length, n, entry)
           for i, (kind, n, entry) in enumerate(slots)]
    return Workload(ops, CORRUPT)


def _measure_op(Q, seed, i, length, n, entry):
    f, values, ket, state, tag = entry
    calculus = Q.calculus

    def run(rep):
        return calculus.measure_sample(f, ket, seed, rep * length + i)

    def check(step, rep):
        r, collapsed, p = oracle.pick(values, state, seed, rep * length + i)
        if step.attribute != f.name or step.value != r:
            return f"drew {step.attribute}={step.value}, oracle {f.name}={r}"
        if step.probability != p:
            return f"probability {step.probability}, oracle {p}"
        if step.post_state.to_subset() != collapsed or step.pre_state.to_subset() != state:
            return "collapse is not f^-1(r) & S"
        return None

    return Op(f"measure.{tag}", n, run, check)


def _csca_op(Q, seed, i, length, n, entry):
    fs, attrs, ket, state = entry
    calculus = Q.calculus

    def run(rep):
        return calculus.csca_measure(fs, ket, seed * 1_000_003 + rep * length + i)

    def check(record, rep):
        expected = oracle.cascade(attrs, state, seed * 1_000_003 + rep * length + i)
        if len(record.steps) != len(expected):
            return f"{len(record.steps)} steps, oracle {len(expected)}"
        for step, (r, collapsed, p) in zip(record.steps, expected):
            if (step.value, step.probability) != (r, p) or step.post_state.to_subset() != collapsed:
                return f"cascade step {step.value} p={step.probability}, oracle {r} p={p}"
        if len(record.final_state.to_subset()) != 1:
            return "cascade does not end in a singleton"
        return None

    return Op(f"csca.n{n}", n, run, check)


def _wrong_value(step):
    return SimpleNamespace(attribute=step.attribute, value=step.value + "x",
                           probability=step.probability,
                           pre_state=step.pre_state, post_state=step.post_state)


def _wrong_cascade(record):
    steps = list(record.steps)
    steps[0] = SimpleNamespace(value=steps[0].value + "x", probability=steps[0].probability,
                               post_state=steps[0].post_state)
    return SimpleNamespace(steps=steps, final_state=record.final_state)


CORRUPT = {"measure": _wrong_value, "csca": _wrong_cascade}
