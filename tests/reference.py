"""The paper's definitions, stated plainly on frozensets and Fraction.

A partition is a frozenset of nonempty, disjoint blocks (frozensets of
labels) that cover the universe.  A state is a nonempty subset S of the
universe, an attribute a dict from labels to values, a permutation a dict
from each label to its image, and a basis a list of subsets (its vectors,
in order).  Nothing here is shared with qmsets: each definition is the
textbook one, written for clarity, not speed, and meant for universes of a
few elements.
"""

import hashlib
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations


def set_partitions(labels):
    """Every partition of the labels: the first label either starts a block
    of its own or joins a block of a partition of the rest."""
    labels = list(labels)
    if not labels:
        return [frozenset()]
    first, rest = labels[0], labels[1:]
    out = []
    for p in set_partitions(rest):
        out.append(p | {frozenset([first])})
        for b in p:
            out.append((p - {b}) | {b | {first}})
    return out


def join(p, q):
    """The nonempty intersections of a block of p with a block of q."""
    return frozenset(b & c for b in p for c in q if b & c)


def meet(p, q):
    """The blocks of p and q, merging any two that share an element until no
    two do."""
    blocks = set(p) | set(q)
    while True:
        pair = next(((b, c) for b in blocks for c in blocks if b != c and b & c), None)
        if pair is None:
            return frozenset(blocks)
        blocks -= set(pair)
        blocks.add(pair[0] | pair[1])


def refines(p, q):
    """Every block of p is contained in a block of q."""
    return all(any(b <= c for c in q) for b in p)


def block_of(p, u):
    (b,) = [b for b in p if u in b]
    return b


def dit(p, labels):
    """The distinctions of p: ordered pairs of labels in different blocks."""
    return {(u, v) for u in labels for v in labels if block_of(p, u) != block_of(p, v)}


def logical_entropy(p, labels):
    """|dit(p)| / |U|^2."""
    return Fraction(len(dit(p, labels)), len(labels) ** 2)


def block_sizes(p):
    """The block sizes, largest first."""
    return sorted((len(b) for b in p), reverse=True)


def born(state, labels):
    """The Born rule on S: each u in S with probability 1/|S|, collapsing to {u};
    outcomes in universe order."""
    return [(u, Fraction(1, len(state)), frozenset([u])) for u in labels if u in state]


# A number as Python 3.11's Fraction() reads it: an optional sign, then a
# ratio of integers or a decimal with an optional exponent, digits grouped by
# single underscores, whitespace around.
NUMBER = re.compile(r"""\s* [-+]?
    ( \d+(_\d+)* / \d+(_\d+)*
    | ( \d+(_\d+)* (\. (\d+(_\d+)*)? )? | \. \d+(_\d+)* ) ([eE] [-+]? \d+(_\d+)*)?
    ) \s*""", re.VERBOSE)


def value_order(value):
    """The order of attribute values: numbers first, by value and then by
    text, then the rest, by text.  A ratio with a zero denominator is text.
    Each number is built as a Fraction, so its exponent must be small; it is
    read through Decimal, which, unlike int(), sets no limit on its digits."""
    if NUMBER.fullmatch(value):
        p, _, q = value.replace("_", "").partition("/")
        try:
            return (0, Fraction(Decimal(p)) / Fraction(Decimal(q or "1")), value)
        except ZeroDivisionError:
            pass
    return (1, 0, value)


def measure(f, state):
    """Measuring f in state S: value r with probability |f^-1(r) & S| / |S|, by
    counting, and collapse f^-1(r) & S; outcomes of nonzero probability, listed
    in value order."""
    out = []
    for r in sorted(set(f.values()), key=value_order):
        collapse = frozenset(u for u in state if f[u] == r)
        if collapse:
            out.append((r, Fraction(len(collapse), len(state)), collapse))
    return out


def draw(seed, step):
    """The library's uniform draw for (seed, step): the first 8 bytes of the
    blake2b hash of the text "seed:step", read big-endian, as a number d in
    [0, 2^64)."""
    digest = hashlib.blake2b(f"{seed}:{step}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sample(f, state, seed, step):
    """The outcome of measure(f, state) drawn at (seed, step): the first, in
    value order, whose running count cum of collapsed elements has
    d * |S| < cum * 2^64, that is d / 2^64 below its cumulative probability."""
    d, cum = draw(seed, step), 0
    for r, p, collapse in measure(f, state):
        cum += len(collapse)
        if d * len(state) < cum * 2**64:
            return r, p, collapse


def cascade(fs, state, seed):
    """Measure each attribute in turn on the last collapse, step i for the
    i-th; the list of (value, probability, collapse)."""
    steps = []
    for i, f in enumerate(fs):
        steps.append(sample(f, state, seed, i))
        state = steps[-1][2]
    return steps


def cascade_finals(fs, state):
    """Every path of measurements of each f in turn, from S: the last collapse
    of each path with the product of the probabilities along it.  The
    collapses of one step partition the state, so no two paths end alike."""
    finals = {state: Fraction(1)}
    for f in fs:
        finals = {c: p * q for s, p in finals.items() for _, q, c in measure(f, s)}
    return finals


def compose(t, s):
    """t, then s: each label to s(t(u))."""
    return {u: s[t[u]] for u in t}


def closure(labels, generators):
    """The group the generators generate: the identity, closed under
    composition with each generator (a finite set of permutations closed
    under composition is a group); a list of permutations."""
    group = [{u: u for u in labels}]
    for t in group:  # the list grows as it is walked
        for g in generators:
            if (c := compose(t, g)) not in group:
                group.append(c)
    return group


def orbits(labels, group):
    """The orbit {t(u) : t in G} of each label u, a partition when G is a group."""
    return frozenset(frozenset(t[u] for t in group) for u in labels)


def symmetric_difference(sets):
    """The labels in an odd number of the sets: their sum over GF(2)."""
    out = frozenset()
    for s in sets:
        out ^= s
    return out


def coordinates(vectors, subset):
    """The positions j of the one combination of vectors, found by trying all
    2^n, whose symmetric difference is the subset; None unless exactly one
    combination gives it."""
    found = [
        frozenset(js)
        for k in range(len(vectors) + 1)
        for js in combinations(range(len(vectors)), k)
        if symmetric_difference(vectors[j] for j in js) == subset
    ]
    return found[0] if len(found) == 1 else None


def subsets(labels):
    """Every subset of the labels, smallest first."""
    return [frozenset(c) for k in range(len(labels) + 1) for c in combinations(labels, k)]


def is_basis(vectors, labels):
    """Every subset of the labels has coordinates in the vectors."""
    return all(coordinates(vectors, s) is not None for s in subsets(labels))
