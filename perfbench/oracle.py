"""Reference computations the benchmark checks library outputs against.

Nothing here imports qmsets: every expected value is derived again from
plain labels, sets and integers, so a defect in the library cannot also
hide in its own check.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb


def draw(seed: int, step: int) -> int:
    """The 64-bit draw d of the documented sampling rule; u = d / 2^64."""
    digest = hashlib.blake2b(f"{seed}:{step}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def value_key(value: str):
    """Documented value order: numeric tokens first, numerically, then text."""
    return (0, int(value), "") if value.isdigit() else (1, 0, value)


def outcome_counts(values: dict[str, str], state: set[str]) -> list[tuple[str, frozenset]]:
    """[(r, f^-1(r) & S)] for the attained values that meet S, in value order."""
    blocks: dict[str, set[str]] = {}
    for label in state:
        blocks.setdefault(values[label], set()).add(label)
    return [(r, frozenset(blocks[r])) for r in sorted(blocks, key=value_key)]


def pick(values: dict[str, str], state: set[str], seed: int, step: int):
    """(r, collapsed, probability) the rule must choose for this (seed, step).

    The first outcome whose cumulative |f^-1(r) & S| / |S| exceeds
    u = d / 2^64, compared exactly as d * |S| < cum * 2^64.
    """
    outcomes = outcome_counts(values, state)
    d = draw(seed, step)
    size = len(state)
    cum = 0
    for r, block in outcomes:
        cum += len(block)
        if d * size < cum << 64:
            return r, block, Fraction(len(block), size)
    r, block = outcomes[-1]
    return r, block, Fraction(len(block), size)


def cascade(attrs: list[dict[str, str]], state: set[str], seed: int):
    """Steps (r, collapsed, probability) of a CSCA cascade from the state."""
    steps = []
    for i, values in enumerate(attrs):
        r, state, p = pick(values, state, seed, i)
        steps.append((r, state, p))
    return steps


def ket_str(labels, order: dict[str, int]) -> str:
    return "{" + ",".join(sorted(labels, key=order.__getitem__)) + "}"


def partition_str(blocks, order: dict[str, int]) -> str:
    """Canonical text form: blocks by least element, elements in universe order."""
    canon = sorted((sorted(b, key=order.__getitem__) for b in blocks),
                   key=lambda b: order[b[0]])
    return "|".join("{" + ",".join(b) + "}" for b in canon)


def parse_partition(text: str) -> list[frozenset]:
    blocks = []
    for chunk in text.split("|"):
        inner = chunk.strip()[1:-1]
        blocks.append(frozenset(inner.split(",")) if inner else frozenset())
    return blocks


def is_partition_of(blocks, labels) -> bool:
    seen = set()
    for b in blocks:
        if not b or seen & b:
            return False
        seen |= b
    return seen == set(labels)


def intersections(p, q) -> list[frozenset]:
    return [b & c for b in p for c in q if b & c]


def union_find(labels, links) -> set[frozenset]:
    """Blocks of the equivalence closure of the (u, v) links."""
    parent = {u: u for u in labels}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    groups: dict[str, set] = {}
    for u in labels:
        groups.setdefault(find(u), set()).add(u)
    return {frozenset(g) for g in groups.values()}


def cycles_to_images(labels, cycles) -> tuple[str, ...]:
    image = {u: u for u in labels}
    for cycle in cycles:
        for i, u in enumerate(cycle):
            image[u] = cycle[(i + 1) % len(cycle)]
    return tuple(image[u] for u in labels)


def group_order(labels, generators) -> int:
    """|<generators>| by breadth-first closure over image tuples."""
    index = {u: i for i, u in enumerate(labels)}
    gens = [tuple(index[v] for v in g) for g in generators]
    identity = tuple(range(len(labels)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for t in frontier:
            for g in gens:
                c = tuple(g[i] for i in t)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return len(seen)


def orbits(labels, generators) -> set[frozenset]:
    return union_find(labels, [(u, v) for g in generators for u, v in zip(labels, g)])


def entropy(sizes, n: int) -> Fraction:
    """Logical entropy 1 - sum (|B|/n)^2."""
    return Fraction(n * n - sum(s * s for s in sizes), n * n)


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def covering_edges(n: int) -> int:
    """Edges of the partition lattice: each p with k blocks has C(k, 2) covers."""
    return sum(stirling2(n, k) * comb(k, 2) for k in range(1, n + 1))


def set_partitions(labels: list[str]) -> list[list[frozenset]]:
    """Every partition of the labels, by restricted growth strings."""
    out = []

    def extend(blocks: list[list[str]], i: int):
        if i == len(labels):
            out.append([frozenset(b) for b in blocks])
            return
        for b in blocks:
            b.append(labels[i])
            extend(blocks, i + 1)
            b.pop()
        blocks.append([labels[i]])
        extend(blocks, i + 1)
        blocks.pop()

    extend([], 0)
    return out


def check_lattice(text: str, labels: list[str]) -> str | None:
    """Rank rows must hold S(n, k) partitions each; every edge must merge two blocks."""
    n = len(labels)
    seen = set()
    edges = 0
    in_edges = False
    for line in text.splitlines():
        if line == "edges:":
            in_edges = True
        elif in_edges:
            fine, coarse = (parse_partition(s) for s in line.strip().split(" -> "))
            merged = [b for b in coarse if b not in fine]
            if len(coarse) != len(fine) - 1 or len(merged) != 1:
                return f"edge {line.strip()} is not a covering pair"
            if sum(1 for b in fine if b <= merged[0]) != 2:
                return f"edge {line.strip()} does not merge two blocks"
            edges += 1
        elif line.startswith("rank "):
            head, _, body = line.partition(": ")
            k = int(head.split()[1])
            row = body.split("  ")
            if len(row) != stirling2(n, k):
                return f"rank {k} lists {len(row)} partitions, not S({n},{k})"
            for p in row:
                blocks = parse_partition(p)
                if len(blocks) != k or not is_partition_of(blocks, labels):
                    return f"rank {k} lists {p}, not a {k}-block partition"
                seen.add(frozenset(blocks))
    if len(seen) != sum(stirling2(n, k) for k in range(1, n + 1)):
        return f"{len(seen)} distinct partitions, not the Bell number"
    if edges != covering_edges(n):
        return f"{edges} covering edges, expected {covering_edges(n)}"
    return None


def xor_sets(sets) -> frozenset:
    out: frozenset = frozenset()
    for s in sets:
        out = out ^ s
    return out


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
