"""Types shared by the workload modules."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    """One benchmark operation of a workload's cycle.

    `run(rep)` makes the library calls and returns their raw results; `rep`
    is the index of the cycle, so a repeated op can vary its draws or its
    output format.  `check(out, rep)` is the oracle: None when the output is
    right, else a message.  `facts(out)` gives benchmark-side counts for the
    traced run, such as edges rendered or bytes written.  `prepare(rep)`, when
    given, makes the inputs and expected values of cycle `rep`; it runs off
    the clock before `run(rep)`.
    """

    kind: str
    n: int
    run: Callable[[int], Any]
    check: Callable[[Any, int], str | None]
    facts: Callable[[Any], dict[str, float]] | None = None
    prepare: Callable[[int], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Op-kind prefix -> a function making a wrong version of that op's output,
    # for the oracle self-check.
    corrupt: dict[str, Callable[[Any], Any]]
    # Outputs are bytes that must not change when tracing is on.
    byte_outputs: bool = False


def labels(rng: random.Random, n: int, width: int = 3) -> list[str]:
    """n distinct lowercase labels of one width, in a seeded order."""
    alphabet = string.ascii_lowercase
    out: set[str] = set()
    while len(out) < n:
        out.add("".join(rng.choice(alphabet) for _ in range(width)))
    return rng.sample(sorted(out), n)


def spread(items: list, count: int) -> list:
    """`count` items taken round-robin, so every seed gets the same mix."""
    return [items[i % len(items)] for i in range(count)]
