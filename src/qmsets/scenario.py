"""Scenario files: declarations plus an ordered command list.

Grammar (one statement per line, ``#`` starts a comment):

    seed 42
    universe U = a b c
    basis U' on U = a':{a,b} b':{b,c} c':{a,b,c}
    attribute f on U = a:1 b:1 c:2
    partition P on U = {a}|{b,c}
    group G on U = (a b), (a b c)
    state S on U = {a,b}
    state T in U' = {a',c'}
    map M on U = {b} {a} {c}

    ket-table U U' U''
    distribution S
    measure f S
    entropy P
    join P Q
    orbits G
    evolve M S
    cascade f g from S
    lattice U
    pythagoras P S

Any command may end with ``to <path>`` to write its output to a file, each
path at most once, as ``os.path.realpath`` resolves it: ``out.txt`` and
``./out.txt`` are one path (hard links and case-insensitive file systems are
out of scope); a path holds no NUL.  Every referenced name must be declared
on an earlier line, and names are unique per kind; ``to`` and ``from`` are
keywords and name no declaration.  A name appears at most
once in a brace set, a partition block included, and a ``key:value`` entry
needs both parts.  Attribute values sort numbers first, by value, then text,
in one order on every supported Python: a number is what Python 3.11's
``Fraction()`` reads, such as ``1_0``, ``1e1`` or ``3/2``; ``1__0`` is text.
A universe label or basis vector name holds none of ``{ } , | ( ) :``.
A group's cycles name only labels of its universe, each at most once per
generator, within a cycle or across its cycles.
An argument that names two of the kinds it may take is a parse error (exit
2); operands on different universes are a runtime error (exit 3).  A seed is
an integer of at most 100 characters.  It is required when a sampling command
(cascade) appears, and is an error on the first such command's line when
missing; a second ``seed`` line is an error on its own line.  One leading
UTF-8 byte-order mark is ignored.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .attributes import Attribute, inverse_image_partition
from .errors import QmSetsError, ScenarioError
from .gf2 import Basis, LinearMap, SetKet, check_basis, standard_basis
from .group_action import Permutation, TransformationGroup, generate_group
from .universe import SetPartition, Universe, _brace_names, braced

# The argument kinds of each command: "a|b" takes a name of either kind, and
# a trailing "..." takes one or more names.
COMMANDS = {
    "ket-table": ("basis|universe...",),
    "distribution": ("state",),
    "measure": ("attribute", "state"),
    "entropy": ("partition|attribute",),
    "join": ("partition|attribute", "partition|attribute"),
    "orbits": ("group",),
    "evolve": ("map", "state"),
    "cascade": ("attribute...", "state"),
    "lattice": ("universe",),
    "pythagoras": ("partition|attribute", "state"),
}

SAMPLING_COMMANDS = ("cascade",)

# The longest integer token on a seed line or in --seed and --bound: int() limits
# the digits it reads, and printing the integer too.
_MAX_INT_CHARS = 100

# The Scenario field that holds the declarations of each kind.
_POOLS = {
    "universe": "universes",
    "basis": "bases",
    "attribute": "attributes",
    "partition": "partitions",
    "group": "groups",
    "state": "states",
    "map": "maps",
}


@dataclass(frozen=True)
class Command:
    line: int
    kind: str
    args: tuple[str, ...]
    destination: str | None = None
    values: tuple = ()  # what each of args names, resolved at parse time


@dataclass
class Scenario:
    seed: int | None = None
    universes: dict[str, Universe] = field(default_factory=dict)
    bases: dict[str, Basis] = field(default_factory=dict)
    attributes: dict[str, Attribute] = field(default_factory=dict)
    partitions: dict[str, SetPartition] = field(default_factory=dict)
    groups: dict[str, TransformationGroup] = field(default_factory=dict)
    states: dict[str, SetKet] = field(default_factory=dict)
    maps: dict[str, LinearMap] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    decl_lines: list[str] = field(default_factory=list)
    # The standard basis of each universe, built once where it is declared.
    standard_bases: dict[str, Basis] = field(default_factory=dict, compare=False)

    def lookup(self, name: str, kinds: str):
        """The value of `name`, declared as exactly one of `kinds` ("a|b").

        A universe stands for its standard basis where a basis is wanted, and
        an attribute for its inverse-image partition where a partition is.
        """
        allowed = kinds.split("|")
        found = [k for k in allowed if name in getattr(self, _POOLS[k])]
        if not found:
            raise ScenarioError(f"undeclared {' or '.join(allowed)} {name!r}")
        if len(found) > 1:
            raise ScenarioError(f"ambiguous name {name!r}: declared as {' and '.join(found)}")
        value = getattr(self, _POOLS[found[0]])[name]
        if found[0] == "universe" and allowed[0] == "basis":
            return self.standard_bases[name]
        if found[0] == "attribute" and allowed[0] == "partition":
            return inverse_image_partition(value)
        return value

    def serialize(self) -> str:
        lines = list(self.decl_lines)
        if lines:
            lines.append("")
        for cmd in self.commands:
            text = f"{cmd.kind} " + " ".join(cmd.args)
            if cmd.kind == "cascade":
                *attrs, state = cmd.args
                text = f"cascade {' '.join(attrs)} from {state}"
            if cmd.destination:
                text += f" to {cmd.destination}"
            lines.append(text)
        return "\n".join(lines) + "\n"


def _parse_subset(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ScenarioError(f"expected a brace-delimited set, got {text!r}")
    return _brace_names(text)


def _parse_cycles(text: str) -> list[list[str]]:
    chunks = re.findall(r"\(([^()]*)\)", text)
    stripped = re.sub(r"\([^()]*\)", "", text).strip()
    if stripped:
        raise ScenarioError(f"malformed cycle notation {text!r}")
    return [chunk.split() for chunk in chunks if chunk.split()]


def _entries(body: str, usage: str):
    """The nonempty (key, value) of each "key:value" chunk, checked as it is reached."""
    for chunk in body.split():
        key, _, value = chunk.partition(":")
        if not (key and value):
            raise ScenarioError(f"{usage}, got {chunk!r}")
        yield key, value


_RESERVED = re.compile(r"[{},|():]")  # the punctuation of set, partition, cycle and entry texts


def _plain(name: str, what: str) -> str:
    """The name, unless it holds a reserved character."""
    if reserved := _RESERVED.search(name):
        raise ScenarioError(f"{what} {name!r} contains reserved character {reserved[0]!r}")
    return name


def _universe(name: str, home: None, body: str):
    labels = [_plain(label, "universe label") for label in body.split()]
    return Universe.of(labels), " ".join(labels)


def _basis(name: str, home: Universe, body: str):
    vec_names, vectors = [], []
    for vname, subset in _entries(body, "basis vector needs name:{...}"):
        vec_names.append(_plain(vname, "basis vector name"))
        vectors.append(_parse_subset(subset))
    basis = check_basis(home, vectors, name, vec_names)
    return basis, " ".join(
        f"{n}:{braced(home.labels_of(m))}" for n, m in zip(vec_names, basis.masks)
    )


def _attribute(name: str, home: Universe, body: str):
    mapping = {}
    for elem, value in _entries(body, "attribute entry needs element:value"):
        if elem in mapping:
            raise ScenarioError(f"duplicate element {elem!r}")
        mapping[elem] = value
    attr = Attribute.from_mapping(name, home, mapping)
    return attr, " ".join(f"{u}:{v}" for u, v in zip(home, attr.values))


def _partition(name: str, home: Universe, body: str):
    partition = SetPartition.parse(home, body.replace(" ", ""))
    return partition, str(partition)


def _group(name: str, home: Universe, body: str):
    gens = [
        Permutation.from_cycles(home, _parse_cycles(chunk))
        for chunk in body.split(",")
        if chunk.strip()
    ]
    return generate_group(gens, home), ", ".join(g.cycle_string() for g in gens)


def _state(name: str, home: Basis, body: str):
    state = SetKet(home, frozenset(_parse_subset(body)))
    return state, str(state)


def _map(name: str, home: Basis, body: str):
    images = [_parse_subset(chunk) for chunk in body.split()]
    m = LinearMap.from_column_subsets(home, home, images)
    return m, " ".join(braced(home.names_of(col)) for col in m.columns)


# The body of each declaration kind, read and written back in one place: from
# the declared name, its resolved home (None for a universe) and the body
# text, each returns the value and its canonical body text.
_DECLARATIONS = {
    "universe": _universe,
    "basis": _basis,
    "attribute": _attribute,
    "partition": _partition,
    "group": _group,
    "state": _state,
    "map": _map,
}


def _seed(sc: Scenario, text: str) -> None:
    parts = text.split()
    if len(parts) != 2:
        raise ScenarioError("seed takes exactly one integer")
    if sc.seed is not None:
        raise ScenarioError("seed given twice")
    if len(parts[1]) > _MAX_INT_CHARS:  # the message spells out _MAX_INT_CHARS
        raise ScenarioError(f"seed must be at most 100 characters long, got {len(parts[1])}")
    try:
        sc.seed = int(parts[1])
    except ValueError:
        raise ScenarioError(f"seed must be an integer, got {parts[1]!r}")
    sc.decl_lines.append(f"seed {sc.seed}")


def _declaration(sc: Scenario, kind: str, text: str) -> None:
    # "<kind> <name> [on|in <home>] = <body>"
    if "=" not in text:
        raise ScenarioError("declaration needs '='")
    head, body = text.split("=", 1)
    parts = head.split()
    if kind == "universe":
        if len(parts) != 2:
            raise ScenarioError("usage: universe NAME = e1 e2 ...")
    elif len(parts) != 4 or parts[2] not in ("on", "in"):
        raise ScenarioError(f"usage: {kind} NAME on UNIVERSE = ...")
    name, pool = parts[1], getattr(sc, _POOLS[kind])
    if name in ("to", "from"):  # a command's output path and a cascade's state follow them
        raise ScenarioError(f"{kind} name {name!r} is a command keyword")
    if name in pool:
        raise ScenarioError(f"duplicate {kind} name {name!r}")
    home = None
    if kind != "universe":
        link, ref = parts[2:]
        # A state "in" a basis is written in that basis; all else is "on"
        # a universe, which states and maps take in its standard basis.
        if kind == "state" and link == "in":
            home = sc.lookup(ref, "basis|universe")
        else:
            home = sc.lookup(ref, "universe")
            if kind in ("state", "map"):
                home = sc.standard_bases[ref]
    pool[name], canonical = _DECLARATIONS[kind](name, home, body.strip())
    if kind == "universe":
        sc.standard_bases[name] = standard_basis(pool[name], name=name)
    sc.decl_lines.append(f"{' '.join(parts)} = {canonical}")


def _command(sc: Scenario, kind: str, text: str) -> tuple:
    """The args, destination and resolved values of a command."""
    tokens = text.split()[1:]
    destination = None
    if len(tokens) >= 2 and tokens[-2] == "to":
        destination = tokens[-1]
        tokens = tokens[:-2]
        if "\0" in destination:  # no file system takes it, and realpath raises ValueError
            raise ScenarioError(f"output path {destination!r} contains a NUL byte")
        real = os.path.realpath
        if any(real(c.destination) == real(destination) for c in sc.commands if c.destination):
            raise ScenarioError(f"output path {destination!r} used twice")
    if kind == "cascade":
        if "from" not in tokens:
            raise ScenarioError("usage: cascade ATTR... from STATE")
        idx = tokens.index("from")
        attrs, rest = tokens[:idx], tokens[idx + 1:]
        if not attrs or len(rest) != 1:
            raise ScenarioError("usage: cascade ATTR... from STATE")
        tokens = attrs + rest
    kinds = COMMANDS[kind]
    extra = len(tokens) - len(kinds)
    wanted = [
        k.removesuffix("...")
        for k in kinds
        for _ in range(1 + extra if k.endswith("...") else 1)
    ]
    if extra < 0 or len(wanted) != len(tokens):
        raise ScenarioError(f"usage: {kind} {' '.join(kinds).upper()}")
    return tuple(tokens), destination, tuple(map(sc.lookup, tokens, wanted))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; errors carry the offending line number."""
    scenario = Scenario()
    for line, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        statement = raw.split("#", 1)[0].strip()
        if not statement:
            continue
        head = statement.split()[0]
        try:
            if head == "seed":
                _seed(scenario, statement)
            elif head in _DECLARATIONS:
                _declaration(scenario, head, statement)
            elif head in COMMANDS:
                scenario.commands.append(Command(line, head, *_command(scenario, head, statement)))
            else:
                raise ScenarioError(f"unknown statement {head!r}")
        except QmSetsError as exc:  # the one place a parse error gets its line
            raise ScenarioError(str(exc), line) from None
    first = next((c for c in scenario.commands if c.kind in SAMPLING_COMMANDS), None)
    if scenario.seed is None and first is not None:
        raise ScenarioError("a seed is required when sampling commands appear", first.line)
    return scenario
