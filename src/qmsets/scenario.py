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
path at most once.  Every referenced name must be declared on an earlier
line; names are unique per kind; a seed is required when a sampling command
(cascade) appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .attributes import Attribute
from .errors import QmSetsError, ScenarioError
from .gf2 import Basis, LinearMap, SetKet, check_basis, standard_basis
from .group_action import Permutation, TransformationGroup, generate_group
from .universe import SetPartition, Universe

COMMAND_KINDS = (
    "ket-table",
    "distribution",
    "measure",
    "entropy",
    "join",
    "orbits",
    "evolve",
    "cascade",
    "lattice",
    "pythagoras",
)

SAMPLING_COMMANDS = ("cascade",)


@dataclass(frozen=True)
class Command:
    line: int
    kind: str
    args: tuple[str, ...]
    destination: str | None = None


@dataclass
class Scenario:
    seed: int | None = None
    universes: dict[str, Universe] = field(default_factory=dict)
    bases: dict[str, Basis] = field(default_factory=dict)
    attributes: dict[str, Attribute] = field(default_factory=dict)
    partitions: dict[str, SetPartition] = field(default_factory=dict)
    groups: dict[str, TransformationGroup] = field(default_factory=dict)
    group_generators: dict[str, tuple[Permutation, ...]] = field(default_factory=dict)
    states: dict[str, SetKet] = field(default_factory=dict)
    maps: dict[str, LinearMap] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    decl_lines: list[str] = field(default_factory=list)

    def resolve_basis(self, name: str, line: int) -> Basis:
        if name in self.bases:
            return self.bases[name]
        if name in self.universes:
            return standard_basis(self.universes[name], name=name)
        raise ScenarioError(f"undeclared basis or universe {name!r}", line)

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


def _parse_subset(text: str, line: int) -> list[str]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ScenarioError(f"expected a brace-delimited set, got {text!r}", line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [s.strip() for s in inner.split(",")]


def _parse_cycles(text: str, line: int) -> list[list[str]]:
    chunks = re.findall(r"\(([^()]*)\)", text)
    stripped = re.sub(r"\([^()]*\)", "", text).strip()
    if stripped:
        raise ScenarioError(f"malformed cycle notation {text!r}", line)
    return [chunk.split() for chunk in chunks if chunk.split()]


class _Parser:
    def __init__(self):
        self.scenario = Scenario()
        self.names: dict[str, str] = {}  # name -> kind, for uniqueness per kind

    def declare(self, kind: str, name: str, line: int) -> None:
        key = f"{kind}:{name}"
        if key in self.names:
            raise ScenarioError(f"duplicate {kind} name {name!r}", line)
        self.names[key] = kind

    def universe(self, name: str, line: int) -> Universe:
        if name not in self.scenario.universes:
            raise ScenarioError(f"undeclared universe {name!r}", line)
        return self.scenario.universes[name]

    def parse_line(self, raw: str, line: int) -> None:
        text = raw.split("#", 1)[0].strip()
        if not text:
            return
        head = text.split()[0]
        if head == "seed":
            self._seed(text, line)
        elif head in ("universe", "basis", "attribute", "partition", "group", "state", "map"):
            self._declaration(head, text, line)
        elif head in COMMAND_KINDS:
            self._command(head, text, line)
        else:
            raise ScenarioError(f"unknown statement {head!r}", line)

    def _seed(self, text: str, line: int) -> None:
        parts = text.split()
        if len(parts) != 2:
            raise ScenarioError("seed takes exactly one integer", line)
        try:
            self.scenario.seed = int(parts[1])
        except ValueError:
            raise ScenarioError(f"seed must be an integer, got {parts[1]!r}", line)
        self.scenario.decl_lines.append(f"seed {self.scenario.seed}")

    def _split_decl(self, text: str, line: int):
        # "<kind> <name> [on|in <univ>] = <body>"
        if "=" not in text:
            raise ScenarioError("declaration needs '='", line)
        head, body = text.split("=", 1)
        parts = head.split()
        return parts, body.strip()

    def _declaration(self, kind: str, text: str, line: int) -> None:
        parts, body = self._split_decl(text, line)
        sc = self.scenario
        if kind == "universe":
            if len(parts) != 2:
                raise ScenarioError("usage: universe NAME = e1 e2 ...", line)
            name = parts[1]
            self.declare(kind, name, line)
            labels = body.split()
            try:
                sc.universes[name] = Universe.of(labels)
            except QmSetsError as exc:
                raise ScenarioError(str(exc), line)
            sc.decl_lines.append(f"universe {name} = {' '.join(labels)}")
            return

        if len(parts) != 4 or parts[2] not in ("on", "in"):
            raise ScenarioError(
                f"usage: {kind} NAME on UNIVERSE = ...", line
            )
        name, link, ref = parts[1], parts[2], parts[3]
        self.declare(kind, name, line)
        try:
            if kind == "basis":
                universe = self.universe(ref, line)
                vec_names, vectors = [], []
                for chunk in body.split():
                    if ":" not in chunk:
                        raise ScenarioError(
                            f"basis vector needs name:{{...}}, got {chunk!r}", line
                        )
                    vname, subset = chunk.split(":", 1)
                    vec_names.append(vname)
                    vectors.append(_parse_subset(subset, line))
                sc.bases[name] = check_basis(universe, vectors, name, vec_names)
            elif kind == "attribute":
                universe = self.universe(ref, line)
                mapping = {}
                for chunk in body.split():
                    if ":" not in chunk:
                        raise ScenarioError(
                            f"attribute entry needs element:value, got {chunk!r}", line
                        )
                    elem, value = chunk.split(":", 1)
                    if elem in mapping:
                        raise ScenarioError(f"duplicate element {elem!r}", line)
                    mapping[elem] = value
                sc.attributes[name] = Attribute.from_mapping(name, universe, mapping)
            elif kind == "partition":
                universe = self.universe(ref, line)
                sc.partitions[name] = SetPartition.parse(
                    universe, body.replace(" ", "")
                )
            elif kind == "group":
                universe = self.universe(ref, line)
                gens = tuple(
                    Permutation.from_cycles(universe, _parse_cycles(chunk, line))
                    for chunk in body.split(",")
                    if chunk.strip()
                )
                sc.group_generators[name] = gens
                sc.groups[name] = generate_group(gens, universe)
            elif kind == "state":
                if link == "in":
                    basis = sc.resolve_basis(ref, line)
                else:
                    basis = standard_basis(self.universe(ref, line), name=ref)
                sc.states[name] = SetKet(basis, frozenset(_parse_subset(body, line)))
            elif kind == "map":
                universe = self.universe(ref, line)
                basis = standard_basis(universe, name=ref)
                images = [_parse_subset(chunk, line) for chunk in body.split()]
                if len(images) != len(universe):
                    raise ScenarioError(
                        f"map needs {len(universe)} columns, got {len(images)}", line
                    )
                sc.maps[name] = LinearMap.from_column_subsets(basis, basis, images)
        except ScenarioError:
            raise
        except QmSetsError as exc:
            raise ScenarioError(str(exc), line)
        sc.decl_lines.append(
            f"{kind} {name} {link} {ref} = {self._canonical_body(kind, name, line)}"
        )

    def _canonical_body(self, kind: str, name: str, line: int) -> str:
        sc = self.scenario
        if kind == "basis":
            basis = sc.bases[name]
            return " ".join(
                f"{vn}:{{{','.join(basis.universe.sort_labels(vec))}}}"
                for vn, vec in zip(basis.vector_names, basis.vectors)
            )
        if kind == "attribute":
            attr = sc.attributes[name]
            return " ".join(f"{u}:{attr(u)}" for u in attr.universe)
        if kind == "partition":
            return str(sc.partitions[name])
        if kind == "group":
            return ", ".join(g.cycle_string() for g in sc.group_generators[name])
        if kind == "state":
            ket = sc.states[name]
            return "{" + ",".join(ket.sorted_coords()) + "}"
        if kind == "map":
            m = sc.maps[name]
            universe = m.codomain.universe
            cells = []
            for col in m.columns:
                names = [
                    m.codomain.vector_names[j]
                    for j in range(len(universe))
                    if (col >> j) & 1
                ]
                cells.append("{" + ",".join(names) + "}")
            return " ".join(cells)
        raise ScenarioError(f"unknown declaration kind {kind!r}", line)

    def _command(self, kind: str, text: str, line: int) -> None:
        sc = self.scenario
        tokens = text.split()[1:]
        destination = None
        if len(tokens) >= 2 and tokens[-2] == "to":
            destination = tokens[-1]
            tokens = tokens[:-2]
            if any(c.destination == destination for c in sc.commands):
                raise ScenarioError(f"output path {destination!r} used twice", line)
        if kind == "cascade":
            if "from" not in tokens:
                raise ScenarioError("usage: cascade ATTR... from STATE", line)
            idx = tokens.index("from")
            attrs, rest = tokens[:idx], tokens[idx + 1:]
            if not attrs or len(rest) != 1:
                raise ScenarioError("usage: cascade ATTR... from STATE", line)
            tokens = attrs + rest
        self._check_refs(kind, tokens, line)
        sc.commands.append(Command(line, kind, tuple(tokens), destination))

    def _check_refs(self, kind: str, tokens: list[str], line: int) -> None:
        sc = self.scenario

        def need(name: str, *kinds: str) -> None:
            pools = {
                "universe": sc.universes,
                "basis": sc.bases,
                "attribute": sc.attributes,
                "partition": sc.partitions,
                "group": sc.groups,
                "state": sc.states,
                "map": sc.maps,
            }
            if not any(name in pools[k] for k in kinds):
                raise ScenarioError(
                    f"undeclared {' or '.join(kinds)} {name!r}", line
                )

        if kind == "ket-table":
            if not tokens:
                raise ScenarioError("ket-table needs at least one basis", line)
            for t in tokens:
                need(t, "basis", "universe")
        elif kind == "distribution":
            if len(tokens) != 1:
                raise ScenarioError("usage: distribution STATE", line)
            need(tokens[0], "state")
        elif kind == "measure":
            if len(tokens) != 2:
                raise ScenarioError("usage: measure ATTRIBUTE STATE", line)
            need(tokens[0], "attribute")
            need(tokens[1], "state")
        elif kind == "entropy":
            if len(tokens) != 1:
                raise ScenarioError("usage: entropy PARTITION|ATTRIBUTE", line)
            need(tokens[0], "partition", "attribute")
        elif kind == "join":
            if len(tokens) != 2:
                raise ScenarioError("usage: join NAME NAME", line)
            for t in tokens:
                need(t, "partition", "attribute")
        elif kind == "orbits":
            if len(tokens) != 1:
                raise ScenarioError("usage: orbits GROUP", line)
            need(tokens[0], "group")
        elif kind == "evolve":
            if len(tokens) != 2:
                raise ScenarioError("usage: evolve MAP STATE", line)
            need(tokens[0], "map")
            need(tokens[1], "state")
        elif kind == "cascade":
            for t in tokens[:-1]:
                need(t, "attribute")
            need(tokens[-1], "state")
        elif kind == "lattice":
            if len(tokens) != 1:
                raise ScenarioError("usage: lattice UNIVERSE", line)
            need(tokens[0], "universe")
        elif kind == "pythagoras":
            if len(tokens) != 2:
                raise ScenarioError("usage: pythagoras PARTITION STATE", line)
            need(tokens[0], "partition", "attribute")
            need(tokens[1], "state")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; errors carry the offending line number."""
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parser.parse_line(raw, lineno)
    scenario = parser.scenario
    if scenario.seed is None and any(
        c.kind in SAMPLING_COMMANDS for c in scenario.commands
    ):
        raise ScenarioError("a seed is required when sampling commands appear")
    return scenario
