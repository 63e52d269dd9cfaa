"""Scenario-driven command line front end.

Every command maps 1:1 onto a library operation; the CLI only parses,
dispatches, and formats.  Output is deterministic: identical
(scenario, seed, format) inputs give byte-identical output.

Exit codes: 0 success, 1 usage error, 2 parse/semantic error, 3 runtime
operation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable

from . import calculus, universe as up
from .errors import BoundError, QmSetsError, ScenarioError
from .gf2 import _ket_masks
from .group_action import orbit_partition
from .scenario import _MAX_INT_CHARS, Command, Scenario, parse_scenario
from .universe import DEFAULT_ENUMERATION_BOUND, Universe, braced, enumerate_partitions

FORMATS = ("text", "csv", "json")


def _decimal_str(q: Fraction) -> str:
    return f"{float(q):.6f}"


def _aligned(columns: list[list[str]]) -> str:
    widths = [max(map(len, col)) for col in columns]
    padded = [[cell.ljust(w) for cell in col] for col, w in zip(columns, widths)]
    return "\n".join("  ".join(row).rstrip() for row in zip(*padded))


def _csv_str(columns: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(zip(*columns))
    return buf.getvalue().rstrip("\n")


def lattice_render(
    universe: Universe, bound: int = DEFAULT_ENUMERATION_BOUND
) -> str:
    """Text diagram of the partition lattice: ranks plus covering edges.

    Partitions are grouped by block count, discrete at top and indiscrete
    at bottom; an edge p -> q means q covers p in the refinement order
    (p is finer).
    """
    partitions = enumerate_partitions(universe, bound=bound)  # checks the bound first
    texts = [braced(universe.labels_of(m)) for m in range(1 << len(universe))]  # text by mask
    names = {p.masks: "|".join(map(texts.__getitem__, p.masks)) for p in partitions}
    by_rank: dict[int, list[str]] = {}
    for ms, name in names.items():
        by_rank.setdefault(len(ms), []).append(name)
    lines = []
    for rank in sorted(by_rank, reverse=True):
        lines.append(f"rank {rank}: " + "  ".join(sorted(by_rank[rank])))
    # q covers p exactly when q merges two blocks of p; the merged block
    # keeps the place of the first, so the masks stay in canonical order.
    edges = [
        (names[ms], names[ms[:i] + (ms[i] | ms[j],) + ms[i + 1:j] + ms[j + 1:]])
        for ms in names
        for i, j in combinations(range(len(ms)), 2)
    ]
    lines.append("edges:")
    for fine, coarse in sorted(edges):
        lines.append(f"  {fine} -> {coarse}")
    return "\n".join(lines)


class _Runner:
    def __init__(self, seed: int | None, fmt: str, paper_order: bool, bound: int | None):
        self.seed = seed
        self.fmt = fmt
        self.paper_order = paper_order
        # --bound, or nothing so that each library call keeps its default
        self.bounds = {} if bound is None else {"bound": bound}
        self.chunks: list[str] = []
        self.file_outputs: dict[str, str] = {}

    # text, record and csv_text are thunks: only the form the format prints is built.
    # A command with no csv_text prints its text as CSV too.
    def emit(self, cmd: Command, text: Callable, record: Callable,
             csv_text: Callable | None = None) -> None:
        if self.fmt == "json":
            out = json.dumps({"command": cmd.kind, **record()}, sort_keys=True)
        else:
            out = (csv_text if csv_text and self.fmt == "csv" else text)()
        if cmd.destination:
            self.file_outputs[cmd.destination] = out + "\n"
        else:
            self.chunks.append(out)

    # columns: each its header cell, then one cell per row
    def table(self, cmd: Command, title: str | None, columns: Callable, record: Callable) -> None:
        self.emit(
            cmd,
            lambda: _aligned(columns()) if title is None else title + "\n" + _aligned(columns()),
            record,
            lambda: _csv_str(columns()),
        )

    def _cmd_ket_table(self, cmd: Command) -> None:
        bases = cmd.values
        cols = _ket_masks(bases, self.paper_order, **self.bounds)
        # names[i][c]: the vectors of basis i set in coordinate mask c, in basis order
        names: list[list[tuple[str, ...]]] = [[()] for _ in bases]
        for b, ns in zip(bases, names):
            for name in b.vector_names:
                ns.extend([x + (name,) for x in ns])

        def columns() -> list[list[str]]:
            texts = [list(map(braced, ns)) for ns in names]  # each braced once, by mask
            return [[f"{b.name} = {braced(b.vector_names)}"] + list(map(t.__getitem__, col))
                    for b, t, col in zip(bases, texts, cols)]

        self.table(
            cmd, None, columns,
            lambda: {"bases": [b.name for b in bases],
                     "rows": [[ns[c] for ns, c in zip(names, row)] for row in zip(*cols)]},
        )

    def _outcome_table(
        self, cmd: Command, title: str, dist: calculus.OutcomeDistribution, **names: str
    ) -> None:
        self.table(
            cmd, title,
            lambda: [
                ["value"] + [o.value for o in dist.outcomes],
                ["probability"] + [str(o.probability) for o in dist.outcomes],
                ["decimal"] + [_decimal_str(o.probability) for o in dist.outcomes],
                ["collapsed"] + [str(o.collapsed) for o in dist.outcomes],
            ],
            lambda: {**names, "outcomes": [
                {"value": o.value, "probability": str(o.probability),
                 "collapsed": sorted(o.collapsed.to_subset())} for o in dist.outcomes]},
        )

    def _cmd_distribution(self, cmd: Command) -> None:
        (state,) = cmd.values
        self._outcome_table(
            cmd, f"born {cmd.args[0]} = {state}", calculus.born_distribution(state),
            state=cmd.args[0],
        )

    def _cmd_measure(self, cmd: Command) -> None:
        attr, state = cmd.values
        self._outcome_table(
            cmd, f"measure {cmd.args[0]} {cmd.args[1]} = {state}",
            calculus.measure_distribution(attr, state),
            attribute=cmd.args[0], state=cmd.args[1],
        )

    def _cmd_entropy(self, cmd: Command) -> None:
        (part,) = cmd.values
        h = up.logical_entropy(part)
        self.emit(
            cmd,
            lambda: f"entropy {cmd.args[0]} = {h} ({_decimal_str(h)})",
            lambda: {"name": cmd.args[0], "entropy": str(h), "partition": str(part)},
        )

    def _cmd_join(self, cmd: Command) -> None:
        joined = up.join(*cmd.values)
        self.emit(
            cmd,
            lambda: f"join {cmd.args[0]} {cmd.args[1]} = {joined}",
            lambda: {"operands": list(cmd.args), "partition": str(joined)},
        )

    def _cmd_orbits(self, cmd: Command) -> None:
        (group,) = cmd.values
        part = orbit_partition(group)
        self.emit(
            cmd,
            lambda: f"orbits {cmd.args[0]} = {part} (order {len(group)})",
            lambda: {"group": cmd.args[0], "partition": str(part), "order": len(group)},
        )

    def _cmd_evolve(self, cmd: Command) -> None:
        m, state = cmd.values
        result = calculus.evolve(m, state)
        self.emit(
            cmd,
            lambda: f"evolve {cmd.args[0]} {cmd.args[1]} = {result}",
            lambda: {"map": cmd.args[0], "state": cmd.args[1], "result": str(result)},
        )

    def _cmd_cascade(self, cmd: Command) -> None:
        *attr_names, state_name = cmd.args
        *attrs, state = cmd.values
        record = calculus.csca_measure(attrs, state, self.seed)
        self.emit(
            cmd,
            lambda: "\n".join(
                [f"cascade {' '.join(attr_names)} from {state_name} (seed {self.seed})"]
                + [f"step {i}: {step.attribute} -> {step.value}  "
                   f"pre={step.pre_state} post={step.post_state} "
                   f"p={step.probability}"
                   for i, step in enumerate(record.steps)]
                + [f"final = {record.final_state} tuple=({','.join(record.value_tuple)}) "
                   f"p={record.path_probability}"]
            ),
            lambda: {"attributes": attr_names, "state": state_name, "seed": self.seed,
                     "steps": [
                         {"attribute": s.attribute, "value": s.value,
                          "pre": str(s.pre_state), "post": str(s.post_state),
                          "probability": str(s.probability)}
                         for s in record.steps
                     ],
                     "final": str(record.final_state)},
        )

    def _cmd_lattice(self, cmd: Command) -> None:
        (universe,) = cmd.values
        text = lattice_render(universe, **self.bounds)
        self.emit(
            cmd,
            lambda: f"lattice {cmd.args[0]}\n{text}",
            lambda: {"universe": cmd.args[0], "diagram": text},
        )

    def _cmd_pythagoras(self, cmd: Command) -> None:
        part, state = cmd.values
        left, right = calculus.pythagoras_check(part, state)
        bits = state._bits()
        terms = " + ".join(str((m & bits).bit_count()) for m in part.masks)
        self.emit(
            cmd,
            lambda: f"pythagoras {cmd.args[0]} {cmd.args[1]}: |S|^2 = {left} = {terms} = {right}",
            lambda: {"partition": cmd.args[0], "state": cmd.args[1], "left": left, "right": right},
        )


def run_scenario(
    scenario: Scenario,
    fmt: str = "text",
    paper_order: bool = False,
    seed_override: int | None = None,
    bound: int | None = None,
) -> tuple[str, dict[str, str]]:
    """Execute all commands; return (stdout text, {path: file output})."""
    seed = scenario.seed if seed_override is None else seed_override
    runner = _Runner(seed, fmt, paper_order, bound)
    for cmd in scenario.commands:
        try:
            getattr(runner, "_cmd_" + cmd.kind.replace("-", "_"))(cmd)
        except QmSetsError as exc:
            hint = ""
            if isinstance(exc, BoundError) and exc.size is not None:
                hint = f" (--bound {exc.size} lifts it)"
            raise QmSetsError(f"line {cmd.line}: {cmd.kind}: {exc}{hint}") from exc
    text = "\n".join(runner.chunks)
    if text:
        text += "\n"
    return text, runner.file_outputs


def _int_flag(token: str) -> int:
    """A --seed or --bound value: int(token), but a token longer than the seed line's
    limit is a usage error that gives its length and does not echo it."""
    if len(token) > _MAX_INT_CHARS:
        raise argparse.ArgumentTypeError(
            f"must be at most {_MAX_INT_CHARS} characters long, got {len(token)}")
    return int(token)


_int_flag.__name__ = "int"  # argparse names the type of a token int() rejects


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmsets",
        description="Run a scenario file of set-level quantum computations.",
    )
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--seed", type=_int_flag, default=None,
                        help="override the scenario's seed")
    parser.add_argument("--paper-order", action="store_true",
                        help="ket-table rows by descending cardinality, empty set last")
    parser.add_argument("--bound", type=_int_flag, default=None,
                        help="override enumeration bounds (lattice, ket-table)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        with open(args.scenario, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"qmsets: {exc}", file=sys.stderr)
        return 1

    try:
        scenario = parse_scenario(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, numbered as parse_scenario numbers
        # lines; the "x" stands for that byte, so a line break just before it counts.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        print(f"qmsets: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8",
              file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"qmsets: {exc}", file=sys.stderr)
        return 2

    try:
        output, files = run_scenario(
            scenario,
            fmt=args.format,
            paper_order=args.paper_order,
            seed_override=args.seed,
            bound=args.bound,
        )
    except QmSetsError as exc:
        print(f"qmsets: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(output)
    for path, content in files.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            print(f"qmsets: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
