"""`scenario`: the front end, one in-process `qmsets.cli.main` call per op.

Files are generated from a seeded Spec on n in {6, 8, 10}, plus the three
shipped `scenarios/*.qms` read verbatim and described by hand-written Specs.
About a tenth of the ops run a malformed file carrying one defect from
DEFECTS.  The format rotates text | json | csv from op to op and some ops
add --paper-order; an op keeps its flags in every cycle, so its repeats do
the same work.  The oracle derives every expected value from the Spec,
never from the library.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from common import Op, Workload, labels

FORMATS = ("text", "json", "csv")
# Generated files by universe size.  Every file runs once per format, and so
# do the shipped and malformed files, which gives ~200 ops a cycle: the
# median falls among the n = 6 runs, the 95th percentile among the n = 8
# runs, and the n = 10 runs (ket tables of 1024 rows) weigh on ops_per_s.
GENERATED = {6: 46, 8: 10, 10: 1}
DEFECTS = ("unknown-statement", "undeclared-name", "bad-subset", "rank-deficient-basis",
           "partial-attribute", "duplicate-name")
PARTITION_SHAPES = {6: [3, 2, 1], 8: [3, 3, 2], 10: [4, 3, 2, 1]}

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


@dataclass
class Spec:
    """A scenario as plain data: what the file declares and which commands it runs."""

    labels: list[str]
    seed: int | None = None
    bases: dict[str, tuple[list[str], list[frozenset]]] = field(default_factory=dict)
    attrs: dict[str, dict[str, str]] = field(default_factory=dict)
    partitions: dict[str, list[frozenset]] = field(default_factory=dict)
    groups: dict[str, list[list[list[str]]]] = field(default_factory=dict)
    states: dict[str, tuple[str | None, list[str]]] = field(default_factory=dict)
    maps: dict[str, dict[str, frozenset]] = field(default_factory=dict)  # image of each label
    commands: list[tuple[str, list[str], str | None]] = field(default_factory=list)

    def render(self) -> list[str]:
        order = self.order
        lines = [f"seed {self.seed}"] if self.seed is not None else []
        lines.append("universe U = " + " ".join(self.labels))
        for name, (names, vecs) in self.bases.items():
            lines.append(f"basis {name} on U = " + " ".join(
                f"{vn}:{oracle.ket_str(v, order)}" for vn, v in zip(names, vecs)))
        for name, values in self.attrs.items():
            lines.append(f"attribute {name} on U = " + " ".join(
                f"{u}:{values[u]}" for u in self.labels))
        for name, blocks in self.partitions.items():
            lines.append(f"partition {name} on U = " + oracle.partition_str(blocks, order))
        for name, gens in self.groups.items():
            lines.append(f"group {name} on U = " + ", ".join(
                "".join("(" + " ".join(c) + ")" for c in g) for g in gens))
        for name, (basis, coords) in self.states.items():
            link = f"in {basis}" if basis else "on U"
            lines.append(f"state {name} {link} = {{{','.join(coords)}}}")
        for name, cols in self.maps.items():
            lines.append(f"map {name} on U = " + " ".join(
                oracle.ket_str(cols[u], order) for u in self.labels))
        lines.append("")
        for kind, args, dest in self.commands:
            text = f"cascade {' '.join(args[:-1])} from {args[-1]}" if kind == "cascade" \
                else " ".join([kind, *args])
            lines.append(text + (f" to {dest}" if dest else ""))
        return lines

    @property
    def order(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.labels)}

    def state_set(self, name: str) -> frozenset:
        basis, coords = self.states[name]
        if basis is None or basis == "U":
            return frozenset(coords)
        names, vecs = self.bases[basis]
        return oracle.xor_sets(vecs[names.index(c)] for c in coords)

    def state_str(self, name: str) -> str:
        basis, coords = self.states[name]
        if basis is None or basis == "U":
            return oracle.ket_str(coords, self.order)
        pos = {vn: i for i, vn in enumerate(self.bases[basis][0])}
        return oracle.ket_str(coords, pos)

    def blocks_of(self, name: str) -> list[frozenset]:
        if name in self.partitions:
            return self.partitions[name]
        values = self.attrs[name]
        return [frozenset(u for u in self.labels if values[u] == r) for r in set(values.values())]

    def basis(self, name: str) -> tuple[list[str], list[frozenset]]:
        if name in self.bases:
            return self.bases[name]
        return list(self.labels), [frozenset([u]) for u in self.labels]


# -- expected output ------------------------------------------------------

@dataclass
class Expect:
    """What one command must print: exact lines (text, csv), table rows
    (value, probability, decimal, collapsed), and a check of its JSON record."""

    json: object  # callable(record) -> error or None
    lines: list[str] = field(default_factory=list)
    title: list[str] = field(default_factory=list)  # text-format table titles
    rows: list[tuple[str, ...]] = field(default_factory=list)
    count: dict[str, int] = field(default_factory=dict)  # output lines per format


def _dec(q: Fraction) -> str:
    return f"{float(q):.6f}"


def _table(title: str, outcomes, rec_check) -> Expect:
    rows = [(r, oracle.frac_str(p), _dec(p), c) for r, p, c in outcomes]
    return Expect(rec_check, title=[title], rows=rows,
                  count={"text": len(rows) + 2, "csv": len(rows) + 1})


def _outcomes_check(outcomes, order):
    want = [(r, oracle.frac_str(p), c) for r, p, c in outcomes]

    def check(rec):
        got = [(o["value"], o["probability"], oracle.ket_str(o["collapsed"], order))
               for o in rec["outcomes"]]
        return None if got == want else f"outcomes {got} != {want}"

    return check


def _field_check(**want):
    def check(rec):
        got = {k: rec.get(k) for k in want}
        return None if got == want else f"{rec.get('command')}: {got} != {want}"

    return check


def _ket_table_check(spec: Spec, basis_names: list[str]):
    n = len(spec.labels)
    bases = [spec.basis(b) for b in basis_names]

    def check(rows):
        seen = set()
        for row in rows:
            if len(row) != len(bases):
                return f"ket-table row {row} has {len(row)} cells"
            sets = set()
            for cell, (names, vecs) in zip(row, bases):
                try:
                    sets.add(oracle.xor_sets(vecs[names.index(c)] for c in cell))
                except ValueError:
                    return f"ket-table cell {cell} names an unknown basis vector"
            if len(sets) != 1:
                return f"ket-table row {row} is not one vector in every basis"
            seen |= sets
        if len(seen) != 2 ** n or len(rows) != 2 ** n:
            return f"ket-table lists {len(rows)} rows, {len(seen)} distinct subsets, not 2^{n}"
        return None

    return check


def expect(spec: Spec, kind: str, args: list[str]) -> Expect:
    order = spec.order
    if kind == "ket-table":
        table = _ket_table_check(spec, args)
        return Expect(lambda rec: table(rec["rows"]),
                      count={"text": 2 ** len(spec.labels) + 1, "csv": 2 ** len(spec.labels) + 1})
    if kind in ("measure", "distribution"):
        state = spec.state_set(args[-1])
        if kind == "measure":
            outcomes = [(r, Fraction(len(b), len(state)), oracle.ket_str(b, order))
                        for r, b in oracle.outcome_counts(spec.attrs[args[0]], state)]
            title = f"measure {args[0]} {args[1]} = {spec.state_str(args[1])}"
        else:
            outcomes = [(u, Fraction(1, len(state)), "{" + u + "}")
                        for u in sorted(state, key=order.__getitem__)]
            title = f"born {args[0]} = {spec.state_str(args[0])}"
        return _table(title, outcomes, _outcomes_check(outcomes, order))
    if kind == "entropy":
        blocks = spec.blocks_of(args[0])
        h = oracle.entropy([len(b) for b in blocks], len(spec.labels))
        line = f"entropy {args[0]} = {oracle.frac_str(h)} ({_dec(h)})"
        return Expect(_field_check(entropy=oracle.frac_str(h),
                                   partition=oracle.partition_str(blocks, order)), [line])
    if kind == "join":
        joined = oracle.partition_str(
            oracle.intersections(spec.blocks_of(args[0]), spec.blocks_of(args[1])), order)
        return Expect(_field_check(partition=joined), [f"join {args[0]} {args[1]} = {joined}"])
    if kind == "orbits":
        images = [oracle.cycles_to_images(spec.labels, g) for g in spec.groups[args[0]]]
        part = oracle.partition_str(oracle.orbits(spec.labels, images), order)
        size = oracle.group_order(spec.labels, images)
        return Expect(_field_check(partition=part, order=size),
                      [f"orbits {args[0]} = {part} (order {size})"])
    if kind == "evolve":
        cols = spec.maps[args[0]]
        result = oracle.ket_str(oracle.xor_sets(cols[u] for u in spec.state_set(args[1])), order)
        return Expect(_field_check(result=result), [f"evolve {args[0]} {args[1]} = {result}"])
    if kind == "cascade":
        *names, state_name = args
        state = spec.state_set(state_name)
        steps = oracle.cascade([spec.attrs[a] for a in names], state, spec.seed)
        lines = [f"cascade {' '.join(names)} from {state_name} (seed {spec.seed})"]
        recs, pre, path_p = [], state, Fraction(1)
        for i, (name, (r, post, p)) in enumerate(zip(names, steps)):
            lines.append(f"step {i}: {name} -> {r}  pre={oracle.ket_str(pre, order)} "
                         f"post={oracle.ket_str(post, order)} p={oracle.frac_str(p)}")
            recs.append({"attribute": name, "value": r, "pre": oracle.ket_str(pre, order),
                         "post": oracle.ket_str(post, order), "probability": oracle.frac_str(p)})
            pre, path_p = post, path_p * p
        final = oracle.ket_str(pre, order)
        lines.append(f"final = {final} tuple=({','.join(s[0] for s in steps)}) "
                     f"p={oracle.frac_str(path_p)}")
        return Expect(_field_check(steps=recs, final=final), lines)
    if kind == "lattice":
        def check(rec):
            return oracle.check_lattice(rec["diagram"], spec.labels)
        n = len(spec.labels)
        count = 2 + n + oracle.covering_edges(n)  # title, n rank rows, "edges:", edges
        return Expect(check, count={"text": count, "csv": count})
    if kind == "pythagoras":
        state = spec.state_set(args[1])
        blocks = sorted(spec.blocks_of(args[0]), key=lambda b: min(order[u] for u in b))
        terms = " + ".join(str(len(b & state)) for b in blocks)
        k = len(state)
        return Expect(_field_check(left=k, right=k),
                      [f"pythagoras {args[0]} {args[1]}: |S|^2 = {k} = {terms} = {k}"])
    raise ValueError(f"no oracle for command {kind!r}")


def _cells(line: str, fmt: str) -> list[str]:
    return next(csv.reader([line])) if fmt == "csv" else line.split()


def check_run(spec: Spec, fmt: str, out) -> str | None:
    """Check one CLI run of a valid file against the Spec."""
    code, stdout, stderr, files = out
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr.strip()!r}"
    expects = [(expect(spec, kind, args), kind, args, dest)
               for kind, args, dest in spec.commands]
    for e, kind, args, dest in expects:
        if dest is None:
            continue
        text = files.get(dest)
        if text is None:
            return f"no output written to {dest}"
        if fmt == "json":
            err = e.json(json.loads(text))
        elif text != "\n".join(e.lines) + "\n":
            err = f"{dest} holds {text!r}, expected {e.lines}"
        else:
            err = None
        if err:
            return err
    shown = [(e, kind) for e, kind, _, dest in expects if dest is None]
    lines = stdout.splitlines()
    if fmt == "json":
        if len(lines) != len(shown):
            return f"{len(lines)} JSON lines for {len(shown)} commands"
        for (e, kind), line in zip(shown, lines):
            rec = json.loads(line)
            if rec.get("command") != kind:
                return f"record {rec.get('command')} where {kind} was due"
            err = e.json(rec)
            if err:
                return err
        return None
    want_count = sum(e.count.get(fmt, len(e.lines)) for e, _ in shown)
    if len(lines) != want_count:
        return f"{len(lines)} output lines, expected {want_count}"
    present = set(lines)
    cells = [tuple(_cells(line, fmt)) for line in lines]
    row_pool = {}
    for c in cells:
        if len(c) == 4:
            row_pool[c] = row_pool.get(c, 0) + 1
    start = 0
    for e, kind in shown:
        wanted = e.lines + (e.title if fmt == "text" else [])
        missing = [w for w in wanted if w not in present]
        if missing:
            return f"missing output line {missing[0]!r}"
        for row in e.rows:
            if not row_pool.get(row):
                return f"missing table row {row}"
            row_pool[row] -= 1
        if kind == "ket-table":
            err = e.json({"rows": [[_coords(c) for c in row]
                                   for row in cells[start + 1:start + e.count[fmt]]]})
            if err:
                return err
        if kind == "lattice":
            body = "\n".join(lines[start + 1:start + e.count[fmt]])
            err = oracle.check_lattice(body, spec.labels)
            if err:
                return err
        start += e.count.get(fmt, len(e.lines))
    return None


def _coords(cell: str) -> list[str]:
    inner = cell.strip()[1:-1]
    return inner.split(",") if inner else []


# -- generation ----------------------------------------------------------

def _triangular_basis(rng, labs, suffix):
    order = rng.sample(labs, len(labs))
    # Vector j takes half of the j labels before it: the seed picks which,
    # never how many, so every seed's ket tables cost the same.
    vecs = [frozenset([u] + rng.sample(order[:j], j // 2)) for j, u in enumerate(order)]
    vecs[-1] = vecs[-1] | {order[0]}  # never the standard basis
    return [u + suffix for u in order], vecs


def generate(rng, n: int, to_path: str, seed: int) -> Spec:
    labs = labels(rng, n)
    spec = Spec(labs, seed=seed)
    spec.bases["B1"] = _triangular_basis(rng, labs, "'")
    spec.bases["B2"] = _triangular_basis(rng, labs, "''")
    order = rng.sample(labs, n)
    spec.attrs["f"] = {u: str(i % 2 + 1) for i, u in enumerate(order)}
    spec.attrs["g"] = {u: f"v{i // 2}" for i, u in enumerate(order)}
    order = rng.sample(labs, n)
    blocks, start = [], 0
    for size in PARTITION_SHAPES[n]:
        blocks.append(frozenset(order[start:start + size]))
        start += size
    spec.partitions["P"] = blocks
    moved = rng.sample(labs, 5)
    spec.groups["G"] = [[moved[:2]], [moved[2:]]]  # order 6
    spec.states["S"] = (None, sorted(rng.sample(labs, n // 2), key=labs.index))
    names = spec.bases["B1"][0]
    spec.states["T"] = ("B1", sorted(rng.sample(names, n // 2), key=names.index))
    sigma, pi = rng.sample(labs, n), rng.sample(labs, n)
    where = dict(zip(sigma, pi))
    cols = {}
    for j, u in enumerate(sigma):  # unipotent in sigma order, then relabelled: non-singular
        image = {u} | set(rng.sample(sigma[:j], j // 3))
        cols[u] = frozenset(where[v] for v in image)
    spec.maps["M"] = cols
    spec.commands = [
        ("ket-table", ["U", "B1", "B2"], None),
        ("measure", ["f", "S"], None),
        ("measure", ["g", "T"], None),
        ("distribution", ["S"], None),
        ("entropy", ["P"], None),
        ("join", ["f", "P"], to_path),
        ("orbits", ["G"], None),
        ("evolve", ["M", "S"], None),
        ("cascade", ["f", "g", "S"], None),
        ("pythagoras", ["P", "S"], None),
    ]
    return spec


def malform(rng, spec: Spec, defect: str) -> tuple[list[str], int]:
    """The Spec's file with one defect; returns its lines and the defect's line number."""
    lines = spec.render()
    at = {line.split()[0] + " " + line.split()[1]: i
          for i, line in enumerate(lines) if line and "=" in line}
    if defect == "unknown-statement":
        k = rng.randrange(1, len(lines))
        lines.insert(k, "frobnicate U")
    elif defect == "undeclared-name":
        k = len(lines)
        lines.append("measure f Nowhere")
    elif defect == "bad-subset":
        k = at["state S"]
        lines[k] = lines[k].replace("= {", "= ", 1)
    elif defect == "rank-deficient-basis":
        k = at["basis B2"]
        names, vecs = spec.bases["B2"]
        vecs = vecs[:-1] + [vecs[0] ^ vecs[1]]
        lines[k] = "basis B2 on U = " + " ".join(
            f"{vn}:{oracle.ket_str(v, spec.order)}" for vn, v in zip(names, vecs))
    elif defect == "partial-attribute":
        k = at["attribute g"]
        lines[k] = lines[k].rsplit(" ", 1)[0]
    else:  # duplicate-name
        k = at["partition P"] + 1
        lines.insert(k, lines[k - 1])
    return lines, k + 1


# -- shipped scenarios ----------------------------------------------------

def _fs(*labels):
    return frozenset(labels)


def shipped_specs() -> dict[str, Spec]:
    abc = ["a", "b", "c"]
    table = Spec(abc, bases={
        "U'": (["a'", "b'", "c'"], [_fs("a", "b"), _fs("b", "c"), _fs("a", "b", "c")]),
        "U''": (["a''", "b''", "c''"], [_fs("a"), _fs("a", "b"), _fs("a", "c")]),
    }, commands=[("ket-table", ["U", "U'", "U''"], None)])
    measurement = Spec(
        abc, seed=42,
        attrs={"f": {"a": "1", "b": "1", "c": "2"}, "g": {"a": "x", "b": "y", "c": "y"}},
        partitions={"P": [_fs("a"), _fs("b", "c")]},
        states={"S": (None, abc)},
        commands=[("measure", ["f", "S"], None), ("distribution", ["S"], None),
                  ("entropy", ["P"], None), ("join", ["f", "g"], None),
                  ("pythagoras", ["f", "S"], None), ("cascade", ["f", "g", "S"], None)])
    lattice = Spec(
        abc, groups={"G": [[["a", "b"]]], "H": [[["a", "b", "c"]]]},
        states={"S": (None, ["a", "c"])},
        maps={"M": {"a": _fs("b"), "b": _fs("a"), "c": _fs("c")}},
        commands=[("lattice", ["U"], None), ("orbits", ["G"], None),
                  ("orbits", ["H"], None), ("evolve", ["M", "S"], None)])
    return {"paper_table.qms": table, "measurement.qms": measurement,
            "lattice_orbits.qms": lattice}


# -- workload -------------------------------------------------------------

def build(Q, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(path, spec, n, kind, line=None, exact=None, paper_text=False):
        variants = [(fmt, len(ops) % 4 == 0) for fmt in FORMATS]
        if paper_text:
            variants.append(("text", True))
        for fmt, paper in variants:
            ops.append(_op(Q.cli, str(path), spec, n, kind, fmt, paper, line, exact))

    for n, count in GENERATED.items():
        for i in range(count):
            base = workdir / f"n{n}_{i}"
            spec = generate(rng, n, f"{base}.out", seed * 1000 + len(ops))
            base.with_suffix(".qms").write_text("\n".join(spec.render()) + "\n")
            add(base.with_suffix(".qms"), spec, n, f"run.n{n}")
    for name, spec in shipped_specs().items():
        add(Path("scenarios") / name, spec, 3, f"shipped.{name[:-4]}", paper_text=True,
            exact=PAPER_TABLE if name == "paper_table.qms" else None)
    for j, defect in enumerate(DEFECTS):
        n = list(GENERATED)[j % len(GENERATED)]
        spec = generate(rng, n, str(workdir / f"bad{j}.out"), seed)
        text, line = malform(rng, spec, defect)
        path = workdir / f"bad{j}.qms"
        path.write_text("\n".join(text) + "\n")
        add(path, spec, n, f"malformed.{defect}", line=line)
    rng.shuffle(ops)
    return Workload(ops, CORRUPT, byte_outputs=True)


def _op(cli, path, spec, n, kind, fmt, paper, line, exact):
    dests = [d for _, _, d in spec.commands if d]
    argv = [path, "--format", fmt] + (["--paper-order"] if paper else [])

    def run(rep):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        files = {}
        for dest in dests:
            if os.path.exists(dest):
                with open(dest, encoding="utf-8") as fh:
                    files[dest] = fh.read()
                os.remove(dest)
        return code, out.getvalue(), err.getvalue(), files

    def check(out, rep):
        if line is not None:
            code, stdout, stderr, files = out
            if code != 2 or stdout or files or f"line {line}:" not in stderr:
                return f"malformed file: exit {code}, stderr {stderr.strip()!r}, want line {line}"
            return None
        if exact is not None and (fmt, paper) == ("text", True) and out[1] != exact:
            return "paper table is not reproduced byte for byte"
        return check_run(spec, fmt, out)

    def facts(out):
        _, stdout, _, files = out
        return {"cli.bytes_out": len(stdout.encode())
                + sum(len(text.encode()) for text in files.values())}

    return Op(kind, n, run, check, facts)


def _drop_last_line(out):
    code, stdout, stderr, files = out
    return code, stdout.rsplit("\n", 2)[0] + "\n", stderr, files


CORRUPT = {"run.": _drop_last_line}
