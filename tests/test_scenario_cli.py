import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qmsets
from qmsets import (
    ScenarioError,
    Universe,
    lattice_render,
    parse_scenario,
    run_scenario,
)
from qmsets.cli import main
from qmsets.scenario import _MAX_INT_CHARS, COMMANDS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BASIC = """\
seed 42
universe U = a b c
attribute f on U = a:1 b:1 c:2
attribute g on U = a:x b:y c:y
partition P on U = {a}|{b,c}
state S on U = {a,b,c}

measure f S
entropy P
cascade f g from S
"""


def _set(labels) -> str:
    return "{" + ",".join(labels) + "}"


@st.composite
def scenario_texts(draw):
    """Small valid scenarios over one universe, in serialized layout."""
    labels = list("abcd")[: draw(st.integers(1, 4))]
    names = [f"v{i}" for i in range(len(labels))]

    def subset(pool):
        return _set(draw(st.lists(st.sampled_from(pool), unique=True)))

    # Vector i adds earlier labels to label i, so the vectors are independent.
    vectors = [
        _set([u] + (draw(st.lists(st.sampled_from(labels[:i]), unique=True)) if i else []))
        for i, u in enumerate(labels)
    ]
    values = [draw(st.sampled_from("12x")) for _ in labels]
    blocks: dict[int, list[str]] = {}
    for u in labels:
        blocks.setdefault(draw(st.integers(0, 2)), []).append(u)
    lines = [
        f"seed {draw(st.integers(0, 99))}",
        f"universe U = {' '.join(labels)}",
        "basis B on U = " + " ".join(f"{n}:{v}" for n, v in zip(names, vectors)),
        "attribute f on U = " + " ".join(f"{u}:{v}" for u, v in zip(labels, values)),
        "partition P on U = " + "|".join(_set(b) for b in blocks.values()),
        f"state S on U = {subset(labels)}",
        f"state T in B = {subset(names)}",
        f"state f on U = {subset(labels)}",  # names are unique per kind only
        "map M on U = " + " ".join(subset(labels) for _ in labels),
    ]
    commands = [
        "ket-table U B", "distribution S", "measure f T", "measure f f", "entropy P",
        "entropy f to h.txt", "join P f", "evolve M S", "cascade f from S", "lattice U",
        "pythagoras f S",
    ]
    if len(labels) > 1:
        pair = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
        lines.append(f"group G on U = ({' '.join(pair)})")
        commands.append("orbits G")
    # A blank line parts declarations from commands, as serialize writes it.
    lines += [""] + draw(st.lists(st.sampled_from(commands), unique=True))
    return "\n".join(lines) + "\n"


# Keywords and names in declared and undeclared forms, mixed with raw text.
_FRAGMENTS = st.one_of(
    st.sampled_from([
        "seed", "universe", "basis", "attribute", "partition", "group", "state", "map",
        *COMMANDS, "U", "P", "f", "S", "a", "b", "c", "on", "in", "=", "to", "from",
        "{a}", "{a,b}", "{}", "{a}|{b,c}", "a:1", "b:2", "c:1", "x:{a}", "(a b)", ",", "#", "42",
    ]),
    st.text(max_size=4),
)
_TEXTS = st.lists(st.lists(_FRAGMENTS, max_size=8).map(" ".join), max_size=8).map("\n".join)


class TestParsing:
    def test_paper_table_scenario_parses(self):
        text = (SCENARIO_DIR / "paper_table.qms").read_text()
        scenario = parse_scenario(text)
        assert set(scenario.bases) == {"U'", "U''"}
        assert scenario.commands[0].kind == "ket-table"

    def test_undeclared_attribute(self):
        with pytest.raises(ScenarioError, match="undeclared attribute 'h'"):
            parse_scenario("universe U = a b\nstate S on U = {a}\nmeasure h S\n")

    def test_duplicate_universe(self):
        with pytest.raises(ScenarioError, match="duplicate universe"):
            parse_scenario("universe U = a b\nuniverse U = c d\n")

    def test_reference_before_declaration(self):
        with pytest.raises(ScenarioError, match="undeclared"):
            parse_scenario("measure f S\n")

    def test_seed_required_for_sampling(self):
        text = BASIC.replace("seed 42\n", "").replace("cascade f g from S", "measure f S")
        parse_scenario(text)  # fine without seed when no sampling command
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(BASIC.replace("seed 42\n", ""))

    def test_missing_seed_is_an_error_on_the_first_sampling_command(self):
        text = BASIC.replace("seed 42\n", "") + "cascade g from S\n"
        with pytest.raises(ScenarioError, match="^line 9: a seed is required"):
            parse_scenario(text)

    def test_second_seed_is_an_error_on_its_line(self):
        with pytest.raises(ScenarioError, match="^line 3: seed given twice"):
            parse_scenario("seed 1\nuniverse U = a\nseed 1\n")

    def test_byte_order_mark_is_ignored(self):
        assert parse_scenario("\ufeff" + BASIC) == parse_scenario(BASIC)

    def test_a_universe_stands_for_one_standard_basis(self):
        scenario = parse_scenario(
            "universe U = a b\nstate S on U = {a}\nstate T on U = {b}\n\nket-table U\n"
        )
        (basis,) = scenario.commands[0].values
        assert scenario.states["S"].basis is basis
        assert scenario.states["T"].basis is basis

    def test_syntax_error_carries_line(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("universe U = a b\nbogus statement\n")

    def test_partial_attribute_rejected(self):
        with pytest.raises(ScenarioError, match="partial"):
            parse_scenario("universe U = a b\nattribute f on U = a:1\n")

    def test_dependent_basis_rejected(self):
        with pytest.raises(ScenarioError, match="rank-deficient"):
            parse_scenario(
                "universe U = a b\nbasis B on U = x:{a} y:{a}\n"
            )

    @pytest.mark.parametrize("command", [
        "entropy P", "join P P", "pythagoras P S", "ket-table U", "state T in U = {x}",
    ])
    def test_ambiguous_name_rejected(self, command):
        # P is a partition and an attribute; U is a universe and a basis.
        text = (
            "universe U = a b c\npartition P on U = {a}|{b,c}\n"
            "attribute P on U = a:1 b:1 c:2\nstate S on U = {a,b}\n"
            f"basis U on U = x:{{a}} y:{{a,b}} z:{{c}}\n{command}\n"
        )
        with pytest.raises(
            ScenarioError, match=f"line {text.count(chr(10))}: ambiguous name"
        ):
            parse_scenario(text)

    @settings(deadline=None)
    @given(_TEXTS)
    def test_arbitrary_text_parses_or_raises_scenario_error(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    @settings(deadline=None)
    @given(scenario_texts())
    @example(BASIC)
    def test_round_trip(self, text):
        scenario = parse_scenario(text)
        again = parse_scenario(scenario.serialize())
        assert again == scenario
        assert again.serialize() == scenario.serialize()


class TestRunning:
    def test_determinism(self):
        scenario_text = BASIC
        out1, _ = run_scenario(parse_scenario(scenario_text))
        out2, _ = run_scenario(parse_scenario(scenario_text))
        assert out1 == out2

    def test_seed_override_changes_only_sampling(self):
        base, _ = run_scenario(parse_scenario(BASIC))
        other, _ = run_scenario(parse_scenario(BASIC), seed_override=43)
        assert base.splitlines()[:5] == other.splitlines()[:5]
        assert "seed 43" in other

    def test_seed_override_leaves_scenario_unchanged(self):
        sc = parse_scenario(BASIC)
        run_scenario(sc, seed_override=43)
        assert sc.seed == 42
        assert run_scenario(sc) == run_scenario(parse_scenario(BASIC))

    def test_cli_matches_library(self, u3):
        from qmsets import Attribute, logical_entropy, SetPartition

        out, _ = run_scenario(parse_scenario(BASIC))
        h = logical_entropy(SetPartition.parse(u3, "{a}|{b,c}"))
        assert f"entropy P = {h.numerator}/{h.denominator}" in out

    def test_json_format_is_valid(self):
        out, _ = run_scenario(parse_scenario(BASIC), fmt="json")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["command"] for r in records] == ["measure", "entropy", "cascade"]

    def test_csv_format(self):
        out, _ = run_scenario(parse_scenario(BASIC), fmt="csv")
        assert "value,probability,decimal,collapsed" in out

    def test_file_destination(self, tmp_path):
        text = BASIC.replace("entropy P", f"entropy P to {tmp_path}/h.txt")
        _, files = run_scenario(parse_scenario(text))
        assert f"{tmp_path}/h.txt" in files
        assert files[f"{tmp_path}/h.txt"].startswith("entropy P = 4/9")

    def test_ket_table_json_keeps_basis_order(self):
        text = "universe U = a b\nbasis V on U = z:{a} y:{a,b}\nket-table V\n"
        out, _ = run_scenario(parse_scenario(text), fmt="json")
        assert json.loads(out)["rows"] == [[[]], [["z"]], [["z", "y"]], [["y"]]]

    def test_equal_numeric_values_ordered_by_text_under_any_hash_seed(self, tmp_path):
        path = tmp_path / "numeric.qms"
        path.write_text(
            "seed 3\nuniverse U = a b c\nattribute f on U = a:1 b:1.0 c:01\n"
            "attribute g on U = a:x b:y c:z\nstate S on U = {a,b,c}\n"
            "measure f S\ncascade f g from S\n"
        )
        src = str(Path(qmsets.__file__).resolve().parent.parent)
        outputs = set()
        for hash_seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from qmsets.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", str(path)],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert "01     1/3" in outputs.pop().splitlines()[2]

    def test_a_state_names_its_first_unknown_vector_under_any_hash_seed(self, tmp_path):
        path = tmp_path / "unknown.qms"
        path.write_text("universe U = a b\nstate S on U = {x,y,z,w}\n")
        src = str(Path(qmsets.__file__).resolve().parent.parent)
        errors = set()
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "qmsets", str(path)],
                                 env=env, capture_output=True, text=True)
            errors.add((run.returncode, run.stderr))
        assert errors == {(2, "qmsets: line 2: 'x' is not a vector of basis 'U'\n")}

    def test_cascade_ends_in_singleton(self):
        out, _ = run_scenario(parse_scenario(BASIC))
        final_line = [l for l in out.splitlines() if l.startswith("final =")][0]
        state = final_line.split()[2]
        assert state.count(",") == 0 and state.startswith("{") and state.endswith("}")


class TestLatticeRender:
    def test_u3_node_count(self, u3):
        text = lattice_render(u3)
        nodes = [
            cell
            for line in text.splitlines()
            if line.startswith("rank")
            for cell in line.split(": ", 1)[1].split("  ")
        ]
        assert len(nodes) == 5

    def test_u1_single_node(self):
        text = lattice_render(Universe.of("a"))
        assert text.splitlines()[0] == "rank 1: {a}"

    @pytest.mark.parametrize("labels", ["abc", "abcd"])
    def test_edges_are_covering_pairs(self, labels):
        from qmsets import SetPartition, enumerate_partitions, refines

        u = Universe.of(labels)
        text = lattice_render(u)
        rendered_edges = {
            tuple(line.strip().split(" -> "))
            for line in text.splitlines()
            if " -> " in line
        }
        parts = enumerate_partitions(u)
        brute = set()
        for p in parts:
            for q in parts:
                if p == q or not refines(p, q):
                    continue
                if any(
                    r not in (p, q) and refines(p, r) and refines(r, q)
                    for r in parts
                ):
                    continue
                brute.add((str(p), str(q)))
        assert rendered_edges == brute

    def test_u7_counts(self):
        from math import comb

        lines = lattice_render(Universe.of("abcdefg"), bound=7).splitlines()
        rank_sizes = {
            int(line.split()[1].rstrip(":")): len(line.split(": ", 1)[1].split("  "))
            for line in lines
            if line.startswith("rank")
        }
        edges = [line for line in lines if " -> " in line]
        assert sum(rank_sizes.values()) == 877
        assert len(edges) == sum(comb(k, 2) * count for k, count in rank_sizes.items())


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main([str(SCENARIO_DIR / "measurement.qms")]) == 0
        assert "measure f S" in capsys.readouterr().out

    def test_usage_error_missing_argument(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qmsets")
        assert [line for line in captured.err.splitlines() if line.startswith("qmsets:")] == [
            "qmsets: error: the following arguments are required: scenario"]

    def test_unwritable_destination_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.qms").write_text(
            "universe U = a b\npartition P on U = {a}|{b}\nentropy P to missing/h.txt\n")
        assert main(["s.qms"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qmsets: [Errno 2] No such file or directory: 'missing/h.txt'\n"

    @pytest.mark.parametrize("declaration, command", [
        ("basis to on U = x:{a} y:{a,b}", "ket-table U to V"),
        ("attribute from on U = a:1 b:2", "cascade from from S"),
        ("universe to = a b", "lattice to"),
    ], ids=["basis-to", "attribute-from", "universe-to"])
    def test_a_keyword_names_no_declaration(
        self, tmp_path, monkeypatch, capsys, declaration, command
    ):
        """A basis named `to` made `ket-table U to V` write a one-basis table
        to a file V, and an attribute named `from` made every cascade over it
        a usage error; such a declaration is refused on its own line."""
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "keyword.qms"
        bad.write_text(
            "seed 1\nuniverse U = a b\nbasis V on U = x:{b} y:{a,b}\nstate S on U = {a,b}\n"
            f"{declaration}\n{command}\n"
        )
        assert main([str(bad)]) == 2
        kind, name = declaration.split()[:2]
        assert capsys.readouterr() == (
            "", f"qmsets: line 5: {kind} name {name!r} is a command keyword\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keyword.qms"]

    def test_usage_error_missing_file(self, capsys):
        assert main(["/nonexistent/path.qms"]) == 1
        assert "qmsets:" in capsys.readouterr().err

    def test_scenario_path_with_a_nul_is_a_usage_error(self, capsys):
        assert main(["x\0y"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qmsets: embedded null byte\n"

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qms"
        bad.write_text("universe U = a a\n")
        assert main([str(bad)]) == 2
        assert "qmsets:" in capsys.readouterr().err

    def test_non_utf8_file_is_a_parse_error_on_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qms"
        bad.write_bytes(b"universe U = a b\nstate S on U = {a}\n# caf\xff\ndistribution S\n")
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qmsets: line 3: ")

    def test_byte_order_mark_gives_the_same_output(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.qms", tmp_path / "marked.qms"
        plain.write_text(BASIC, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + BASIC.encode("utf-8"))
        assert main([str(plain)]) == 0
        expected = capsys.readouterr()
        assert main([str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_bad_byte_after_byte_order_mark_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qms"
        bad.write_bytes(b"\xef\xbb\xbfuniverse U = a b\n# caf\xfe\n")
        assert main([str(bad)]) == 2
        assert capsys.readouterr().err == "qmsets: line 2: byte 0xfe is not UTF-8\n"

    def test_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "empty_state.qms"
        bad.write_text(
            "universe U = a b\nstate S on U = {}\ndistribution S\n"
        )
        assert main([str(bad)]) == 3
        err = capsys.readouterr().err
        assert "distribution" in err

    @pytest.mark.parametrize("command", ["measure f S", "pythagoras f S", "cascade f g from S",
                                         "ket-table U B", "join f Q", "evolve M S"])
    def test_cross_universe_operands(self, tmp_path, capsys, command):
        bad = tmp_path / "cross.qms"
        bad.write_text(
            "seed 1\nuniverse U = a b c\nuniverse V = a b\n"
            "attribute f on U = a:1 b:1 c:2\nattribute g on U = a:x b:y c:y\n"
            "state S on V = {a,b}\nbasis B on V = x:{a} y:{a,b}\n"
            f"partition Q on V = {{a}}|{{b}}\nmap M on U = {{b}} {{a}} {{c}}\n{command}\n"
        )
        assert main([str(bad)]) == 3
        message = "operands are defined on different universes and are not compatible"
        assert capsys.readouterr() == ("", f"qmsets: line 10: {command.split()[0]}: {message}\n")

    def test_duplicate_destination_rejected(self, tmp_path, capsys):
        bad = tmp_path / "dup.qms"
        out = tmp_path / "out.txt"
        bad.write_text(
            "universe U = a b\npartition P on U = {a}|{b}\n"
            f"entropy P to {out}\njoin P P to {out}\n"
        )
        assert main([str(bad)]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alias", ["./out.txt", "d/../out.txt"])
    def test_one_destination_spelled_two_ways_rejected(
        self, tmp_path, monkeypatch, capsys, alias
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        bad = tmp_path / "alias.qms"
        bad.write_text(
            "universe U = a b\npartition P on U = {a}|{b}\npartition Q on U = {a,b}\n"
            f"entropy P to out.txt\nentropy Q to {alias}\n"
        )
        assert main([str(bad)]) == 2
        assert capsys.readouterr() == ("", f"qmsets: line 5: output path {alias!r} used twice\n")
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("earlier", ["", "entropy P to out.txt\n"])
    def test_nul_in_an_output_path_is_a_parse_error(self, tmp_path, monkeypatch, capsys, earlier):
        """open() and os.path.realpath() raise ValueError on a NUL; the path
        is refused on its own line instead, before any output."""
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "nul.qms"
        bad.write_text(
            f"universe U = a b\npartition P on U = {{a}}|{{b}}\n{earlier}join P P to x\0y\n"
        )
        assert main([str(bad)]) == 2
        line = 3 + bool(earlier)
        assert capsys.readouterr() == (
            "", f"qmsets: line {line}: output path 'x\\x00y' contains a NUL byte\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nul.qms"]

    @pytest.mark.parametrize("declaration", [
        "attribute f on U = a: b:2 c:2",
        "attribute f on U = :1 b:2 c:2",
        "basis B on U = x:{a} :{b} z:{c}",
    ])
    def test_empty_key_or_value_is_a_parse_error(self, tmp_path, capsys, declaration):
        bad = tmp_path / "empty.qms"
        bad.write_text(f"universe U = a b c\n{declaration}\n")
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qmsets: line 2: ")
        assert "needs" in captured.err

    @pytest.mark.parametrize("char", list("{},|():"))
    def test_label_or_vector_name_with_a_reserved_character_is_a_parse_error(
        self, tmp_path, capsys, char
    ):
        """`a,b` as a label would print as the set {a,b}; each reserved
        character is refused where it is declared, with the token named."""
        label, vector = f"a{char}b", f"x{char}y"
        for text, line, message in [
            (f"universe U = {label} c\nket-table U\n", 1,
             f"universe label {label!r} contains reserved character {char!r}"),
            (f"universe U = a b\nbasis B on U = {vector}:{{a}} z:{{b}}\nket-table B\n", 2,
             f"basis vector name {vector!r} contains reserved character {char!r}"),
        ]:
            bad = tmp_path / "reserved.qms"
            bad.write_text(text)
            if (char, line) == (":", 2):  # the entry splits at its first ':'
                message = "expected a brace-delimited set, got 'y:{a}'"
            assert main([str(bad)]) == 2
            assert capsys.readouterr() == ("", f"qmsets: line {line}: {message}\n")

    @pytest.mark.parametrize("declaration, name", [
        ("basis B on U = x:{a,a} y:{b} z:{c}", "a"),
        ("basis B on U = x:{a} y:{b} z:{c}\nstate S in B = {x, x}", "x"),
        ("state S on U = {b,c,b}", "b"),
        ("map M on U = {b} {a} {c,c}", "c"),
    ])
    def test_repeated_name_in_a_set_is_a_parse_error(
        self, tmp_path, capsys, declaration, name
    ):
        bad = tmp_path / "repeated.qms"
        text = f"universe U = a b c\n{declaration}\n"
        bad.write_text(text)
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.count("\n")
        assert captured.err.startswith(f"qmsets: line {line}: {name!r} appears twice")

    def test_repeated_label_in_a_partition_block_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "repeated.qms"
        bad.write_text("universe U = a b c\npartition P on U = {a,a}|{b}|{c}\nentropy P\n")
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qmsets: line 2: 'a' appears twice in '{a,a}'\n"

    @pytest.mark.parametrize("group, message", [
        ("(z), (a b)", "label 'z' is not in the universe"),
        ("(a z)", "label 'z' is not in the universe"),
        ("(a b a)", "label 'a' repeated within a cycle"),
    ])
    def test_group_label_outside_the_universe_or_repeated(
        self, tmp_path, capsys, group, message
    ):
        bad = tmp_path / "group.qms"
        bad.write_text(f"universe U = a b c\ngroup G on U = {group}\norbits G\n")
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qmsets: line 2: {message}\n"

    @pytest.mark.parametrize("command, size, hint", [
        ("lattice U", 7, "exceeds enumeration bound 6 (--bound 7 lifts it)"),
        ("ket-table U", 11, "exceeds ket-table bound 10 (--bound 11 lifts it)"),
    ])
    def test_bound_error_names_the_flag_that_lifts_it(
        self, tmp_path, capsys, command, size, hint
    ):
        path = tmp_path / "big.qms"
        path.write_text(f"universe U = {' '.join(f'x{i}' for i in range(size))}\n{command}\n")
        assert main([str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qmsets: line 2: {command.split()[0]}: universe size {size} {hint}\n"
        assert main([str(path), "--bound", str(size), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == command.split()[0]

    def test_python_dash_m_runs_the_cli(self, capsys):
        path = str(SCENARIO_DIR / "measurement.qms")
        assert main([path]) == 0
        expected = capsys.readouterr().out
        src = str(Path(qmsets.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "qmsets", path],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, expected, "")

    def test_identical_runs_byte_identical(self, capsys):
        path = str(SCENARIO_DIR / "measurement.qms")
        assert main([path]) == 0
        first = capsys.readouterr().out
        assert main([path]) == 0
        second = capsys.readouterr().out
        assert first == second


CASCADE = "universe U = a b c\nattribute f on U = a:1 b:2 c:3\nstate S on U = {a}\n"


class TestParseErrorMessages:
    """Each parse error exits 2 with its line and message, and prints nothing."""

    @pytest.mark.parametrize("text, line, message", [
        ("universe U = a b c\nstate S on U = a\n", 2, "expected a brace-delimited set, got 'a'"),
        ("universe U = a b c\ngroup G on U = a b\n", 2, "malformed cycle notation 'a b'"),
        ("universe U = a b c\nattribute f on U = a:1 a:2 b:1 c:1\n", 2,
         "duplicate element 'a'"),
        ("universe U = a b c\nmap M on U = {a} {b}\n", 2, "map needs 3 columns, got 2"),
        ("universe U = a b c\nmap M on U = {b} {a} {c} {a}\n", 2, "map needs 3 columns, got 4"),
        ("seed x\n", 1, "seed must be an integer, got 'x'"),
        ("universe U V = a b\n", 1, "usage: universe NAME = e1 e2 ..."),
        ("universe U = a b c\nstate S U = {a}\n", 2, "usage: state NAME on UNIVERSE = ..."),
        (CASCADE + "cascade f S\n", 4, "usage: cascade ATTR... from STATE"),
        (CASCADE + "cascade from S\n", 4, "usage: cascade ATTR... from STATE"),
        (CASCADE + "cascade f from S S\n", 4, "usage: cascade ATTR... from STATE"),
    ])
    def test_message_and_line(self, tmp_path, capsys, text, line, message):
        bad = tmp_path / "bad.qms"
        bad.write_text(text)
        assert main([str(bad)]) == 2
        assert capsys.readouterr() == ("", f"qmsets: line {line}: {message}\n")

    @pytest.mark.parametrize("kind", ["basis", "attribute", "partition", "group", "map"])
    def test_in_links_a_state_only(self, tmp_path, capsys, kind):
        body = {"basis": "x:{a} y:{b} z:{c}", "attribute": "a:1 b:1 c:2",
                "partition": "{a}|{b,c}", "group": "(a b)", "map": "{b} {a} {c}"}[kind]
        bad = tmp_path / "in.qms"
        bad.write_text(f"universe U = a b c\n{kind} X in U = {body}\n")
        assert main([str(bad)]) == 2
        usage = f"usage: {kind} NAME on UNIVERSE = ..."
        assert capsys.readouterr() == ("", f"qmsets: line 2: {usage}\n")


class TestIntegerFlags:
    """--seed and --bound read an integer token under the seed line's length rule."""

    @pytest.mark.parametrize("flag", ["--seed", "--bound"])
    @pytest.mark.parametrize("length", [_MAX_INT_CHARS + 1, 5000])
    def test_a_long_token_is_a_usage_error_that_does_not_echo_it(self, capsys, flag, length):
        token = "1" * length
        assert main([str(SCENARIO_DIR / "measurement.qms"), flag, token]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qmsets")
        assert [line for line in captured.err.splitlines() if line.startswith("qmsets:")] == [
            f"qmsets: error: argument {flag}: "
            f"must be at most {_MAX_INT_CHARS} characters long, got {length}"]
        assert token not in captured.err

    @pytest.mark.parametrize("flag", ["--seed", "--bound"])
    def test_a_token_at_the_limit_is_read(self, capsys, flag):
        token = "9" * _MAX_INT_CHARS
        assert main([str(SCENARIO_DIR / "measurement.qms"), flag, token]) == 0
        out = capsys.readouterr().out
        assert (f"(seed {token})" in out) == (flag == "--seed")

    @pytest.mark.parametrize("flag", ["--seed", "--bound"])
    def test_a_token_that_is_no_integer_keeps_argparse_words(self, capsys, flag):
        assert main([str(SCENARIO_DIR / "measurement.qms"), flag, "x1"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"qmsets: error: argument {flag}: invalid int value: 'x1'")

    def test_the_seed_line_keeps_the_same_limit(self, tmp_path, capsys):
        path = tmp_path / "seed.qms"
        path.write_text(f"seed {'9' * _MAX_INT_CHARS}\n")
        assert main([str(path)]) == 0
        path.write_text(f"seed {'9' * (_MAX_INT_CHARS + 1)}\n")
        assert main([str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"qmsets: line 1: seed must be at most {_MAX_INT_CHARS} characters long, "
            f"got {_MAX_INT_CHARS + 1}\n"))
