"""The CLI's stdout, byte for byte, against committed golden files.

For each scenario (the shipped ones plus `golden/wide_bases.qms`, ten
elements with two non-standard bases and a map), `golden/<name>.<format>`
holds the stdout of `qmsets <file> --format <format>` and
`golden/<name>.paper.<format>` that of the same run with `--paper-order`.
Regenerate a file only for an intended change of output.
"""

from pathlib import Path

import pytest

from qmsets.cli import FORMATS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = [
    ROOT / "scenarios" / "lattice_orbits.qms",
    ROOT / "scenarios" / "measurement.qms",
    ROOT / "scenarios" / "paper_table.qms",
    GOLDEN / "wide_bases.qms",
    GOLDEN / "kets_in_bases.qms",
    GOLDEN / "value_order.qms",
]


def first_difference(got: str, want: str) -> str:
    # A short message: pytest's own diff of two 60 kB strings takes minutes.
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: {g!r} != {w!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


@pytest.mark.parametrize("paper_order", [False, True], ids=["rows", "paper"])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_stdout_matches_golden(path, fmt, paper_order, capsys):
    argv = [str(path), "--format", fmt] + (["--paper-order"] if paper_order else [])
    assert main(argv) == 0
    name = f"{path.stem}.paper.{fmt}" if paper_order else f"{path.stem}.{fmt}"
    got, want = capsys.readouterr().out, (GOLDEN / name).read_text(encoding="utf-8")
    if got != want:
        pytest.fail(f"{name}: {first_difference(got, want)}")


# Kept apart from GOLDEN/*.qms, whose stdout alone CI compares under python -O.
TO_FILES = GOLDEN / "to_files"
# `--seed 9` overrides the file's `seed 5`, so the cascade's draws change too.
OUTPUT_VARIANTS = {"": [], ".paper-seed9": ["--paper-order", "--seed", "9"]}


@pytest.mark.parametrize("variant", OUTPUT_VARIANTS, ids=["rows", "paper-seed9"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_output_files_match_golden(fmt, variant, capsys, monkeypatch, tmp_path):
    """`golden/to_files/output_files.qms` writes four of its commands to `to`
    files; `output_files<variant>.<fmt>` beside it holds its stdout, then each
    file it wrote, by name, under a `==> <name> <==` line."""
    monkeypatch.chdir(tmp_path)
    argv = [str(TO_FILES / "output_files.qms"), "--format", fmt] + OUTPUT_VARIANTS[variant]
    assert main(argv) == 0
    got = capsys.readouterr().out + "".join(
        f"==> {p.name} <==\n{p.read_text(encoding='utf-8')}" for p in sorted(tmp_path.iterdir())
    )
    name = f"output_files{variant}.{fmt}"
    want = (TO_FILES / name).read_text(encoding="utf-8")
    if got != want:
        pytest.fail(f"{name}: {first_difference(got, want)}")
