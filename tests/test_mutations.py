"""Mutated valid scenarios through the CLI: an exit code, never a traceback.

Characters are inserted into and deleted from the committed valid scenario
files.  Whatever the result, `main` returns 0, 2 or 3 without raising, each
exit-2 message names its line, and each run finishes in bounded time.
"""

import io
import os
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qmsets.cli import main

ROOT = Path(__file__).resolve().parent.parent
VALID_FILES = ("scenarios/*.qms", "tests/golden/*.qms", "tests/golden/to_files/*.qms")
VALID = [path for pattern in VALID_FILES for path in sorted(ROOT.glob(pattern))]
LINES = [path.read_text(encoding="utf-8").splitlines(keepends=True) for path in VALID]

# Line breaks that str.splitlines() knows and a file line does not (\f, \x1c,
# \x85), the NUL that no path may hold and a byte-order mark; exponents whose
# powers no parser should build, and an integer and a ratio with more digits
# than an int/str digit limit allows; the punctuation of set, cycle and entry
# texts, and a few words.  The one "/" follows a digit, so every `to` path stays
# under the run's own directory.
SPECIAL = ["\0", "\f", "\x1c", "\x85", "\ufeff", "\r", "\n"]
EXPONENTS = ["1e100000000", "-1e-100000000", "2E99999999999", "1e9999999999999999999999",
             "1" * 5000, "1" * 5000 + "/3"]
PLAIN = [" ", "#", "=", ":", ",", "|", "{", "}", "(", ")", "{}", ".", "'",
         "a", "x", "1", "-", "e", "to", "from"]
BUDGET_S = 1.0


@st.composite
def mutants(draw):
    """A valid file, drawn in proportion to its lines, with 1-4 character
    insertions or deletions, each on one of its lines: anywhere, or at the
    start of an entry's value or the end of the line, where a value or a
    `to` path ends."""
    lines = list(draw(st.sampled_from([ls for ls in LINES for _ in ls])))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        spots = [m.end() for m in re.finditer(":", lines[k])] + [len(lines[k].rstrip("\n"))]
        i = draw(st.sampled_from(spots) | st.integers(0, len(lines[k])))
        if draw(st.booleans()):
            insert = draw(st.one_of(map(st.sampled_from, (SPECIAL, EXPONENTS, PLAIN))))
            lines[k] = lines[k][:i] + insert + lines[k][i:]
        else:
            lines[k] = lines[k][:i] + lines[k][i + draw(st.integers(1, 3)):]
    return "".join(lines)


def edited(name: str, old: str, new: str) -> str:
    """A committed valid file with one known edit."""
    return (ROOT / name).read_text(encoding="utf-8").replace(old, new, 1)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
@example(edited("tests/golden/to_files/output_files.qms", "to kets.out", "to kets\0.out"))
@example(edited("scenarios/measurement.qms", "c:2", "c:1e100000000"))
def test_a_mutated_scenario_exits_cleanly(text):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as run_dir:
        os.chdir(run_dir)  # where the scenario's `to` files go
        try:
            path = Path(run_dir, "mutant.qms")
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([str(path)])
            elapsed = time.perf_counter() - start
        finally:
            os.chdir(home)
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 2:
        assert re.match(r"qmsets: line \d+: ", err.getvalue()), err.getvalue()
    assert elapsed < BUDGET_S, f"main took {elapsed:.2f} s"
