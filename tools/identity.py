"""Check that the CLI gives the same bytes in this tree and in another checkout.

    python tools/identity.py OTHER

OTHER is another checkout of the repository, for example the parent commit
made with `git worktree add ../parent HEAD~1`; no network is needed.  Both
trees' `src/` are byte-compiled first, for `python` and `python -O`, so that a
stale `__pycache__` costs neither tree time.  Then each scenario file below
runs as `python [-O] -m qmsets FILE --format F [--paper-order]`, for every
format, with and without `--paper-order`, under `python` and `python -O`,
once against each tree's `src/`.  Each run has an empty temporary directory
of its own as its working directory, and the two runs of a case must agree
on stdout, stderr, the exit code and every file they wrote there (their `to`
files).  Both trees read this tree's files:

- the shipped `scenarios/*.qms`;
- `tests/golden/*.qms` and `tests/golden/to_files/*.qms`;
- the error catalogue, `tests/golden/errors/*.qms`;
- the `scenario` benchmark's generated and malformed files for seeds 1 and
  2, made by perfbench/wl_scenario.py (imported, not changed), with their
  `to` paths made relative so that the files land in the run's directory.

It prints one line per differing run, then the count of differing runs and
the time taken, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
JOBS = 2  # runs at a time; each run is one short python process per tree


def scenario_files(workdir: Path) -> list[Path]:
    golden = ROOT / "tests" / "golden"
    files = [*sorted((ROOT / "scenarios").glob("*.qms")), *sorted(golden.glob("*.qms")),
             *sorted((golden / "to_files").glob("*.qms")),
             *sorted((golden / "errors").glob("*.qms"))]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import wl_scenario

    for seed in SEEDS:
        out = workdir / f"seed{seed}"
        wl_scenario.build(SimpleNamespace(cli=None), seed, out)  # writes the files
        for path in sorted(out.glob("*.qms")):
            path.write_text(path.read_text().replace(f"{out}{os.sep}", ""))
            files.append(path)
    return files


def run(tree: Path, path: Path, python: list[str], args: list[str]) -> tuple:
    """Exit code, stdout, stderr and the files written, of one CLI run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, *python, "-m", "qmsets", str(path), *args],
                              cwd=cwd, env=env, capture_output=True)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(Path(cwd).rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(mine: tuple, other: tuple) -> list[str]:
    (code, out, err, files), (other_code, other_out, other_err, other_files) = mine, other
    found = [f"exit {code} != {other_code}"] if code != other_code else []
    found += [name for name, a, b in (("stdout", out, other_out), ("stderr", err, other_err))
              if a != b]
    found += [f"file {name}" for name in sorted(files.keys() | other_files.keys())
              if files.get(name) != other_files.get(name)]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("other", type=Path, help="another checkout of the repository")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "qmsets").is_dir():
        parser.error(f"{other} has no src/qmsets")
    start = time.perf_counter()
    for tree in (ROOT, other):
        compileall.compile_dir(tree / "src", quiet=1, optimize=[0, 1])
    with tempfile.TemporaryDirectory() as workdir:
        cases = [
            (path, python, ["--format", fmt, *paper])
            for path in scenario_files(Path(workdir))
            for python, fmt, paper in itertools.product(
                ([], ["-O"]), ("text", "csv", "json"), ([], ["--paper-order"]))
        ]

        def check(case):
            return differences(run(ROOT, *case), run(other, *case))

        with ThreadPoolExecutor(JOBS) as pool:
            differing = 0
            for (path, python, args), found in zip(cases, pool.map(check, cases)):
                if found:
                    differing += 1
                    name = path.relative_to(workdir if path.is_relative_to(workdir) else ROOT)
                    print(f"{' '.join(['python', *python, str(name), *args])}: {', '.join(found)}")
    print(f"{differing} of {len(cases)} runs differ ({time.perf_counter() - start:.0f} s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
