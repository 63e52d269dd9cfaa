"""README's two examples run as they are printed."""

import re
from pathlib import Path

from qmsets.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """The scenario block exits 0, and the library block prints its `# ` lines."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    (scenario,) = [body for lang, body in blocks if not lang]
    (library,) = [body for lang, body in blocks if lang == "python"]
    monkeypatch.chdir(tmp_path)  # where the scenario's `to` files would go
    path = tmp_path / "example.qms"
    path.write_text(scenario, encoding="utf-8")
    assert main([str(path)]) == 0
    assert capsys.readouterr().err == ""
    exec(compile(library, str(README), "exec"), {})
    printed = [line.removeprefix("# ") for line in library.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == printed
