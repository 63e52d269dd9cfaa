"""Every parse error of the scenario parser, run through the CLI.

`golden/errors/<case>.qms` is a small scenario that stops at one
`raise ScenarioError(` in scenario.py.  Its first two lines are comments:
`# raise: <message>` names that raise by its message's literal text, with
`{}` for each replacement field and `{{` and `}}` for a literal brace, as in a
format string, and `# exit <code>: <line>` gives what
`main` returns and the one line it prints to stderr.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import qmsets
from qmsets.cli import main

CASES = sorted((Path(__file__).resolve().parent / "golden" / "errors").glob("*.qms"))
SCENARIO_PY = Path(qmsets.__file__).parent / "scenario.py"
HEADER = re.compile(r"# raise: (.*)\n# exit (\d+): (.*)\n")


def header(path):
    m = HEADER.match(path.read_text(encoding="utf-8"))
    assert m, f"{path.name} has no '# raise:' and '# exit N:' header"
    return m.group(1), int(m.group(2)), m.group(3)


def template(message: ast.expr) -> str:
    """A raise's message as literal text, `{}` for each replacement field and
    a literal brace doubled, so that `f"{{}}"` and `f"{x}"` differ."""
    if isinstance(message, ast.Constant):
        return message.value.replace("{", "{{").replace("}", "}}")
    if isinstance(message, ast.JoinedStr):
        return "".join(map(template, message.values))
    return "{}"  # a replacement field, or a message passed through, such as str(exc)


def source_templates() -> Counter:
    tree = ast.parse(SCENARIO_PY.read_text(encoding="utf-8"))
    return Counter(
        template(node.exc.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None)) == "ScenarioError"
    )


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_error_case(path, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where a case's `to` files would go if it parsed
    raised, code, stderr = header(path)
    message = "".join(
        {"{}": ".+", "{{": r"\{", "}}": r"\}"}.get(part, re.escape(part))
        for part in re.split(r"(\{\}|\{\{|\}\})", raised)
    )
    assert re.fullmatch(r"qmsets: line \d+: " + message, stderr), (raised, stderr)
    assert main([str(path)]) == code
    assert capsys.readouterr() == ("", stderr + "\n")


def test_every_scenario_error_has_a_case():
    """A new raise, or a changed message, needs its case here: each raise
    site is matched by the literal text of its message."""
    sources = source_templates()
    cases = Counter(header(path)[0] for path in CASES)
    assert sources, "found no raise ScenarioError( in scenario.py"
    missing = {t: n - cases[t] for t, n in sources.items() if cases[t] < n}
    assert not missing, f"raises with no case in golden/errors: {missing}"
    stale = sorted(set(cases) - set(sources))
    assert not stale, f"cases for raises scenario.py no longer has: {stale}"
