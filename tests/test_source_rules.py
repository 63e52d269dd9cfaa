"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

import qmsets

SOURCES = sorted(Path(qmsets.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips asserts, so no correctness check may live in one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_every_command_has_a_handler():
    from qmsets.cli import _Runner
    from qmsets.scenario import COMMANDS

    handlers = {name[len("_cmd_"):] for name in vars(_Runner) if name.startswith("_cmd_")}
    assert handlers == {kind.replace("-", "_") for kind in COMMANDS}


def test_every_declaration_kind_has_a_pool():
    from qmsets.scenario import _DECLARATIONS, _POOLS

    assert _DECLARATIONS.keys() == _POOLS.keys()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_distributions_skip_the_public_checks(path):
    """The library builds each distribution valid, through OutcomeDistribution._of;
    the public constructor's checks are for values from outside."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "OutcomeDistribution"
    ]
    assert not lines, f"{path.name} calls OutcomeDistribution( at lines {lines}"


def test_only_generate_group_marks_a_group_closed():
    """orbit_partition trusts TransformationGroup._closed and skips its group
    check, so only generate_group, which builds the closure, may set it."""
    setters = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "generate_group"
            and path.name == "group_action.py" for node in ast.walk(fn)
        }
        setters += [
            (path.name, node.lineno, id(node) in allowed) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "_closed"
            or isinstance(node, ast.Attribute) and node.attr == "_closed"
            and not isinstance(node.ctx, ast.Load)
        ]
    outside = [(name, line) for name, line, inside in setters if not inside]
    assert not outside, f"_closed is set outside generate_group at {outside}"
    assert any(inside for _, _, inside in setters), "generate_group no longer sets _closed"


def test_only_require_same_universe_raises_compatibility_error():
    """Every op that compares two operands' universes calls
    require_same_universe, so each raises its one message.  join_attributes
    names both attributes, and generate_group compares its generators with a
    universe, so they keep their own."""
    raisers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        raises = {
            id(node): None for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "CompatibilityError"
        }
        for fn in ast.walk(tree):  # breadth first, so an inner function names last
            if isinstance(fn, ast.FunctionDef):
                raises.update({id(node): fn.name for node in ast.walk(fn) if id(node) in raises})
        raisers |= {(path.name, name) for name in raises.values()}
    assert raisers == {("universe.py", "require_same_universe"),
                       ("attributes.py", "join_attributes"),
                       ("group_action.py", "generate_group")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_kets_skip_standard_ket(path):
    """standard_ket checks each label and builds a fresh standard basis; the
    library already holds masks and builds its kets with SetKet._of."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "standard_ket"
    ]
    assert not lines, f"{path.name} calls standard_ket( at lines {lines}"


def test_only_the_basis_constructor_compares_with_the_single_bits():
    """Basis.__init__ decides is_standard once, where the basis is built;
    every reader reads that attribute and compares no masks again."""
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {
            id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Basis" and path.name == "gf2.py"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        calls += [
            (path.name, node.lineno, id(node) in inside) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_single_bits"
        ]
    outside = [(name, line) for name, line, ok in calls if not ok]
    assert not outside, f"_single_bits( is called outside Basis.__init__ at {outside}"
    assert any(ok for _, _, ok in calls), "Basis.__init__ no longer calls _single_bits("


def test_only_parse_scenario_numbers_parse_errors():
    """parse_scenario gives every parse error its line, in one handler around
    each statement; the readers it calls know no line, so none can forget it."""
    path = Path(qmsets.__file__).parent / "scenario.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    inside = {
        id(node) for fn in functions if fn.name == "parse_scenario" for node in ast.walk(fn)
    }
    with_line = [
        fn.name for fn in functions if fn.name != "parse_scenario"
        and "line" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    ]
    assert not with_line, f"functions with a line parameter: {with_line}"
    numbered = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ScenarioError" and id(node) not in inside
        and len(node.exc.args) + len(node.exc.keywords) != 1
    ]
    assert not numbered, f"raise ScenarioError( with more than a message at lines {numbered}"


TESTS = sorted(Path(__file__).parent.rglob("*.py"))


def test_one_oracle_per_definition():
    """tests/reference.py states each definition once, so no other test
    module draws with blake2b, conftest.py holds fixtures only, and no test
    imports the benchmark package or its oracle."""
    draws, imports = [], []
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if "blake2b" in names and path.name != "reference.py":
                draws.append((path.name, node.lineno))
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("perfbench", "oracle") for m in modules):
                imports.append((path.name, node.lineno))
    assert not draws, f"blake2b outside tests/reference.py at {draws}"
    assert not imports, f"imports of perfbench or its oracle at {imports}"

    conftest = Path(__file__).parent / "conftest.py"
    body = ast.parse(conftest.read_text(encoding="utf-8")).body
    others = [
        node.lineno for node in body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.FunctionDef) and any(
            ast.unparse(d).split("(")[0] in ("pytest.fixture", "fixture")
            for d in node.decorator_list))
    ]
    assert not others, f"conftest.py defines more than fixtures at lines {others}"


def test_every_module_level_import_is_used():
    """No module in src/ or tests/ imports a name it never uses; __init__.py
    imports to re-export, and `from __future__` names a compiler feature."""
    unused = []
    for path in [p for p in SOURCES if p.name != "__init__.py"] + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, node.lineno, n) for n in names if n not in used]
    assert not unused, f"unused imports: {unused}"
