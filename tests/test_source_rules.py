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
