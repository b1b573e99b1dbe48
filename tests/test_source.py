"""Checks on the library source itself."""

import ast
from pathlib import Path

import burnside

SOURCES = sorted(Path(burnside.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so a check a proof relies on must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1 and not found, found
