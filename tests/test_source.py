"""Checks on the package source itself."""

import ast
from pathlib import Path

import hybsim

SOURCES = sorted(Path(hybsim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a run check written as one
    # would vanish; every check in the package raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
