"""Repository-wide invariants of the library source."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gl2rep").glob("*.py"))


def _asserts(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_library_invariants_are_not_asserts():
    # python -O strips assert statements; invariants raise GL2RepError instead
    assert SOURCES
    found = {path.name: _asserts(ast.parse(path.read_text(), str(path))) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_assert_check_sees_both_forms():
    source = "assert x\nraise AssertionError\nraise AssertionError('y')\nraise ValueError\n"
    assert _asserts(ast.parse(source)) == [1, 2, 3]
