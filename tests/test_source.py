"""Checks on the program source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hurwitz"


def test_no_assert_in_the_program():
    # python -O strips assert statements, so an oracle written as one
    # would be skipped silently; the program raises ConsistencyError
    files = sorted(SRC.glob("*.py"))
    assert files
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
