"""Static checks over the package source."""

import ast
from pathlib import Path

import zarlat

PACKAGE_DIR = Path(zarlat.__file__).resolve().parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises its own errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
