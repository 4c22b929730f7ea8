"""Static checks over the package source."""

import ast
import importlib
import runpy
from functools import reduce
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


def test_benchmark_traced_names_resolve():
    # The benchmark's traced run wraps these names; one that no longer
    # resolves would break only that run, which this suite does not start.
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    traced = runpy.run_path(str(spans_path))["TRACED"]
    missing = []
    for module_name, path, _ in traced:
        module = importlib.import_module(f"zarlat.{module_name}")
        try:
            reduce(getattr, path.split("."), module)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert traced and not missing, f"traced names missing from zarlat: {missing}"
