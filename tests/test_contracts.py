"""Contracts the package keeps with its own benchmark and its own rules."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    # the benchmark's tracer wraps these by name; a rename must fail here
    target = getattr(importlib.import_module(f"pvcsp.{module}"), name, None)
    assert callable(target), f"pvcsp.{module}.{name} is not a callable"


def test_no_assert_statements_in_package():
    # invariants are checks that raise, so they survive `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "pvcsp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
