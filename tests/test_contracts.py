"""Contracts the package keeps with its own benchmark and its own rules."""

import ast
import importlib
import importlib.util
import inspect
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


def test_traced_observers_read_real_parameters():
    # an observer `_<module>_<name>(self, a, res, index)` reads the traced
    # call's bound arguments as a["key"]; a renamed parameter must fail here,
    # not as failed ops in a traced benchmark run
    observers = {f"_{module}_{name}": (module, name) for module, name in _traced()}
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in observers:
            bound = node.args.args[1].arg
            reads += [
                (*observers[node.name], sub.slice.value)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == bound
                and isinstance(sub.slice, ast.Constant)
            ]
    assert reads, "found no observer that reads an argument"
    missing = []
    for module, name, key in reads:
        fn = getattr(importlib.import_module(f"pvcsp.{module}"), name)
        if key not in inspect.signature(fn).parameters:
            missing.append(f"pvcsp.{module}.{name} has no parameter {key!r}")
    assert missing == []


def test_no_assert_statements_in_package():
    # invariants are checks that raise, so they survive `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "pvcsp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_exact_kernels_have_no_true_division_or_float():
    # the LP and lattice kernels and the relaxations' star point divide only
    # with // on ints or through Fraction(...), so no float can reach a verdict
    found = [
        f"{name}:{node.lineno}"
        for name in ("exactlp.py", "lattice.py", "relax.py")
        for node in ast.walk(
            ast.parse((ROOT / "src" / "pvcsp" / name).read_text(encoding="utf-8"))
        )
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    ]
    assert found == []


def test_no_unused_imports_in_package():
    # every name a module imports is read in it; __init__.py only re-exports
    found = []
    for path in sorted((ROOT / "src" / "pvcsp").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in node.names)
            if name not in read
        ]
    assert found == []
