"""Contracts the package keeps with its own benchmark and its own rules."""

import ast
import gc
import importlib
import importlib.util
import inspect
import pathlib
import random
import types
from fractions import Fraction as F

import pytest
from helpers import dense_lp, fraction_star_point

from pvcsp import exactlp, formats, generators, lattice, relax, theory
from pvcsp.core import Instance, PromiseTemplate, Signature, Term, ValuedStructure

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced():
    return _tracing().TRACED


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


def test_tracer_observers_run_on_traced_calls(tmp_path, capsys):
    # the observers read results (res.point, res.ray, .objective) as well as
    # arguments; run every traced path once under the tracer: the outputs
    # must equal the untraced ones, and layer_metrics must read the spans
    tracing = _tracing()
    pv = types.SimpleNamespace(
        **{m: importlib.import_module(f"pvcsp.{m}") for m, _ in tracing.TRACED}
    )
    xor = generators.xor_structure()
    weighted = ValuedStructure(
        Signature((("w", 1),)), ("0", "1"), {"w": {("0",): F(0), ("1",): F(1)}}
    )
    xor1 = Instance(("x", "y"), (Term("xor1", ("x", "y")),), F(0))
    solves = [
        (xor, xor1, "interior"),
        (weighted, Instance(("x",), (Term("w", ("x",)),), F(1, 4)), "mix"),
        (weighted, Instance(("x",), (Term("w", ("x",)),), F(0)), "face"),
    ]
    for delta, instance, branch in solves:
        reference = fraction_star_point(relax.build_blp(delta, instance), instance.threshold)
        assert reference[-1] == branch
    rng = random.Random(5)
    delta = generators.random_structure(rng)
    template = PromiseTemplate(delta, generators.weaken_structure(rng, delta))
    structure, instance = tmp_path / "xor.pvcsp", tmp_path / "xor1.pvcsp"
    structure.write_text(formats.print_structure(xor))
    instance.write_text(formats.print_instance(xor1))
    argv = ["solve", "--structure", str(structure), "--instance", str(instance)]

    def ops():
        out = [pv.relax.combined_solve(delta, instance) for delta, instance, _ in solves]
        partition = pv.theory.BlockPartition.from_sizes((2,))
        out.append(pv.theory.find_promise_fpol_lp(template, 2, partition=partition))
        out.append(pv.theory.find_frachom_lp(template.delta, template.gamma))
        out.append(pv.cli.main(argv + ["--algorithm", "aip", "--json"]))
        out.append(capsys.readouterr().out)
        return out

    def functions():
        return [getattr(getattr(pv, m), name) for m, name in tracing.TRACED]

    untraced, plain = ops(), functions()
    tracer = tracing.Tracer(pv)
    tracer.instrument()
    try:
        traced = ops()
    finally:
        tracer.restore()
    assert traced == untraced and functions() == plain
    metrics = tracing.layer_metrics(tracer.spans, 1, pv.relax)
    assert metrics["relax.face_share"] * 3 == 1 and metrics["relax.kept_col_ratio"] > 0
    assert metrics["exactlp.solve_lp_calls"] == 2 and metrics["cli.self_s"] > 0


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


def _reads_denominator(node):
    return (isinstance(node, ast.Attribute) and node.attr == "denominator") or (
        isinstance(node, ast.Constant) and node.value == "denominator"
    )


def test_denominators_are_scaled_only_by_int_scaled():
    # "ints over the lcm of the denominators" lives in values.int_scaled;
    # no other module takes an lcm of denominators, by attribute or by
    # attrgetter("denominator")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "pvcsp").glob("*.py"))
        if path.name != "values.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lcm"
        and any(_reads_denominator(sub) for arg in node.args for sub in ast.walk(arg))
    ]
    assert found == []


def test_programs_are_scaled_by_their_builders_only():
    # a program's objective is ints over its scale from its builder on, so
    # the LP kernel takes nothing from values, and affine_min reads the
    # objective and scale as built
    tree = ast.parse((ROOT / "src" / "pvcsp" / "exactlp.py").read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    ]
    assert "errors" in imported
    assert not any("values" in name.split(".") for name in imported)
    source = inspect.getsource(lattice.affine_min)
    calls = [
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    assert calls and "int_scaled" not in calls


def test_witness_search_is_in_ints_up_to_its_weights(monkeypatch):
    # from the cost tables to the tableau the witness search divides only
    # with // on ints: no true division, and no Fraction but the measure's
    # weights, built from the LP's witness (ints over its d) once it is read
    source = (ROOT / "src" / "pvcsp" / "theory.py").read_text(encoding="utf-8")
    nodes = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}

    def lines(name, match):
        return [sub.lineno for sub in ast.walk(nodes[name]) if match(sub)]

    def divides(node):
        return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)

    def makes_fraction(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"

    def reads_witness(node):
        return isinstance(node, ast.Attribute) and node.attr == "witness"

    assert lines("_element_costs", divides) == lines("_search", divides) == []
    assert lines("_element_costs", makes_fraction) == []
    (weights,) = lines("_search", makes_fraction)
    assert weights > min(lines("_search", reads_witness))
    # at run time: one Fraction of ints per table in the measure's support
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(theory, "Fraction", counted)
    rng = random.Random(7)
    delta = generators.random_structure(rng)
    template = PromiseTemplate(delta, generators.weaken_structure(rng, delta))
    found = theory._search(template, theory.BlockPartition.from_sizes([1, 1]), 10**6)
    assert found != theory.NONE_EXISTS
    assert len(made) == len(found.support()) > 1
    assert all(type(a) is int for args in made for a in args)


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


def test_no_solve_path_leaves_cyclic_garbage():
    # every engine, the BLP's value and star point as library calls, and
    # the witness searches free what they build by reference counting: with
    # the cycle collector off, a collection afterwards finds nothing
    rng = random.Random(41)
    structures = [
        generators.xor_structure(),
        generators.horn_structure(),
        generators.submodular_structure(rng),
        generators.random_structure(rng, 3),
    ]
    instances = [(s, generators.random_instance(rng, s, 5, 5)) for s in structures * 2]
    templates = [
        PromiseTemplate(delta, generators.weaken_structure(rng, delta))
        for delta in (generators.random_structure(rng, 2) for _ in range(3))
    ]
    prog = dense_lp(3, [[1, 1, 1], [1, -1, 0]], [2, 0], [-1, 0, 1])
    stars = 0
    gc.disable()
    try:
        gc.collect()
        for delta, instance in instances:
            for engine in relax.ENGINES.values():
                engine(delta, instance)
            blp = relax.build_blp(delta, instance)
            value = relax.blp_value(blp)
            if value <= instance.threshold:
                relax.select_star_point(blp, instance.threshold)
                stars += 1
        exactlp.solve_lp(prog)
        for template in templates:
            theory.find_promise_fpol_lp(template, 2)
            theory.find_frachom_lp(template.delta, template.gamma)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert stars >= 3
