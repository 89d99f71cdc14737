import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from pvcsp import generators
from pvcsp.core import (
    GAP,
    FiniteMeasure,
    Instance,
    NO,
    OperationTable,
    PromiseTemplate,
    Signature,
    Term,
    ValuedStructure,
    YES,
    brute_force_min,
    check_instance,
    evaluate_cost,
    pvcsp_oracle,
)
from pvcsp.errors import (
    ArityMismatch,
    ResourceGuard,
    UnassignedVariable,
    UnknownSymbol,
)
from pvcsp.values import PLUS_INF, is_finite

D01 = ("0", "1")


def unary_step():
    sig = Signature((("f", 1),))
    return ValuedStructure(
        sig, D01, {"f": {("0",): Fraction(0), ("1",): Fraction(1)}}
    )


def crisp_xor_pair():
    sig = Signature((("f", 2),))
    table = {
        t: (Fraction(0) if t == ("0", "1") else PLUS_INF)
        for t in itertools.product(D01, repeat=2)
    }
    return ValuedStructure(sig, D01, {"f": table})


def test_empty_sum_is_zero():
    s = unary_step()
    inst = Instance(("x",), (), Fraction(0))
    assert evaluate_cost(s, inst, {"x": "0"}) == 0


def test_single_lookup():
    s = unary_step()
    inst = Instance(("x",), (Term("f", ("x",)),), Fraction(0))
    assert evaluate_cost(s, inst, {"x": "1"}) == 1


def test_infinite_summand_dominates():
    s = crisp_xor_pair()
    inst = Instance(
        ("x", "y"),
        (Term("f", ("x", "y")), Term("f", ("y", "x"))),
        Fraction(0),
    )
    assert evaluate_cost(s, inst, {"x": "0", "y": "1"}) is PLUS_INF


def test_evaluate_cost_errors():
    s = unary_step()
    bad_symbol = Instance(("x",), (Term("g", ("x",)),), Fraction(0))
    with pytest.raises(UnknownSymbol):
        evaluate_cost(s, bad_symbol, {"x": "0"})
    bad_arity = Instance(("x",), (Term("f", ("x", "x")),), Fraction(0))
    with pytest.raises(ArityMismatch):
        evaluate_cost(s, bad_arity, {"x": "0"})
    inst = Instance(("x",), (Term("f", ("x",)),), Fraction(0))
    with pytest.raises(UnassignedVariable):
        evaluate_cost(s, inst, {})


def test_brute_force_empty_variables():
    s = unary_step()
    assert brute_force_min(s, Instance((), (), Fraction(0))) == 0


def test_brute_force_odd_cycle_unsat():
    s, inst = generators.xor_odd_cycle()
    assert brute_force_min(s, inst) is PLUS_INF


def test_brute_force_unary_min():
    sig = Signature((("f", 1),))
    s = ValuedStructure(
        sig, D01, {"f": {("0",): Fraction(1, 3), ("1",): Fraction(1, 2)}}
    )
    inst = Instance(("x",), (Term("f", ("x",)),), Fraction(0))
    assert brute_force_min(s, inst) == Fraction(1, 3)


def test_brute_force_refuses_over_cap():
    # a 40-variable xor chain: 2^40 assignments times 39 terms; the guard
    # fires before any assignment is listed
    xor = generators.xor_structure()
    variables = tuple(f"x{i}" for i in range(40))
    terms = tuple(Term("xor1", pair) for pair in zip(variables, variables[1:]))
    inst = Instance(variables, terms, Fraction(0))
    with pytest.raises(ResourceGuard, match="2\\^40 assignments times 39 terms"):
        brute_force_min(xor, inst)
    with pytest.raises(ResourceGuard):
        pvcsp_oracle(PromiseTemplate(xor, xor), inst)


def test_brute_force_is_exhaustive_lower_bound():
    rng = random.Random(7)
    for _ in range(20):
        s = generators.random_structure(rng, domain_size=2)
        inst = generators.random_instance(rng, s, 3, 3, Fraction(0))
        best = brute_force_min(s, inst)
        for labels in itertools.product(s.domain, repeat=len(inst.variables)):
            cost = evaluate_cost(s, inst, dict(zip(inst.variables, labels)))
            assert best <= cost


def test_oracle_non_promise_boundary():
    s = unary_step()
    inst = Instance(("x",), (Term("f", ("x",)),), Fraction(0))
    assert pvcsp_oracle(PromiseTemplate(s, s), inst) == YES


def test_oracle_no_on_unsat_cycle():
    s, inst = generators.xor_odd_cycle()
    assert pvcsp_oracle(PromiseTemplate(s, s), inst) == NO


def test_oracle_gap_region():
    sig = Signature((("f", 1),))
    delta = ValuedStructure(
        sig, D01, {"f": {("0",): Fraction(1), ("1",): Fraction(1)}}
    )
    gamma = ValuedStructure(
        sig, D01, {"f": {("0",): Fraction(0), ("1",): Fraction(0)}}
    )
    inst = Instance(("x",), (Term("f", ("x",)),), Fraction(1, 2))
    assert pvcsp_oracle(PromiseTemplate(delta, gamma), inst) == GAP


def test_oracle_partitions_exactly():
    # GAP is exactly the region where neither the YES nor NO condition holds
    rng = random.Random(11)
    for _ in range(30):
        delta = generators.random_structure(rng, domain_size=2)
        gamma = generators.weaken_structure(rng, delta)
        inst = generators.random_instance(rng, delta, 3, 3)
        cls = pvcsp_oracle(PromiseTemplate(delta, gamma), inst)
        u = inst.threshold
        yes_cond = brute_force_min(delta, inst) <= u
        no_cond = not brute_force_min(gamma, inst) <= u
        if cls == YES:
            assert yes_cond
        elif cls == NO:
            assert no_cond
        else:
            assert not yes_cond and not no_cond


def test_check_instance():
    s = unary_step()
    ok = Term("f", ("x",))
    check_instance(s, Instance(("x",), (ok,), Fraction(0)))
    cases = [
        (Term("g", ("x",)), UnknownSymbol, "term 1: unknown symbol 'g'"),
        (
            Term("f", ("x", "x", "x")),
            ArityMismatch,
            "term 1: symbol 'f' has arity 1, got 3 arguments",
        ),
        (Term("f", ("y",)), UnassignedVariable, "term 1: undeclared variable 'y'"),
    ]
    for bad, error, message in cases:
        with pytest.raises(error) as info:
            check_instance(s, Instance(("x",), (ok, bad), Fraction(0)))
        assert str(info.value) == message


def test_infinity_iff_outside_dom():
    rng = random.Random(3)
    for _ in range(20):
        s = generators.random_structure(rng, domain_size=2)
        inst = generators.random_instance(rng, s, 3, 3, Fraction(0))
        doms = {
            name: {t for t, c in s.table(name).items() if is_finite(c)}
            for name in s.signature.names()
        }
        for labels in itertools.product(s.domain, repeat=len(inst.variables)):
            assignment = dict(zip(inst.variables, labels))
            cost = evaluate_cost(s, inst, assignment)
            outside = any(
                tuple(assignment[v] for v in t.args) not in doms[t.symbol]
                for t in inst.terms
            )
            assert (cost is PLUS_INF) == outside


def test_equal_measures_are_one_object():
    # from_pairs returns the live measure with the same weights, so kept
    # witness measures share one object each; a dropped one is released
    g = OperationTable.from_callable(D01, D01, 2, lambda a, b: min(a, b))
    h = OperationTable.from_callable(D01, D01, 2, lambda a, b: a)
    half = Fraction(1, 2)
    first = FiniteMeasure.from_pairs([(g, half), (h, Fraction(1, 4)), (h, Fraction(1, 4))])
    second = FiniteMeasure.from_pairs([(g, Fraction(1, 2)), (h, half)])
    assert second is first and first.weights == ((g, half), (h, half))
    other = FiniteMeasure.from_pairs([(h, half), (g, half)])
    assert other is not first and other != first
    released = weakref.ref(other)
    del other
    gc.collect()
    assert released() is None
