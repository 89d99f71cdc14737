"""Metamorphic tests of the three engines: rewrites of an instance that
every field of its SolveAnswer must survive, mapped through the rewrite.

Every field is a function of the instance alone (see test_pins.py), so no
column order, row order or pivot rule may change it:
- shuffling the variables changes nothing;
- shuffling the terms renumbers the eliminated lambda columns;
- reordering and renaming the domain labels renames the eliminated tuples
  and marginals;
- a variable that no term uses adds |D| columns and one row to the
  program, and changes nothing else.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from test_pins import pool

from pvcsp import generators, relax
from pvcsp.core import NO, YES, Instance, ValuedStructure

# the first items of the pins' pool (domains 2 and 3, thresholds below, at
# and above the BLP value), then crisp xor systems, where the AIP says no
POOL_ITEMS = 150
XOR_ITEMS = 30


def instances():
    yield from itertools.islice(pool(), POOL_ITEMS)
    rng = random.Random(5)
    xor = generators.xor_structure()
    for _ in range(XOR_ITEMS):
        yield xor, generators.random_instance(rng, xor, 6, 6, threshold=F(0))


def answers(delta, instance):
    return {name: engine(delta, instance) for name, engine in relax.ENGINES.items()}


def mapped(answer, key=lambda k: k, size=(0, 0)):
    """The answer's fields, its eliminated columns through `key` as a set
    and its program size grown by `size`."""
    columns, rows = answer.program_size
    return (
        answer.verdict,
        answer.blp_value,
        answer.star_provenance,
        answer.aff_value,
        {key(k) for k in answer.eliminated},
        (columns + size[0], rows + size[1]),
    )


def shuffle_variables(rng, delta, instance):
    variables = list(instance.variables)
    rng.shuffle(variables)
    return delta, Instance(tuple(variables), instance.terms, instance.threshold), {}


def shuffle_terms(rng, delta, instance):
    order = list(range(len(instance.terms)))
    rng.shuffle(order)
    terms = tuple(instance.terms[j] for j in order)
    new_index = {j: i for i, j in enumerate(order)}

    def key(k):
        return ("lam", new_index[k[1]], k[2]) if k[0] == "lam" else k

    return delta, Instance(instance.variables, terms, instance.threshold), {"key": key}


def relabel_domain(rng, delta, instance):
    labels = list(delta.domain)
    rng.shuffle(labels)
    name = {a: f"d{a}x" for a in delta.domain}
    tables = {
        symbol: {
            tuple(name[a] for a in t): delta.table(symbol)[t]
            for t in itertools.product(delta.domain, repeat=arity)
        }
        for symbol, arity in delta.signature.symbols
    }
    renamed = ValuedStructure(delta.signature, [name[a] for a in labels], tables)

    def key(k):
        if k[0] == "lam":
            return ("lam", k[1], tuple(name[a] for a in k[2]))
        return ("mu", k[1], name[k[2]])

    return renamed, instance, {"key": key}


def add_unused_variable(rng, delta, instance):
    variables = list(instance.variables)
    variables.insert(rng.randint(0, len(variables)), "unused")
    rewritten = Instance(tuple(variables), instance.terms, instance.threshold)
    return delta, rewritten, {"size": (len(delta.domain), 1)}


REWRITES = (shuffle_variables, shuffle_terms, relabel_domain, add_unused_variable)


def test_answers_survive_rewrites_mapped():
    rng = random.Random(8)
    seen = set()
    for delta, instance in instances():
        before = answers(delta, instance)
        for rewrite in REWRITES:
            new_delta, new_instance, how = rewrite(rng, delta, instance)
            after = answers(new_delta, new_instance)
            for name, answer in before.items():
                expected = mapped(answer, **how)
                assert mapped(after[name]) == expected, (rewrite.__name__, name)
        for name, answer in before.items():
            seen.add((name, answer.verdict))
            seen.add(answer.star_provenance)
            seen.add(bool(answer.eliminated))
    # both verdicts of every engine, every star provenance, and eliminated
    # columns present and absent
    assert {(name, v) for name in relax.ENGINES for v in (YES, NO)} <= seen
    assert {None, relax.FEASIBLE_INTERIOR, relax.OPTIMAL_FACE_INTERIOR} <= seen
    assert {True, False} <= seen
