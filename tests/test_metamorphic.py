"""Metamorphic tests of the three engines: rewrites of an instance that
every field of its SolveAnswer must survive, mapped through the rewrite.

Every field is a function of the instance alone (see test_pins.py), so no
column order, row order or pivot rule may change it:
- shuffling the variables changes nothing;
- shuffling the terms renumbers the eliminated lambda columns;
- reordering and renaming the domain labels renames the eliminated tuples
  and marginals;
- renaming the symbols changes nothing;
- a variable that no term uses adds |D| columns and one row to the
  program, and changes nothing else;
- scaling every finite cost and the threshold by q > 0 scales the BLP and
  AIP values by q, and changes nothing else;
- adding c to every finite entry of one symbol's table, and c times that
  symbol's term count k to the threshold, shifts the BLP and AIP values by
  c * k (each term's lambdas sum to 1), and changes nothing else.

A witness search keeps only its verdict under a rewrite of its template:
relabelling the domain and renaming the symbols reorder its candidates, and
scaling every finite cost of both sides by q > 0 scales both sides of every
constraint, so its LP may end at another vertex, and every measure found
must pass its checker.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from test_pins import pool

from pvcsp import generators, relax, theory
from pvcsp.core import (
    NO,
    YES,
    Instance,
    PromiseTemplate,
    Signature,
    Term,
    ValuedStructure,
)
from pvcsp.theory import BlockPartition
from pvcsp.values import PLUS_INF, is_finite

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


def scaled_value(value, q, shift):
    return value * q + shift if value is not None and is_finite(value) else value


def mapped(answer, key=lambda k: k, size=(0, 0), q=1, shift=0):
    """The answer's fields, its values times q plus shift, its eliminated
    columns through `key` as a set and its program size grown by `size`."""
    columns, rows = answer.program_size
    return (
        answer.verdict,
        scaled_value(answer.blp_value, q, shift),
        answer.star_provenance,
        scaled_value(answer.aff_value, q, shift),
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


def rename_symbols(rng, delta, instance):
    # no draw from rng, so the other rewrites see the draws they saw before
    symbol = {s: f"{s}r" for s in delta.signature.names()}
    signature = Signature(tuple((symbol[s], k) for s, k in reversed(delta.signature.symbols)))
    tables = {symbol[s]: delta.table(s) for s in delta.signature.names()}
    terms = tuple(Term(symbol[t.symbol], t.args) for t in instance.terms)
    renamed = ValuedStructure(signature, delta.domain, tables)
    return renamed, Instance(instance.variables, terms, instance.threshold), {}


REWRITES = (
    shuffle_variables,
    shuffle_terms,
    relabel_domain,
    add_unused_variable,
    rename_symbols,
)


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


# cost scales: each takes the finite costs to new denominators or numerators
SCALES = (F(1, 6), F(5, 3), F(7))


def scaled_structure(structure, q):
    """The structure with every finite cost times q; +inf stays."""
    tables = {
        s: {t: v * q if is_finite(v) else v for t, v in structure.table(s).items()}
        for s in structure.signature.names()
    }
    return ValuedStructure(structure.signature, structure.domain, tables)


def test_answers_scale_with_the_costs():
    # every finite cost and the threshold times q: the BLP and AIP values
    # times q; verdict, provenance, eliminated columns and size equal
    seen = set()
    for k, (delta, instance) in enumerate(instances()):
        q = SCALES[k % len(SCALES)]
        scaled = Instance(instance.variables, instance.terms, instance.threshold * q)
        before = answers(delta, instance)
        after = answers(scaled_structure(delta, q), scaled)
        for name, answer in before.items():
            assert mapped(after[name]) == mapped(answer, q=q), (k, name, q)
            seen.add((name, answer.verdict))
            seen.add(answer.star_provenance)
    assert {(name, v) for name in relax.ENGINES for v in (YES, NO)} <= seen
    assert {None, relax.FEASIBLE_INTERIOR, relax.OPTIMAL_FACE_INTERIOR} <= seen


# cost shifts: a negative one, an int, and one that changes the objective's
# scale (the lcm of the costs' denominators)
SHIFTS = (F(-3, 2), F(5), F(1, 3))


def shifted_structure(structure, symbol, c):
    """The structure with c added to every finite entry of one symbol's
    table; +inf stays."""
    tables = {s: structure.table(s) for s in structure.signature.names()}
    tables[symbol] = {t: v + c if is_finite(v) else v for t, v in tables[symbol].items()}
    return ValuedStructure(structure.signature, structure.domain, tables)


def test_answers_shift_with_one_symbols_costs():
    # c added to every finite entry of a seeded symbol's table and c * k to
    # the threshold, k that symbol's term count: the BLP and AIP values
    # plus c * k; verdict, provenance, eliminated columns and size equal
    rng = random.Random(17)
    seen = set()
    used = 0
    for k, (delta, instance) in enumerate(instances()):
        symbol = rng.choice(delta.signature.names())
        count = sum(term.symbol == symbol for term in instance.terms)
        used += count > 0
        before = answers(delta, instance)
        for c in SHIFTS:
            u = instance.threshold + c * count
            shifted = Instance(instance.variables, instance.terms, u)
            after = answers(shifted_structure(delta, symbol, c), shifted)
            for name, answer in before.items():
                assert mapped(after[name]) == mapped(answer, shift=c * count), (k, name, c)
        for name, answer in before.items():
            seen.add((name, answer.verdict))
            seen.add(answer.star_provenance)
    assert used >= 120
    assert {(name, v) for name in relax.ENGINES for v in (YES, NO)} <= seen
    assert {None, relax.FEASIBLE_INTERIOR, relax.OPTIMAL_FACE_INTERIOR} <= seen


def rename_template(rng, template):
    """The template with its domain reordered and relabelled, and its
    symbols renamed, the same way on both sides."""
    delta, gamma = template.delta, template.gamma
    labels = list(delta.domain)
    rng.shuffle(labels)
    name = {a: f"d{a}x" for a in delta.domain}
    symbol = {s: f"{s}r" for s in delta.signature.names()}
    signature = Signature(tuple((symbol[s], k) for s, k in delta.signature.symbols))

    def renamed(structure):
        tables = {
            symbol[s]: {
                tuple(name[a] for a in t): v for t, v in structure.table(s).items()
            }
            for s in structure.signature.names()
        }
        return ValuedStructure(signature, [name[a] for a in labels], tables)

    return PromiseTemplate(renamed(delta), renamed(gamma))


def partitioned(*sizes):
    partition = BlockPartition.from_sizes(list(sizes))
    return lambda tpl: theory.find_promise_fpol_lp(tpl, partition.arity, partition=partition)


# (domain size, search); the unrestricted m = 2 and m = 3 searches on
# domain 2 only, since on domain 3 an m = 2 LP has thousands of columns
SEARCHES = (
    (2, lambda tpl: theory.find_frachom_lp(tpl.delta, tpl.gamma)),
    (2, lambda tpl: theory.find_promise_fpol_lp(tpl, 2)),
    (2, lambda tpl: theory.find_promise_fpol_lp(tpl, 3)),
    (2, partitioned(2)),
    (2, partitioned(1, 1)),
    (2, partitioned(3)),
    (2, partitioned(2, 1)),
    (3, lambda tpl: theory.find_frachom_lp(tpl.delta, tpl.gamma)),
    (3, partitioned(2)),
)
TEMPLATES = 20


def valid(result, template):
    if isinstance(result, theory.PromiseFpol):
        return theory.check_promise_fpol(result, template)[0]
    return theory.check_fractional_homomorphism(result, template.delta, template.gamma)[0]


def random_template(rng, size):
    """Gamma weakened from Delta, or drawn afresh, so both verdicts occur."""
    delta = generators.random_structure(rng, size)
    if rng.random() < 0.5:
        return PromiseTemplate(delta, generators.weaken_structure(rng, delta))
    costs = [F(0), F(1, 2), F(1), F(2), PLUS_INF]
    tables = {
        s: {t: rng.choice(costs) for t in delta.table(s)} for s in delta.signature.names()
    }
    return PromiseTemplate(delta, ValuedStructure(delta.signature, delta.domain, tables))


def test_witness_verdicts_survive_relabelling():
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    for size, search in SEARCHES:
        for _ in range(TEMPLATES):
            template = random_template(rng, size)
            renamed = rename_template(rng, template)
            results = [search(template), search(renamed)]
            found = [r != theory.NONE_EXISTS for r in results]
            assert found[0] == found[1]
            verdicts[found[0]] += 1
            for r, tpl in zip(results, (template, renamed)):
                if r != theory.NONE_EXISTS:
                    assert valid(r, tpl)
    assert min(verdicts.values()) >= 40


def test_witness_verdicts_survive_cost_scaling():
    # every finite cost of Delta and Gamma times q scales both sides of
    # every constraint by q: equal verdicts, and a measure found on either
    # template passes its checker on both
    rng = random.Random(29)
    verdicts = {True: 0, False: 0}
    for size, search in SEARCHES:
        for _ in range(TEMPLATES // 2):
            template = random_template(rng, size)
            delta, gamma = template.delta, template.gamma
            templates = [template] + [
                PromiseTemplate(scaled_structure(delta, q), scaled_structure(gamma, q))
                for q in SCALES
            ]
            results = [search(tpl) for tpl in templates]
            found = {r != theory.NONE_EXISTS for r in results}
            assert len(found) == 1
            verdicts[found.pop()] += 1
            for r, tpl in zip(results, templates):
                if r != theory.NONE_EXISTS:
                    assert valid(r, template) and valid(r, tpl)
    assert min(verdicts.values()) >= 20
