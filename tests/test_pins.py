"""Answers that no pivot rule may change, on seeded pools, pinned line by
line in data/: every engine's SolveAnswer (solve_pins.txt), the AIP value
of xor systems (aip_pins.txt) and the witness-search verdict, found or
none-exists (witness_pins.txt).

Every field of a SolveAnswer is a function of the instance alone: the BLP
value is the optimum, the eliminated columns are the +inf tuples plus the
columns outside the support of the region or of its optimal face, the
refined AIP keeps the rest, and the provenance is the optimal face exactly
when the value equals u and the objective is not constant on the region.
No pivot rule, basis or row order may change a line.

The pool mixes domains 2 and 3, costs k/q with q up to 9 and some +inf;
its thresholds sit below the BLP value, at it and above it, so the BLP
gate and the interior, mix and optimal-face star points all occur.

The AIP value of a crisp xor system is 0 or +inf, and the AIP is exact on
xor: each value is checked against satisfiability over GF(2) as well.  A
witness search's measure is whichever vertex the LP finds, so only the
verdict is pinned, and every found measure is checked instead.

A change meant to alter answers regenerates the files with

    PYTHONPATH=src python tests/test_pins.py

and says which lines changed and why.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from fractions import Fraction as F

from helpers import gf2_satisfiable

from pvcsp import generators, relax, theory
from pvcsp.core import Instance, PromiseTemplate, Signature, Term, ValuedStructure
from pvcsp.values import PLUS_INF, format_value

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOL_SIZE = 300
# offsets from the BLP value: below it (the BLP gate), at it (the optimal
# face, or the interior when the objective is constant on the region), just
# above it (mostly the mix) and far above it (the interior)
OFFSETS = (F(-1, 3), F(0), F(0), F(1, 9), F(1, 2), F(20))


def structure(rng: random.Random) -> ValuedStructure:
    """Symbols of arity 1 and 2 over domain 2 or 3; costs k / q, q from 1
    to 9, mixed within each table, and +inf now and then."""
    domain = tuple(str(i) for i in range(rng.choice((2, 3))))
    symbols = (("f", 1), ("g", 2))

    def cost():
        if rng.random() < 0.08:
            return PLUS_INF
        return F(rng.randint(0, 12), rng.randint(1, 9))

    tables = {
        name: {t: cost() for t in itertools.product(domain, repeat=arity)}
        for name, arity in symbols
    }
    return ValuedStructure(Signature(symbols), domain, tables)


def pool():
    """(delta, instance) pairs of the seeded pool, thresholds included."""
    rng = random.Random(2020)
    for k in range(POOL_SIZE):
        delta = structure(rng)
        probe = generators.random_instance(rng, delta, 6, 6, threshold=F(0))
        value = relax.blp_value(relax.build_blp(delta, probe))
        offset = OFFSETS[k % len(OFFSETS)]
        u = F(len(probe.terms), 2) + offset if value is PLUS_INF else value + offset
        yield delta, Instance(probe.variables, probe.terms, u)


def _value(v) -> str:
    return "-" if v is None else format_value(v)


def pin_lines() -> list[str]:
    """One line per instance and engine: the verdict, BLP value, star
    provenance, AIP value, program size, and the count and a short sha256
    of the repr of the eliminated columns."""
    lines = []
    for k, (delta, instance) in enumerate(pool()):
        for engine in sorted(relax.ENGINES):
            a = relax.ENGINES[engine](delta, instance)
            digest = hashlib.sha256(repr(a.eliminated).encode()).hexdigest()[:12]
            lines.append(
                f"{k} {engine} u={instance.threshold} {a.verdict}"
                f" blp={_value(a.blp_value)} star={a.star_provenance or '-'}"
                f" aip={_value(a.aff_value)}"
                f" size={a.program_size[0]}x{a.program_size[1]}"
                f" eliminated={len(a.eliminated)}:{digest}"
            )
    return lines


AIP_POOL_SIZE = 100
AIP_SIZES = (20, 30, 40, 50, 60)


def xor_pool():
    """(instance, parity equations) of seeded xor systems: n variables and
    n equations of arity 2 or 3, planted (satisfiable) at even k."""
    rng = random.Random(2021)
    variables = {n: tuple(f"x{i}" for i in range(n)) for n in AIP_SIZES}
    for k in range(AIP_POOL_SIZE):
        n = AIP_SIZES[k // 2 % len(AIP_SIZES)]
        hidden = [rng.randint(0, 1) for _ in range(n)]
        terms, equations = [], []
        for _ in range(n):
            idx = rng.sample(range(n), rng.choice((2, 3)))
            parity = sum(hidden[i] for i in idx) % 2 if k % 2 == 0 else rng.randint(0, 1)
            symbol = f"xor{parity}" + ("_3" if len(idx) == 3 else "")
            terms.append(Term(symbol, tuple(variables[n][i] for i in idx)))
            equations.append((sum(1 << i for i in idx), parity))
        yield Instance(variables[n], tuple(terms), F(0)), equations


def aip_lines() -> list[str]:
    """One line per xor system: its size and aip_value of build_aip, each
    value checked against GF(2) satisfiability."""
    xor = generators.xor_structure()
    lines = []
    for k, (instance, equations) in enumerate(xor_pool()):
        value = relax.aip_value(relax.build_aip(xor, instance))
        expected = F(0) if gf2_satisfiable(equations) else PLUS_INF
        if value != expected:
            raise AssertionError(f"xor system {k}: aip {value}, GF(2) gives {expected}")
        lines.append(f"{k} n={len(instance.variables)} aip={format_value(value)}")
    return lines


# (name, arity m or None for the fractional homomorphism search, block
# sizes or None for unrestricted, symbols, symbol arity, infinite costs):
# the shapes of the benchmark's witness_search workload
WITNESS_SHAPES = (
    ("m2", 2, None, 2, 2, False),
    ("[2]", 2, (2,), 2, 2, False),
    ("[1,1]", 2, (1, 1), 2, 2, False),
    ("frachom", None, None, 2, 2, True),
    ("[3]", 3, (3,), 1, 2, False),
    ("[2,1]", 3, (2, 1), 2, 1, False),
    ("[1,1,1]", 3, (1, 1, 1), 1, 1, False),
    ("m3", 3, None, 1, 1, False),
)
WITNESS_PER_SHAPE = 32


def witness_searches():
    """(shape name, template, partition, result) for 32 seeded domain-2
    templates of every shape; Gamma is Delta weakened."""
    rng = random.Random(2022)
    for name, m, sizes, symbols, arity, allow_inf in WITNESS_SHAPES:
        for _ in range(WITNESS_PER_SHAPE):
            delta = generators.random_structure(rng, 2, symbols, arity, allow_inf)
            while any(a != arity for _, a in delta.signature.symbols):
                delta = generators.random_structure(rng, 2, symbols, arity, allow_inf)
            template = PromiseTemplate(delta, generators.weaken_structure(rng, delta))
            partition = theory.BlockPartition.from_sizes(sizes) if sizes else None
            if m is None:
                result = theory.find_frachom_lp(delta, template.gamma)
            else:
                result = theory.find_promise_fpol_lp(template, m, partition=partition)
            yield name, template, partition, result


def witness_lines() -> list[str]:
    """One line per search: its shape and verdict.  A found measure is
    checked, not pinned: the promise-polymorphism check plus block symmetry
    of every table in its support, or the fractional-homomorphism check."""
    lines = []
    for k, (name, template, partition, result) in enumerate(witness_searches()):
        if result == theory.NONE_EXISTS:
            lines.append(f"{k} {name} none-exists")
            continue
        if name == "frachom":
            ok, _ = theory.check_fractional_homomorphism(result, template.delta, template.gamma)
        else:
            ok, _ = theory.check_promise_fpol(result, template)
            if partition is not None:
                ok = ok and all(
                    theory.check_block_symmetry(g, partition) for g in result.output.support()
                )
        if not ok:
            raise AssertionError(f"search {k} ({name}): the measure found is not a witness")
        lines.append(f"{k} {name} found")
    return lines


PINNED = {"solve_pins.txt": pin_lines, "aip_pins.txt": aip_lines, "witness_pins.txt": witness_lines}


def _assert_pinned(name: str) -> None:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    got = PINNED[name]()
    assert len(got) == len(pinned)
    for line, pin in zip(got, pinned):
        assert line == pin


def test_solve_answers_match_pins():
    _assert_pinned("solve_pins.txt")


def test_xor_aip_values_match_pins():
    _assert_pinned("aip_pins.txt")


def test_witness_verdicts_match_pins():
    _assert_pinned("witness_pins.txt")


if __name__ == "__main__":
    for name, lines in PINNED.items():
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines()))
