"""Deterministic seeded generators for the differential-testing harness.

Four instance families:
  - xor: crisp parity equations over {0,1} (arity 2 and 3);
  - horn: crisp Horn clauses over {0,1} (implications, nand, units);
  - submodular: finite random submodular binary tables plus unaries;
  - random: fully random small templates and instances, infinities included.

Everything is driven by a `random.Random` so a seed fixes the whole batch.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .core import Instance, Signature, Term, ValuedStructure, brute_force_min
from .values import PLUS_INF, is_finite

COST_POOL = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(2),
    PLUS_INF,
]

B = ("0", "1")


def _crisp(allowed) -> dict:
    universe = itertools.product(B, repeat=len(next(iter(allowed))))
    return {t: (Fraction(0) if t in allowed else PLUS_INF) for t in universe}


def xor_structure() -> ValuedStructure:
    """Crisp parity constraints: x+y = c and x+y+z = c over Z2."""
    sig = Signature(
        (("xor0", 2), ("xor1", 2), ("xor0_3", 3), ("xor1_3", 3))
    )
    tables = {
        "xor0": _crisp({t for t in itertools.product(B, repeat=2) if (int(t[0]) + int(t[1])) % 2 == 0}),
        "xor1": _crisp({t for t in itertools.product(B, repeat=2) if (int(t[0]) + int(t[1])) % 2 == 1}),
        "xor0_3": _crisp({t for t in itertools.product(B, repeat=3) if (int(t[0]) + int(t[1]) + int(t[2])) % 2 == 0}),
        "xor1_3": _crisp({t for t in itertools.product(B, repeat=3) if (int(t[0]) + int(t[1]) + int(t[2])) % 2 == 1}),
    }
    return ValuedStructure(sig, B, tables)


def horn_structure() -> ValuedStructure:
    """Crisp Horn clauses: implication, binary nand, and unit clauses."""
    sig = Signature((("imp", 2), ("nand2", 2), ("pos1", 1), ("neg1", 1)))
    tables = {
        "imp": _crisp({t for t in itertools.product(B, repeat=2) if not (t[0] == "1" and t[1] == "0")}),
        "nand2": _crisp({t for t in itertools.product(B, repeat=2) if t != ("1", "1")}),
        "pos1": _crisp({("1",)}),
        "neg1": _crisp({("0",)}),
    }
    return ValuedStructure(sig, B, tables)


def random_instance(
    rng: random.Random,
    structure: ValuedStructure,
    max_vars: int,
    max_terms: int,
    threshold: Optional[Fraction] = None,
) -> Instance:
    nvars = rng.randint(1, max_vars)
    variables = tuple(f"v{i}" for i in range(nvars))
    nterms = rng.randint(1, max_terms)
    terms = []
    names = structure.signature.names()
    for _ in range(nterms):
        symbol = rng.choice(names)
        arity = structure.signature.arity(symbol)
        terms.append(Term(symbol, tuple(rng.choice(variables) for _ in range(arity))))
    if threshold is None:
        threshold = _threshold_near_optimum(rng, structure, variables, terms)
    return Instance(variables, tuple(terms), threshold)


def _threshold_near_optimum(rng, structure, variables, terms) -> Fraction:
    """Pick u around the oracle value so both verdicts get exercised."""
    probe = Instance(tuple(variables), tuple(terms), Fraction(0))
    opt = brute_force_min(structure, probe)
    if not is_finite(opt):
        opt = Fraction(len(terms))
    offset = rng.choice(
        [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    )
    return opt + offset


def submodular_binary_table(rng: random.Random) -> dict:
    """Finite binary table with f(0,0)+f(1,1) <= f(0,1)+f(1,0), by rejection."""
    finite_pool = [c for c in COST_POOL if is_finite(c)]
    while True:
        t = {
            pair: rng.choice(finite_pool)
            for pair in itertools.product(B, repeat=2)
        }
        if t[("0", "0")] + t[("1", "1")] <= t[("0", "1")] + t[("1", "0")]:
            return t


def submodular_structure(rng: random.Random) -> ValuedStructure:
    """Two submodular binary tables and one unary, all finite."""
    finite_pool = [c for c in COST_POOL if is_finite(c)]
    tables = {
        "f0": submodular_binary_table(rng),
        "f1": submodular_binary_table(rng),
        "u0": {(a,): rng.choice(finite_pool) for a in B},
    }
    sig = Signature((("f0", 2), ("f1", 2), ("u0", 1)))
    return ValuedStructure(sig, B, tables)


def random_structure(
    rng: random.Random,
    domain_size: int = 2,
    n_symbols: int = 2,
    max_arity: int = 2,
    allow_inf: bool = True,
) -> ValuedStructure:
    domain = tuple(str(i) for i in range(domain_size))
    pool = COST_POOL if allow_inf else [c for c in COST_POOL if is_finite(c)]
    symbols = []
    tables = {}
    for i in range(n_symbols):
        name = f"f{i}"
        arity = rng.randint(1, max_arity)
        symbols.append((name, arity))
        tables[name] = {
            t: rng.choice(pool)
            for t in itertools.product(domain, repeat=arity)
        }
    return ValuedStructure(Signature(tuple(symbols)), domain, tables)


def weaken_structure(rng: random.Random, delta: ValuedStructure) -> ValuedStructure:
    """A Gamma with every cost at most Delta's (identity is then a valid
    fractional homomorphism), for promise-template batches."""
    tables = {}
    for name, arity in delta.signature.symbols:
        table = {}
        for t, v in delta.table(name).items():
            if v is PLUS_INF:
                table[t] = rng.choice(COST_POOL)
            elif v > 0 and rng.random() < 0.5:
                table[t] = v / 2
            else:
                table[t] = v
        tables[name] = table
    return ValuedStructure(delta.signature, delta.domain, tables)


def xor_odd_cycle() -> tuple[ValuedStructure, Instance]:
    """The separating fixture: an odd cycle of disequalities on {0,1}.

    BLP accepts it fractionally; the refined AIP detects the parity
    obstruction.
    """
    structure = xor_structure()
    terms = (
        Term("xor1", ("x", "y")),
        Term("xor1", ("y", "z")),
        Term("xor1", ("x", "z")),
    )
    return structure, Instance(("x", "y", "z"), terms, Fraction(0))
