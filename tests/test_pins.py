"""Every engine's answers on a seeded pool, pinned line by line in
data/solve_pins.txt.

Every field of a SolveAnswer is a function of the instance alone: the BLP
value is the optimum, the eliminated columns are the +inf tuples plus the
columns outside the support of the region or of its optimal face, the
refined AIP keeps the rest, and the provenance is the optimal face exactly
when the value equals u and the objective is not constant on the region.
No pivot rule, basis or row order may change a line.

The pool mixes domains 2 and 3, costs k/q with q up to 9 and some +inf;
its thresholds sit below the BLP value, at it and above it, so the BLP
gate and the interior, mix and optimal-face star points all occur.  A
change meant to alter answers regenerates the file with

    PYTHONPATH=src python tests/test_pins.py > tests/data/solve_pins.txt

and says which lines changed and why.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys
from fractions import Fraction as F

from pvcsp import generators, relax
from pvcsp.core import Instance, Signature, ValuedStructure
from pvcsp.values import PLUS_INF, format_value

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "solve_pins.txt")
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


def test_solve_answers_match_pins():
    with open(PINS, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    got = pin_lines()
    assert len(got) == len(pinned)
    for line, pin in zip(got, pinned):
        assert line == pin


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in pin_lines()))
