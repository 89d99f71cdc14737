"""The paper's condition and the solver on a template with a real promise
gap: PCSP(1-in-3, NAE) of Brakensiek and Guruswami, "Symmetric
polymorphisms and efficient decidability of promise CSPs" (SODA 2020), the
result the paper extends, written as 0/+inf valued structures over one
ternary symbol.  1-in-3 is inside NAE, so Gamma <= Delta pointwise and the
promise holds.

The condition asks for block-symmetric polymorphisms of arity 2L + 1 with
two blocks, of sizes L + 1 and L, for every L.  L = 1 and L = 2 are
certified here by the LP search and its independent checkers; L = 3 is
over the search's cap.  Then the combined BLP + AIP solver, run on Delta,
must never contradict the brute-force oracle outside the gap: YES on every
YES instance (completeness) and NO on every NO instance (soundness).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from pvcsp import theory
from pvcsp.core import (
    GAP,
    NO,
    YES,
    Instance,
    PromiseTemplate,
    Signature,
    Term,
    ValuedStructure,
    pvcsp_oracle,
)
from pvcsp.relax import combined_solve
from pvcsp.values import PLUS_INF

DOMAIN = ("0", "1")


def crisp(holds):
    """A 0/+inf structure over one ternary symbol r: 0 where `holds`."""
    table = {
        t: F(0) if holds(t.count("1")) else PLUS_INF
        for t in itertools.product(DOMAIN, repeat=3)
    }
    return ValuedStructure(Signature((("r", 3),)), DOMAIN, {"r": table})


ONE_IN_THREE = crisp(lambda ones: ones == 1)
NAE = crisp(lambda ones: ones in (1, 2))
TEMPLATE = PromiseTemplate(ONE_IN_THREE, NAE)


@pytest.mark.parametrize("L", [1, 2])
def test_two_block_symmetric_polymorphisms_exist(L):
    partition = theory.BlockPartition.from_sizes([L + 1, L])
    omega = theory.find_promise_fpol_lp(TEMPLATE, 2 * L + 1, partition=partition)
    assert omega != theory.NONE_EXISTS
    assert theory.check_promise_fpol(omega, TEMPLATE) == (True, None)
    assert all(theory.check_block_symmetry(g, partition) for g in omega.output.support())


def gap_instances(count):
    """Seeded instances: 3 to 9 variables, 1 to n + 2 terms whose arguments
    are drawn with replacement, threshold 0."""
    rng = random.Random(1)
    for _ in range(count):
        n = rng.randint(3, 9)
        variables = tuple(f"x{i}" for i in range(n))
        terms = tuple(
            Term("r", tuple(rng.choice(variables) for _ in range(3)))
            for _ in range(rng.randint(1, n + 2))
        )
        yield Instance(variables, terms, F(0))


def test_combined_solver_never_contradicts_the_oracle_outside_the_gap():
    classes = {YES: 0, NO: 0, GAP: 0}
    for instance in gap_instances(300):
        truth = pvcsp_oracle(TEMPLATE, instance)
        classes[truth] += 1
        verdict = combined_solve(ONE_IN_THREE, instance).verdict
        if truth != GAP:
            assert verdict == truth, instance
    # every class is common, so neither direction passes vacuously
    assert min(classes.values()) >= 30, classes
