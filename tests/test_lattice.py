import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from helpers import (
    costs,
    box_min_objective,
    box_solutions,
    dense,
    dense_hermite_normal_form,
    dense_lp,
    dense_solve_integer_system,
    gf2_satisfiable,
    scan_echelon,
    sparse,
)
from pvcsp import generators, lattice, relax
from pvcsp.core import Instance, Signature, Term, ValuedStructure
from pvcsp.errors import DimensionMismatch
from pvcsp.lattice import (
    AffineLattice,
    INFEASIBLE,
    evaluate_affine_min,
    hermite_normal_form,
    solve_integer_system,
)
from pvcsp.relax import aip_value, build_aip, combined_solve
from pvcsp.values import MINUS_INF, PLUS_INF, is_finite


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def dense_rows(lp):
    return [dense(row, lp.n) for row in lp.rows]


def echelon(A):
    """lattice._echelon of the dense A under the identity tail."""
    m, n = len(A), len(A[0]) if A else 0
    return lattice._echelon([sparse(row) for row in A], [{m + j: 1} for j in range(n)])


def det(M):
    """Exact determinant by Gaussian elimination over Fractions."""
    M = [[F(a) for a in row] for row in M]
    n = len(M)
    result = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            result = -result
        result *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return result


def test_hnf_single_row_gcd():
    H, U = hermite_normal_form([[2, 4]])
    assert H == [[2, 0]]
    assert matmul([[2, 4]], U) == H and abs(det(U)) == 1


def test_hnf_identity_fixed():
    H, U = hermite_normal_form([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    assert abs(det(U)) == 1


def test_hnf_negative_pivot_flipped():
    H, _ = hermite_normal_form([[-3]])
    assert H == [[3]]


def assert_hnf_shape(H, n):
    """Column HNF shape.  The pivot of column c is its first nonzero; the
    pivots move strictly down and right, are positive, have zeros right of
    them and entries in [0, pivot) left of them; the columns past the last
    pivot are zero."""
    prev = -1
    for c in range(n):
        rows = [r for r, row in enumerate(H) if row[c] != 0]
        if not rows:
            assert all(row[k] == 0 for row in H for k in range(c, n))
            return
        r = rows[0]
        assert r > prev
        assert H[r][c] > 0
        assert all(H[r][k] == 0 for k in range(c + 1, n))
        assert all(0 <= H[r][k] < H[r][c] for k in range(c))
        prev = r


def test_hnf_invariants_random():
    rng = random.Random(7)
    for _ in range(80):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        H, U = hermite_normal_form(A)
        assert matmul(A, U) == H
        assert abs(det(U)) == 1
        assert_hnf_shape(H, n)


def test_solve_no_solution_parity():
    assert solve_integer_system([[2]], [1]) == INFEASIBLE


def test_solve_line():
    lat = solve_integer_system([[1, 1]], [1])
    assert isinstance(lat, AffineLattice)
    assert lat.x0[0] + lat.x0[1] == 1
    assert len(lat.kernel_basis) == 1
    v = lat.kernel_basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_solve_empty_system_needs_ncols():
    lat = solve_integer_system([], [], ncols=2)
    assert lat.x0 == [0, 0] and len(lat.kernel_basis) == 2


def test_solve_zero_vars():
    assert solve_integer_system([[]], [0]).dimension == 0
    assert solve_integer_system([[]], [3]) == INFEASIBLE


def test_solve_ragged_rejected():
    with pytest.raises(DimensionMismatch):
        solve_integer_system([[1, 2], [1]], [0, 0])


def test_eval_infeasible_is_plus_inf():
    assert evaluate_affine_min([F(1)], INFEASIBLE) is PLUS_INF


def test_eval_unbounded_direction():
    lat = solve_integer_system([[1, 1]], [1])
    assert evaluate_affine_min([F(1), F(0)], lat) is MINUS_INF


def test_eval_constant_on_lattice():
    lat = solve_integer_system([[1, 1]], [1])
    assert evaluate_affine_min([F(1), F(1)], lat) == 1


def test_eval_point_lattice():
    lat = solve_integer_system([[1, 0], [0, 1]], [2, 3])
    assert evaluate_affine_min([F(1), F(-1)], lat) == -1


def test_check_threshold_extended():
    assert F(1, 2) <= F(1)
    assert not PLUS_INF <= F(10)
    assert MINUS_INF <= F(-10)


def classify_by_box(A, b, c):
    den = math.lcm(*(x.denominator for x in c))
    num = [int(x * den) for x in c]
    v20 = box_min_objective(A, b, num, den, 20)
    v40 = box_min_objective(A, b, num, den, 40)
    if v40 is None:
        return None  # believed infeasible
    if v20 is None:
        return "outside-small-box"
    if v40 < v20:
        return MINUS_INF
    return v40


def test_against_box_enumeration():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        lat = solve_integer_system(A, b)
        val = evaluate_affine_min(c, lat)
        oracle = classify_by_box(A, b, c)
        if lat == INFEASIBLE:
            assert oracle is None
        elif oracle is None or oracle == "outside-small-box":
            # solutions exist but the box misses the relevant ones; only
            # membership of the particular solution is checkable
            for row, rb in zip(A, b):
                assert sum(a * x for a, x in zip(row, lat.x0)) == rb
        elif val is MINUS_INF:
            assert oracle is MINUS_INF
        else:
            assert val == oracle
        checked += 1


def test_kernel_vectors_annihilated_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        lat = solve_integer_system(A, b)
        if lat == INFEASIBLE:
            continue
        for row, rb in zip(A, b):
            assert sum(a * x for a, x in zip(row, lat.x0)) == rb
            for v in lat.kernel_basis:
                assert sum(a * x for a, x in zip(row, v)) == 0


XOR = generators.xor_structure()


def xor_instance(rng, n, planted):
    """n random parity equations of arity 2 or 3 over n variables, all
    true of a hidden assignment when planted: the instance and its
    equations as (variable bitmask, parity)."""
    variables = tuple(f"x{i}" for i in range(n))
    hidden = [rng.randint(0, 1) for _ in variables]
    terms, equations = [], []
    for _ in range(n):
        idx = rng.sample(range(n), rng.choice((2, 3)))
        parity = sum(hidden[i] for i in idx) % 2 if planted else rng.randint(0, 1)
        symbol = f"xor{parity}" + ("_3" if len(idx) == 3 else "")
        terms.append(Term(symbol, tuple(variables[i] for i in idx)))
        equations.append((sum(1 << i for i in idx), parity))
    return Instance(variables, tuple(terms), F(0)), equations


def test_echelon_matches_dense_reference():
    rng = random.Random(17)
    systems = []
    for _ in range(270):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.choice((1, 3, 9))
        density = rng.choice((0.3, 0.6, 1.0))
        A = [
            [rng.randint(-k, k) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        systems.append((A, [rng.randint(-6, 6) for _ in range(m)]))
    for k in range(30):
        aip = build_aip(XOR, xor_instance(rng, 20 + 20 * k // 29, k % 2 == 0)[0])
        systems.append((dense_rows(aip), aip.rhs))
    infeasible = 0
    for A, b in systems:
        assert hermite_normal_form(A) == dense_hermite_normal_form(A)
        lat = solve_integer_system(A, b)
        ref = dense_solve_integer_system(A, b)
        if ref is None:
            assert lat == INFEASIBLE
            infeasible += 1
            continue
        assert (lat.x0, lat.kernel_basis) == ref
        for row, rb in zip(A, b):
            assert sum(a * x for a, x in zip(row, lat.x0)) == rb
            for v in lat.kernel_basis:
                assert sum(a * x for a, x in zip(row, v)) == 0
    assert 0 < infeasible < len(systems)


def echelon_inputs(rng, count):
    """Seeded matrices for the echelon: entries up to 1, 3 or 9 in absolute
    value, densities 0.1 to 1, up to 12 rows and columns; one in five each
    has a zero row, a zero column, a duplicate column, or a row that is a
    combination of others."""
    mats = []
    for t in range(count):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        k = rng.choice((1, 3, 9))
        density = rng.choice((0.1, 0.25, 0.5, 0.75, 1.0))
        A = [
            [rng.randint(-k, k) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if t % 5 == 1:
            A[rng.randrange(m)] = [0] * n
        elif t % 5 == 2:
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
        elif t % 5 == 3 and n > 1:
            i, j = rng.sample(range(n), 2)
            for row in A:
                row[j] = row[i]
        elif t % 5 == 4 and m > 1:
            i, l, j = rng.sample(range(m), 3) if m > 2 else (0, 0, 1)
            p, q = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1))
            A[j] = [p * a + q * b for a, b in zip(A[i], A[l])]
        mats.append(A)
    return mats


def test_indexed_echelon_matches_scan(monkeypatch):
    """lattice._echelon follows the nonzeros through a row index; its raw
    output (unreduced entries, U, column order, pivots) is the scan's."""
    rng = random.Random(23)
    mats = echelon_inputs(rng, 600)
    assert any(len(A) > len(A[0]) for A in mats)
    assert any(len(A) < len(A[0]) for A in mats)
    passes = []
    for A in mats:
        assert echelon(A) == scan_echelon(A, passes)
    assert max(passes) > 2
    for k in range(15):
        A = dense_rows(build_aip(XOR, xor_instance(rng, 20 + 40 * k // 14, k % 2 == 0)[0]))
        assert echelon(A) == scan_echelon(A)
    # the refined AIPs that combined_solve builds
    refined = []
    original = lattice._echelon

    def capture(A, tail):
        refined.append([dense(row, len(tail)) for row in A])
        return original(A, tail)

    monkeypatch.setattr(lattice, "_echelon", capture)
    structures = [
        XOR,
        generators.horn_structure(),
        generators.submodular_structure(rng),
        generators.random_structure(rng, 2),
        generators.random_structure(rng, 3),
    ]
    for k in range(80):
        delta = structures[k % len(structures)]
        combined_solve(delta, generators.random_instance(rng, delta, 8, 8))
    monkeypatch.undo()
    assert len(refined) >= 20
    for A in refined:
        assert echelon(A) == scan_echelon(A)


def objectives(rng, A):
    """A random Fraction objective over A's columns, the zero one, and
    (y/d).A for random ints y and d, which vanishes on the kernel of A."""
    n = len(A[0])
    y, d = [rng.randint(-4, 4) for _ in A], rng.randint(1, 3)
    return [
        [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)],
        [F(0)] * n,
        [F(sum(yi * row[j] for yi, row in zip(y, A)), d) for j in range(n)],
    ]


def test_affine_min_matches_lattice_evaluation(monkeypatch):
    """lattice.affine_min, one elimination under the objective row, gives
    the value evaluate_affine_min reads off the full solution lattice; its
    elimination is the scan's with the same tail."""
    rng = random.Random(29)
    systems = []
    for A in echelon_inputs(rng, 600):
        if rng.random() < 0.5:  # feasible by construction
            x = [rng.randint(-3, 3) for _ in A[0]]
            b = [sum(a * v for a, v in zip(row, x)) for row in A]
        else:
            b = [rng.randint(-6, 6) for _ in A]
        systems.append((A, b))
    for k in range(15):
        aip = build_aip(XOR, xor_instance(rng, 20 + 40 * k // 14, k % 2 == 0)[0])
        systems.append((dense_rows(aip), aip.rhs))
    cases = [(A, b, c) for A, b in systems for c in objectives(rng, A)]
    # the refined AIPs that combined_solve builds, with their objectives
    refined = []
    value_of = relax.aip_value

    def capture(aip):
        refined.append((dense_rows(aip), aip.rhs, costs(aip)))
        return value_of(aip)

    monkeypatch.setattr(relax, "aip_value", capture)
    structures = [
        XOR,
        generators.horn_structure(),
        generators.submodular_structure(rng),
        generators.random_structure(rng, 2),
        generators.random_structure(rng, 3),
    ]
    for k in range(80):
        delta = structures[k % len(structures)]
        combined_solve(delta, generators.random_instance(rng, delta, 8, 8))
    monkeypatch.undo()
    assert len(refined) >= 20
    cases += refined
    # no rows, no columns, and the AIPs of a term-free instance and of a
    # symbol whose every tuple costs +inf
    empty = ValuedStructure(
        Signature((("e", 1),)), ("0", "1"), {"e": {("0",): PLUS_INF, ("1",): PLUS_INF}}
    )
    edge = [
        build_aip(XOR, Instance(("x",), (), F(0))),
        build_aip(empty, Instance(("x",), (Term("e", ("x",)),), F(0))),
    ]
    cases += [(dense_rows(aip), aip.rhs, costs(aip)) for aip in edge]
    cases += [
        ([], [], []),
        ([], [], [F(0)] * 3),
        ([], [], [F(0), F(1, 2)]),
        ([[], []], [0, 0], []),
        ([[], []], [0, 1], []),
    ]
    seen = set()
    for A, b, c in cases:
        value = lattice.affine_min(dense_lp(len(c), A, b, c))
        expected = evaluate_affine_min(c, solve_integer_system(A, b, len(c)))
        assert (value, type(value)) == (expected, type(expected))
        seen.add("finite" if is_finite(value) else value)
    assert seen == {PLUS_INF, MINUS_INF, "finite"}
    for A, _, c in cases[: 3 * len(systems)]:
        den = math.lcm(*(ci.denominator for ci in c))
        tail = [{len(A): ci.numerator * (den // ci.denominator)} if ci else {} for ci in c]
        assert lattice._echelon(list(map(sparse, A)), tail) == scan_echelon(A, tail=tail)


def test_xor_aip_finite_iff_parity_satisfiable():
    rng = random.Random(19)
    outcomes = set()
    for k in range(40):
        instance, equations = xor_instance(rng, rng.randint(20, 40), k % 2 == 0)
        value = aip_value(build_aip(XOR, instance))
        satisfiable = gf2_satisfiable(equations)
        assert is_finite(value) == satisfiable
        assert value == 0 if satisfiable else value is PLUS_INF
        outcomes.add(satisfiable)
    assert outcomes == {True, False}


def test_kernel_column_check_survives_optimise_flag():
    # a kernel column left with a nonzero in H must not reach a caller,
    # even with asserts off
    script = """
from pvcsp import lattice
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
echelon = lattice._echelon
def corrupted(A, tail):
    cols, pivots = echelon(A, tail)
    cols[-1][0] = 1
    return cols, pivots
lattice._echelon = corrupted
try:
    lattice.solve_integer_system([[1, 1]], [1])
except InvariantViolated as exc:
    print("caught:", exc)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    assert out.splitlines() == ["caught: kernel column has a nonzero in H"]


def test_kernel_column_check_survives_optimise_flag_on_aip_value():
    # the AIP value's elimination under the objective row keeps the same
    # kernel-column check, with asserts off
    script = """
from fractions import Fraction
from pvcsp import generators, lattice, relax
from pvcsp.core import Instance, Term
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
echelon = lattice._echelon
def corrupted(A, tail):
    cols, pivots = echelon(A, tail)
    if len(cols) == len(pivots):
        raise SystemExit("no kernel column to corrupt")
    cols[-1][0] = 1
    return cols, pivots
lattice._echelon = corrupted
instance = Instance(("x", "y"), (Term("xor1", ("x", "y")),), Fraction(0))
try:
    relax.aip_value(relax.build_aip(generators.xor_structure(), instance))
except InvariantViolated as exc:
    print("caught:", exc)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    assert out.splitlines() == ["caught: kernel column has a nonzero in H"]
