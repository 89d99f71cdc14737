import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction as F

import pytest

from helpers import dense_pivot, enumerate_vertices, vertex_minimum
from pvcsp import exactlp, generators
from pvcsp.errors import DimensionMismatch, InfeasibleRegion, UnboundedObjective
from pvcsp.exactlp import (
    INFEASIBLE,
    LinearProgram,
    OPTIMAL,
    UNBOUNDED,
    WarmLP,
    relative_interior_point_with_flags,
    restrict_to_optimal_face,
    solve_lp,
)
from pvcsp.relax import build_blp

Z = F(0)


def lp(n, rows, rhs, obj):
    return LinearProgram(
        n,
        [[F(a) for a in row] for row in rows],
        [F(b) for b in rhs],
        [F(c) for c in obj],
    )


def test_fixed_single_variable():
    res = solve_lp(lp(1, [[1]], [1], [1]))
    assert res.status == OPTIMAL
    assert res.value == 1 and res.point == [F(1)]


def test_simplex_picks_cheap_vertex():
    res = solve_lp(lp(2, [[1, 1]], [1], [0, 1]))
    assert res.status == OPTIMAL
    assert res.value == 0 and res.point == [F(1), F(0)]


def test_contradictory_equalities_infeasible():
    assert solve_lp(lp(2, [[1, 1], [1, 1]], [1, 2], [0, 0])).status == INFEASIBLE


def test_unbounded_below():
    res = solve_lp(lp(2, [[1, -1]], [0], [-1, 0]))
    assert res.status == UNBOUNDED
    assert res.ray is not None
    # the ray improves the objective and preserves the equalities
    assert sum(c * d for c, d in zip([F(-1), Z], res.ray)) < 0
    assert res.ray[0] - res.ray[1] == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram(2, [[F(1)]], [F(1)], [F(0), F(0)])


def support(prog):
    return relative_interior_point_with_flags(prog)[1]


def test_support_profile_simplex_face():
    assert support(lp(2, [[1, 1]], [1], [0, 0])) == [True, True]


def test_support_profile_pinned_coordinate():
    assert support(lp(2, [[1, 1], [0, 1]], [1, 0], [0, 0])) == [True, False]


def test_support_profile_unbounded_direction():
    # x - y = 0 over x, y >= 0: both coordinates unbounded
    assert support(lp(2, [[1, -1]], [0], [0, 0])) == [True, True]


def test_support_profile_infeasible():
    with pytest.raises(InfeasibleRegion):
        support(lp(1, [[1], [1]], [1, 2], [0]))


def test_relative_interior_simplex():
    p, _ = relative_interior_point_with_flags(lp(2, [[1, 1]], [1], [0, 0]))
    assert p[0] > 0 and p[1] > 0 and p[0] + p[1] == 1


def test_relative_interior_single_point():
    p, _ = relative_interior_point_with_flags(lp(2, [[1, 1], [0, 1]], [1, 0], [0, 0]))
    assert p == [F(1), Z]


def test_relative_interior_free_cone():
    p, _ = relative_interior_point_with_flags(lp(1, [], [], [0]))
    assert p[0] > 0


def test_relative_interior_matches_profile():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        prog = lp(
            n,
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)],
            [rng.randint(0, 2) for _ in range(m)],
            [0] * n,
        )
        if solve_lp(prog).status == INFEASIBLE:
            continue
        p, flags = relative_interior_point_with_flags(prog)
        assert [x > 0 for x in p] == flags
        for row, b in zip(prog.rows, prog.rhs):
            assert sum((a * x for a, x in zip(row, p)), Z) == b


def test_restrict_to_optimal_face_pins_expensive_var():
    prog = lp(2, [[1, 1]], [1], [0, 1])
    face = restrict_to_optimal_face(prog)
    assert face.rows[-1] == [Z, F(1)] and face.rhs[-1] == Z
    assert support(face) == [True, False]


def test_restrict_redundant_when_face_is_whole_polytope():
    prog = lp(2, [[1, 1]], [1], [1, 1])
    face = restrict_to_optimal_face(prog)
    assert face.rhs[-1] == F(1)
    assert support(face) == [True, True]


def bounded_lp(rng):
    """A random region that a row of positive coefficients keeps bounded,
    with zero right-hand sides (degenerate vertices) and, half the time, a
    redundant row: the sum of two others."""
    n = rng.randint(2, 6)
    rows = [[rng.randint(1, 3) for _ in range(n)]]
    rhs = [rng.randint(1, 4)]
    for _ in range(rng.randint(0, 2)):
        rows.append([rng.randint(-2, 2) for _ in range(n)])
        rhs.append(rng.choice([0, 0, 1]))
    if len(rows) > 1 and rng.random() < 0.5:
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        rhs.append(rhs[0] + rhs[-1])
    return lp(n, rows, rhs, [rng.randint(-2, 2) for _ in range(n)])


def support_union(points, n):
    return [any(p[i] > 0 for p in points) for i in range(n)]


def assert_interior(prog, point, flags):
    for row, b in zip(prog.rows, prog.rhs):
        assert sum((a * x for a, x in zip(row, point)), Z) == b
    assert [x > 0 for x in point] == flags and all(x >= 0 for x in point)


def assert_warm_matches_vertices(prog, vertices):
    """The optimum, the region's support and the optimal face's support of
    a bounded, nonempty region, against its enumerated vertices."""
    warm = WarmLP(prog)
    res = warm.minimise()
    cost = [sum((c * x for c, x in zip(prog.objective, v)), Z) for v in vertices]
    assert res.status == OPTIMAL and res.value == min(cost)
    assert res.point in vertices
    point, flags = warm.interior_point()
    assert flags == support_union(vertices, prog.n)
    assert_interior(prog, point, flags)
    best = [v for v, c in zip(vertices, cost) if c == min(cost)]
    face_point, face_flags = warm.face_interior_point()
    assert face_flags == support_union(best, prog.n)
    assert_interior(prog, face_point, face_flags)
    assert sum((c * x for c, x in zip(prog.objective, face_point)), Z) == res.value
    # the face straight after phase 1, without the earlier rounds
    assert WarmLP(prog).face_interior_point()[1] == face_flags


def test_warm_rounds_match_vertex_enumeration():
    # a bounded region is the hull of its vertices, so its support is the
    # union of theirs, and its optimal face's support the union of the
    # optimal vertices'
    rng = random.Random(71)
    checked = 0
    for _ in range(150):
        prog = bounded_lp(rng)
        vertices = enumerate_vertices(prog)
        if not vertices:
            continue
        checked += 1
        assert_warm_matches_vertices(prog, vertices)
    assert checked >= 100


def test_warm_rounds_unbounded_region():
    # x1 - x2 = 1 with x3 pinned to 0: x1 and x2 grow along a ray
    warm = WarmLP(lp(3, [[1, -1, 0], [0, 0, 1]], [1, 0], [0, 0, 0]))
    point, flags = warm.interior_point()
    assert flags == [True, True, False]
    assert point[0] - point[1] == 1 and point[2] == 0


def test_warm_face_of_unbounded_region():
    # x1 - x2 = 0 minimising x3: the face is the ray x1 = x2, x3 = 0
    prog = lp(3, [[1, -1, 0]], [0], [0, 0, 1])
    point, flags = WarmLP(prog).face_interior_point()
    assert flags == [True, True, False]
    assert point[0] == point[1] > 0


def test_warm_face_unbounded_objective():
    with pytest.raises(UnboundedObjective):
        WarmLP(lp(2, [[1, -1]], [0], [-1, 0])).face_interior_point()


def test_warm_rounds_empty_region():
    warm = WarmLP(lp(1, [[1], [1]], [1, 2], [0]))
    assert warm.minimise().status == INFEASIBLE
    with pytest.raises(InfeasibleRegion):
        warm.interior_point()
    with pytest.raises(InfeasibleRegion):
        warm.face_interior_point()


def random_lp(rng, n_max=6, m_max=4):
    n = rng.randint(1, n_max)
    m = rng.randint(1, min(m_max, n))
    return lp(
        n,
        [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)],
        [rng.randint(-2, 3) for _ in range(m)],
        [rng.randint(-3, 3) for _ in range(n)],
    )


def test_against_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(60):
        prog = random_lp(rng)
        res = solve_lp(prog)
        if res.status == OPTIMAL:
            expected = vertex_minimum(prog)
            assert expected is not None
            assert res.value == expected
            for row, b in zip(prog.rows, prog.rhs):
                assert sum((a * x for a, x in zip(row, res.point)), Z) == b
        elif res.status == INFEASIBLE:
            assert enumerate_vertices(prog) == []


def rational_lp(rng):
    """bounded_lp with rational data: each row has its own denominators, so
    the tableau scales each row by a different lcm; some rows have negative
    right-hand sides (flipped before phase 1) and some are 0 (degenerate)."""
    n = rng.randint(2, 5)

    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice([1, 2, 3, 4, 5, 6, 7]))

    rows = [[q(1, 5) for _ in range(n)]]
    rhs = [q(1, 6)]
    for _ in range(rng.randint(1, 2)):
        rows.append([q(-4, 4) for _ in range(n)])
        rhs.append(rng.choice([Z, q(-3, -1), q(1, 3)]))
    if rng.random() < 0.5:
        # redundant: a negative rational multiple of the sum of two rows
        k = F(-rng.randint(1, 3), rng.choice([2, 3, 5]))
        rows.append([k * (a + b) for a, b in zip(rows[0], rows[-1])])
        rhs.append(k * (rhs[0] + rhs[-1]))
    return LinearProgram(n, rows, rhs, [q(-3, 3) for _ in range(n)])


def test_rational_rows_match_vertex_enumeration():
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        prog = rational_lp(rng)
        vertices = enumerate_vertices(prog)
        if not vertices:
            assert solve_lp(prog).status == INFEASIBLE
            continue
        checked += 1
        assert_warm_matches_vertices(prog, vertices)
    assert checked >= 60


def test_rational_unbounded_ray():
    # x1/2 - 2 x2/3 = -1/3 minimising -x1: the ray (1, 3/4) keeps the row
    prog = LinearProgram(2, [[F(1, 2), F(-2, 3)]], [F(-1, 3)], [F(-1), Z])
    res = solve_lp(prog)
    assert res.status == UNBOUNDED
    assert res.ray == [F(1), F(3, 4)]
    assert res.point[0] / 2 - res.point[1] * 2 / 3 == F(-1, 3)


# a row's own column: the kinds whose scaled entry is 1 start basic
UNIT_KINDS = ("unit", "scaled", "negflip")
SLACK_KINDS = UNIT_KINDS + ("two", "flipped", "shared", "none")


def slack_form_lp(rng):
    """A bounded region in slack form, one column of each row's kind after
    the structural ones.  A unit column is 1 in its int row; a scaled one
    is 1 / L, L the lcm of the row's denominators; a negflip one is -1 / L in a
    row with a negative rhs, +1 once the row is flipped.  Look-alikes: 2 / L
    (two), 1 / L in a flipped row (flipped), 1 / L with a nonzero in another
    row too (shared); a none row is an equality.  Row 0 has positive
    coefficients, so x and with it every row's column are bounded; row 1
    has nonzero ones, so no structural column is a unit column.  Sometimes
    a redundant row, a rational multiple of the sum of two rows, takes the
    unit columns of both.  Returns the program, the expected start basis
    column of each row (None for an artificial) and the rows' kinds."""
    nx = rng.randint(2, 3)
    m = rng.randint(2, 4)

    def q(lo, hi, nonzero=False):
        while True:
            a = F(rng.randint(lo, hi), rng.choice([1, 2, 3, 4, 6]))
            if a or not nonzero:
                return a

    rows, rhs, kinds = [], [], []
    for i in range(m):
        kind = rng.choice(("unit", "scaled", "two", "none") if i == 0 else SLACK_KINDS)
        rows.append([q(1, 4) if i == 0 else q(-3, 3, nonzero=i == 1) for _ in range(nx)])
        if kind in ("negflip", "flipped"):
            rhs.append(q(-3, -1, nonzero=True))
        else:
            rhs.append(q(1, 6, nonzero=True) if i == 0 else rng.choice([Z, q(1, 3)]))
        kinds.append(kind)
    own = [i for i in range(m) if kinds[i] != "none"]
    for i, row in enumerate(rows):
        lcm = math.lcm(rhs[i].denominator, *(a.denominator for a in row))
        if kinds[i] == "unit":  # an int row, so its column is 1 as given
            rows[i] = row = [a * lcm for a in row]
            rhs[i] *= lcm
            lcm = 1
        num = {"two": 2, "negflip": -1}.get(kinds[i], 1)
        row.extend(F(num, lcm) if k == i else Z for k in own)
    for i in own:
        if kinds[i] == "shared":
            rows[rng.choice([k for k in range(m) if k != i])][nx + own.index(i)] = F(1)
    expected = [nx + own.index(i) if kinds[i] in UNIT_KINDS else None for i in range(m)]
    if m > 2 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        k = F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 3]))
        rows.append([k * (x + y) for x, y in zip(rows[a], rows[b])])
        rhs.append(k * (rhs[a] + rhs[b]))
        expected[a] = expected[b] = None
        expected.append(None)
    n = nx + len(own)
    prog = LinearProgram(n, rows, rhs, [q(-3, 3) for _ in range(n)])
    return prog, expected, kinds


def test_crash_basis_matches_vertex_enumeration():
    # a row starts from its unit column, and only the others get an
    # artificial; the optimum and both supports are as before
    rng = random.Random(29)
    checked = 0
    seen = set()
    for _ in range(280):
        prog, expected, kinds = slack_form_lp(rng)
        tab = exactlp._Tableau(prog)
        assert [b if b < prog.n else None for b in tab.basis] == expected
        assert tab.width == prog.n + expected.count(None) and tab.d == 1
        vertices = enumerate_vertices(prog)
        if not vertices:
            assert solve_lp(prog).status == INFEASIBLE
            continue
        checked += 1
        seen.update(kinds)
        assert_warm_matches_vertices(prog, vertices)
    assert checked >= 150
    assert seen == set(SLACK_KINDS)


def test_all_slack_program_makes_no_phase1_pivot(monkeypatch):
    # x + y + s1 = 2, x - y + s2 / 3 = 1/3, 2y + s3 = 0: rhs >= 0 and, once
    # the second row is scaled by 3, the slacks are a feasible basis, so
    # phase 1 has nothing to do
    prog = LinearProgram(
        5,
        [[1, 1, 1, 0, 0], [1, -1, 0, F(1, 3), 0], [0, 2, 0, 0, 1]],
        [2, F(1, 3), 0],
        [-1, -1, 0, 0, 0],
    )
    pivots = []
    original = exactlp._Tableau.pivot
    monkeypatch.setattr(
        exactlp._Tableau, "pivot", lambda tab, r, c: pivots.append(c) or original(tab, r, c)
    )
    warm = WarmLP(prog)
    assert pivots == [] and warm.tab.basis == [2, 3, 4] and warm.tab.width == 5
    res = warm.minimise()
    assert res.status == OPTIMAL and res.value == F(-1, 3) and pivots
    assert_warm_matches_vertices(prog, enumerate_vertices(prog))


def test_basic_solutions_checked_in_ints_under_optimise_flag():
    # a tableau entry corrupted after phase 1 must not reach a caller, even
    # with asserts off
    script = """
from fractions import Fraction as F
from pvcsp.exactlp import LinearProgram, WarmLP
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
prog = LinearProgram(2, [[F(1, 2), F(1, 3)]], [F(1)], [F(1), F(1)])
for corrupt in ("rhs", "ray"):
    warm = WarmLP(prog)
    tab = warm.tab
    tab.rows[0][-1 if corrupt == "rhs" else 1] += 1
    try:
        tab.solution() if corrupt == "rhs" else tab.ray(1)
    except InvariantViolated as exc:
        print("caught:", exc)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    assert out.splitlines() == ["caught: basic solution violates an input row"] * 2


def tableau_state(tab):
    return types.SimpleNamespace(
        rows=[row[:] for row in tab.rows],
        den=tab.den[:],
        d=tab.d,
        red=None if tab.red is None else tab.red[:],
        red_den=tab.red_den,
        basis=tab.basis[:],
    )


def test_sparse_pivot_matches_dense_bareiss(monkeypatch):
    """Every pivot of phase 1, phase 2 and the support rounds leaves rows,
    den, d, red and basis as the dense Bareiss pivot does, both on rows
    already over the pivot's denominator (the pivot row's nonzeros only)
    and on the others."""
    rows_by_path = {"sparse": 0, "dense": 0}
    original = exactlp._Tableau.pivot

    def replay(tab, r, c):
        ref = tableau_state(tab)
        dense_pivot(ref, r, c)
        for i, row in enumerate(tab.rows):
            if i != r and row[c]:
                rows_by_path["sparse" if tab.den[i] == ref.d else "dense"] += 1
        original(tab, r, c)
        assert tableau_state(tab) == ref

    monkeypatch.setattr(exactlp._Tableau, "pivot", replay)
    rng = random.Random(37)
    structures = [
        generators.xor_structure(),
        generators.horn_structure(),
        generators.submodular_structure(rng),
        generators.random_structure(rng, 2),
        generators.random_structure(rng, 3),
    ]
    programs = [
        build_blp(structures[k % 5], generators.random_instance(rng, structures[k % 5], 8, 8)).lp
        for k in range(60)
    ]
    programs += [rational_lp(rng) for _ in range(60)]
    programs += [slack_form_lp(rng)[0] for _ in range(60)]
    solved = 0
    for prog in programs:
        warm = WarmLP(prog)
        if warm.minimise().status == OPTIMAL:
            solved += 1
            warm.interior_point()
            warm.face_interior_point()
    assert solved >= 100
    assert rows_by_path["sparse"] > 1000 and rows_by_path["dense"] > 1000


def test_int_rows_are_read_as_ints():
    # entries given as Fraction(k, 1) among ints: the tableau holds ints
    # only, including a row with a negative rhs, and the answers are the
    # vertex enumeration's
    rng = random.Random(53)
    checked = negative = 0
    for _ in range(80):
        n = rng.randint(2, 5)

        def entry(lo, hi):
            k = rng.randint(lo, hi)
            return F(k) if rng.random() < 0.5 else k

        rows = [[entry(1, 3) for _ in range(n)]]
        rhs = [entry(1, 4)]
        for _ in range(rng.randint(1, 2)):
            rows.append([entry(-2, 2) for _ in range(n)])
            rhs.append(entry(-2, 2))
        prog = LinearProgram(n, rows, rhs, [entry(-2, 2) for _ in range(n)])
        tab = exactlp._Tableau(prog)
        assert all(type(a) is int for ints in tab.scaled + tab.rows for a in ints)
        vertices = enumerate_vertices(prog)
        if not vertices:
            continue
        checked += 1
        negative += any(b < 0 for b in rhs)
        assert_warm_matches_vertices(prog, vertices)
        warm = WarmLP(prog)
        warm.face_interior_point()
        assert all(type(a) is int for ints in warm.tab.scaled + warm.tab.rows for a in ints)
    assert checked >= 25 and negative >= 10


def test_column_indexed_check_under_optimise_flag():
    # the BLP of one xor1 term over x, y: phase 1 deletes a normalisation
    # row as redundant, and the check still reads that row's scaled input;
    # every corruption of a basic rhs entry, of the entries of a ray
    # column, or of that row's rhs must not reach a caller
    script = """
from fractions import Fraction as F
from pvcsp import exactlp, generators, relax
from pvcsp.core import Instance, Term
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
deleted = []
class Recording(list):
    def __delitem__(self, i):
        deleted.append(i)
        super().__delitem__(i)
init = exactlp._Tableau.__init__
def recording_init(tab, lp):
    init(tab, lp)
    tab.rows = Recording(tab.rows)
exactlp._Tableau.__init__ = recording_init
instance = Instance(("x", "y"), (Term("xor1", ("x", "y")),), F(0))
prog = relax.build_blp(generators.xor_structure(), instance).lp
tab = exactlp.WarmLP(prog).tab
print("deleted:", deleted, "basis:", tab.basis)
ray = min(set(range(prog.n)) - set(tab.basis))
def caught(corrupt, check):
    tab = exactlp.WarmLP(prog).tab
    corrupt(tab)
    try:
        check(tab)
    except InvariantViolated as exc:
        print("caught:", exc)
    else:
        print("missed")
def bump(i, j):
    def corrupt(tab):
        tab.rows[i][j] += 1
    return corrupt
def bump_deleted_rhs(tab):
    k = deleted[-1]
    tab.scaled[k][-1] += 1
    tab.cols[-1] = [(i, a + (i == k)) for i, a in tab.cols[-1]]
for i in range(len(tab.rows)):
    caught(bump(i, -1), lambda tab: tab.solution())
for i in range(len(tab.rows)):
    caught(bump(i, ray), lambda tab: tab.ray(ray))
caught(bump_deleted_rhs, lambda tab: tab.solution())
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0] == "deleted: [5] basis: [0, 1, 3, 2, 4]"
    assert out[1:] == ["caught: basic solution violates an input row"] * 11
