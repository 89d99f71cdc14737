import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction as F

import pytest

from helpers import (
    Pivot,
    costs,
    counting_pivots,
    dense_lp,
    dense_pivot,
    dot,
    enumerate_vertices,
    vertex_minimum,
)
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


def test_fixed_single_variable():
    res = solve_lp(dense_lp(1, [[1]], [1], [1]))
    assert res.status == OPTIMAL
    assert res.value == 1 and res.point == [F(1)]


def test_simplex_picks_cheap_vertex():
    res = solve_lp(dense_lp(2, [[1, 1]], [1], [0, 1]))
    assert res.status == OPTIMAL
    assert res.value == 0 and res.point == [F(1), F(0)]


def test_contradictory_equalities_infeasible():
    assert solve_lp(dense_lp(2, [[1, 1], [1, 1]], [1, 2], [0, 0])).status == INFEASIBLE


def test_unbounded_below():
    res = solve_lp(dense_lp(2, [[1, -1]], [0], [-1, 0]))
    assert res.status == UNBOUNDED
    assert res.ray is not None
    # the ray improves the objective and preserves the equalities
    assert sum(c * d for c, d in zip([F(-1), Z], res.ray)) < 0
    assert res.ray[0] - res.ray[1] == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram(2, [{0: 1}], [1], [0])
    with pytest.raises(DimensionMismatch):
        LinearProgram(2, [{0: 1}], [1, 2], [0, 0])


@pytest.mark.parametrize("key", [-1, 2, 3])
def test_row_key_outside_the_columns_rejected(key):
    with pytest.raises(DimensionMismatch):
        LinearProgram(2, [{0: 1}, {key: 1}], [1, 0], [0, 0])


@pytest.mark.parametrize(
    "row, rhs",
    [
        ({0: 1, 1: 0}, 1),  # a stored 0
        ({0: F(1)}, 1),  # a Fraction entry, even an integral one
        ({0: F(1, 2)}, 1),
        ({0: True}, 1),  # a bool entry
        ({0: 1}, F(1)),  # a non-int rhs
        ({0: 1}, 1.0),
    ],
)
def test_row_entries_and_rhs_must_be_nonzero_ints(row, rhs):
    with pytest.raises(ValueError):
        LinearProgram(2, [{1: 1}, row], [1, rhs], [0, 0])


@pytest.mark.parametrize(
    "objective, scale",
    [
        ([F(1), 0], 1),  # a Fraction entry, even an integral one
        ([F(1, 2), 0], 1),
        ([True, 0], 1),  # a bool entry
        ([1.0, 0], 1),
        ([1, 0], 0),  # a scale below 1
        ([1, 0], -1),
        ([1, 0], F(2)),  # a non-int scale
        ([1, 0], True),
    ],
)
def test_objective_entries_and_scale_must_be_ints(objective, scale):
    # the objective is ints over one positive int scale, like the rows
    LinearProgram(2, [{0: 1}], [1], [1, 0], scale=2)
    with pytest.raises(ValueError):
        LinearProgram(2, [{0: 1}], [1], objective, scale=scale)


def test_empty_row_accepted():
    prog = LinearProgram(2, [{}, {0: 1, 1: -1}], [0, 0], [0, 0])
    assert solve_lp(prog).status == OPTIMAL
    assert solve_lp(LinearProgram(1, [{}], [1], [0])).status == INFEASIBLE


def support(prog):
    return relative_interior_point_with_flags(prog)[1]


def test_support_profile_simplex_face():
    assert support(dense_lp(2, [[1, 1]], [1], [0, 0])) == [True, True]


def test_support_profile_pinned_coordinate():
    assert support(dense_lp(2, [[1, 1], [0, 1]], [1, 0], [0, 0])) == [True, False]


def test_support_profile_unbounded_direction():
    # x - y = 0 over x, y >= 0: both coordinates unbounded
    assert support(dense_lp(2, [[1, -1]], [0], [0, 0])) == [True, True]


def test_support_profile_infeasible():
    with pytest.raises(InfeasibleRegion):
        support(dense_lp(1, [[1], [1]], [1, 2], [0]))


def test_relative_interior_simplex():
    p, _ = relative_interior_point_with_flags(dense_lp(2, [[1, 1]], [1], [0, 0]))
    assert p[0] > 0 and p[1] > 0 and p[0] + p[1] == 1


def test_relative_interior_single_point():
    p, _ = relative_interior_point_with_flags(dense_lp(2, [[1, 1], [0, 1]], [1, 0], [0, 0]))
    assert p == [F(1), Z]


def test_relative_interior_free_cone():
    p, _ = relative_interior_point_with_flags(dense_lp(1, [], [], [0]))
    assert p[0] > 0


def test_relative_interior_matches_profile():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        prog = dense_lp(
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
            assert dot(row, p) == b


def test_restrict_to_optimal_face_pins_expensive_var():
    prog = dense_lp(2, [[1, 1]], [1], [0, 1])
    face = restrict_to_optimal_face(prog)
    assert face.rows[-1] == {1: 1} and face.rhs[-1] == 0
    assert support(face) == [True, False]


def test_restrict_to_optimal_face_keeps_the_scale():
    # costs 1/2, 1/2 are ints 1, 1 over scale 2; on 3 x0 + 2 x1 = 1 the
    # optimum is 1/6, and 1/6 * 2 = 1/3, so the face row is 3 x0 + 3 x1 = 1
    prog = dense_lp(2, [[3, 2]], [1], [F(1, 2), F(1, 2)])
    face = restrict_to_optimal_face(prog)
    assert face.rows[-1] == {0: 3, 1: 3} and face.rhs[-1] == 1
    assert (face.objective, face.scale) == ([1, 1], 2)
    assert solve_lp(face).value == F(1, 6)
    assert support(face) == [True, False]


def test_restrict_redundant_when_face_is_whole_polytope():
    prog = dense_lp(2, [[1, 1]], [1], [1, 1])
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
    return dense_lp(n, rows, rhs, [rng.randint(-2, 2) for _ in range(n)])


def support_union(points, n):
    return [any(p[i] > 0 for p in points) for i in range(n)]


def assert_interior(prog, point, flags):
    for row, b in zip(prog.rows, prog.rhs):
        assert dot(row, point) == b
    assert [x > 0 for x in point] == flags and all(x >= 0 for x in point)


def fractions(ints, den, flags):
    return exactlp.divided(ints, den), flags


def assert_warm_matches_vertices(prog, vertices):
    """The optimum, the region's support and the optimal face's support of
    a bounded, nonempty region, against its enumerated vertices."""
    warm = WarmLP(prog)
    res = warm.minimise()
    cost_of = costs(prog)
    cost = [sum((c * x for c, x in zip(cost_of, v)), Z) for v in vertices]
    assert res.status == OPTIMAL and res.value == min(cost)
    assert res.point in vertices
    point, flags = fractions(*warm.interior_ints())
    assert flags == support_union(vertices, prog.n)
    assert_interior(prog, point, flags)
    best = [v for v, c in zip(vertices, cost) if c == min(cost)]
    face_point, face_flags = fractions(*warm.face_interior_ints())
    assert face_flags == support_union(best, prog.n)
    assert_interior(prog, face_point, face_flags)
    assert sum((c * x for c, x in zip(cost_of, face_point)), Z) == res.value
    # the face straight after phase 1, without the earlier rounds
    assert WarmLP(prog).face_interior_ints()[2] == face_flags


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
    warm = WarmLP(dense_lp(3, [[1, -1, 0], [0, 0, 1]], [1, 0], [0, 0, 0]))
    point, flags = fractions(*warm.interior_ints())
    assert flags == [True, True, False]
    assert point[0] - point[1] == 1 and point[2] == 0


def test_warm_face_of_unbounded_region():
    # x1 - x2 = 0 minimising x3: the face is the ray x1 = x2, x3 = 0
    prog = dense_lp(3, [[1, -1, 0]], [0], [0, 0, 1])
    point, flags = fractions(*WarmLP(prog).face_interior_ints())
    assert flags == [True, True, False]
    assert point[0] == point[1] > 0


def test_warm_face_unbounded_objective():
    with pytest.raises(UnboundedObjective):
        WarmLP(dense_lp(2, [[1, -1]], [0], [-1, 0])).face_interior_ints()


def test_warm_rounds_empty_region():
    warm = WarmLP(dense_lp(1, [[1], [1]], [1, 2], [0]))
    assert warm.minimise().status == INFEASIBLE
    with pytest.raises(InfeasibleRegion):
        warm.interior_ints()
    with pytest.raises(InfeasibleRegion):
        warm.face_interior_ints()


def random_lp(rng, n_max=6, m_max=4):
    n = rng.randint(1, n_max)
    m = rng.randint(1, min(m_max, n))
    return dense_lp(
        n,
        [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)],
        [rng.randint(-2, 3) for _ in range(m)],
        [rng.randint(-3, 3) for _ in range(n)],
    )


def test_against_vertex_enumeration():
    rng = random.Random(42)
    unbounded = 0
    for _ in range(60):
        prog = random_lp(rng)
        res = solve_lp(prog)
        if res.status == OPTIMAL:
            expected = vertex_minimum(prog)
            assert expected is not None
            assert res.value == expected
            for row, b in zip(prog.rows, prog.rhs):
                assert dot(row, res.point) == b
        elif res.status == INFEASIBLE:
            assert enumerate_vertices(prog) == []
        else:
            # a feasible point, and a ray that keeps A x = b and x >= 0
            # while the objective falls along it
            unbounded += 1
            assert res.status == UNBOUNDED
            assert all(x >= 0 for x in res.point) and all(r >= 0 for r in res.ray)
            for row, b in zip(prog.rows, prog.rhs):
                assert dot(row, res.point) == b
                assert dot(row, res.ray) == 0
            assert sum((c * r for c, r in zip(costs(prog), res.ray)), Z) < 0
    assert unbounded == 17


def rational_lp(rng):
    """bounded_lp with rational data: each row has its own denominators, so
    the converter scales each row by a different lcm; some rows have
    negative right-hand sides (flipped before phase 1) and some are 0
    (degenerate)."""
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
    return dense_lp(n, rows, rhs, [q(-3, 3) for _ in range(n)])


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
    prog = dense_lp(2, [[F(1, 2), F(-2, 3)]], [F(-1, 3)], [F(-1), Z])
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
    prog = dense_lp(n, rows, rhs, [q(-3, 3) for _ in range(n)])
    return prog, expected, kinds


def test_crash_basis_matches_vertex_enumeration(monkeypatch):
    # a row starts from its unit column, and only the others get an
    # artificial; the optimum and both supports are as before
    rng = random.Random(29)
    checked = 0
    seen = set()
    for _ in range(280):
        prog, expected, kinds = slack_form_lp(rng)
        with monkeypatch.context() as m:  # the crash basis, before phase 1
            m.setattr(WarmLP, "_phase1", lambda tab: None)
            tab = WarmLP(prog)
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
    prog = dense_lp(
        5,
        [[1, 1, 1, 0, 0], [1, -1, 0, F(1, 3), 0], [0, 2, 0, 0, 1]],
        [2, F(1, 3), 0],
        [-1, -1, 0, 0, 0],
    )
    pivots = counting_pivots(monkeypatch)
    warm = WarmLP(prog)
    assert pivots == [] and warm.basis == [2, 3, 4] and warm.width == 5
    res = warm.minimise()
    assert res.status == OPTIMAL and res.value == F(-1, 3) and pivots
    assert_warm_matches_vertices(prog, enumerate_vertices(prog))


def test_crash_pivot_retires_an_artificial_before_phase_1(monkeypatch):
    # x0 + x1 = 1, 2 x0 + s1 = 1, x1 + s2 = 3: the first row has no unit
    # column, so artificial 4 holds it.  x0 is positive there but loses its
    # ratio test to s1's row; x1 wins its own, so it is pivoted in at once
    # and phase 1's simplex finds nothing to price (it would enter x0 first)
    prog = dense_lp(
        4, [[1, 1, 0, 0], [2, 0, 1, 0], [0, 1, 0, 1]], [1, 1, 3], [1, 0, 0, 0]
    )
    pivots = counting_pivots(monkeypatch)
    runs = []
    original = WarmLP.run
    monkeypatch.setattr(
        WarmLP, "run", lambda tab, *a: runs.append(len(pivots)) or original(tab, *a)
    )
    warm = WarmLP(prog)
    assert pivots == [Pivot(1, 4, False)] and runs == [1]
    assert warm.basis == [1, 2, 3] and warm.width == 4
    res = warm.minimise()
    assert res.status == OPTIMAL and res.point == [0, 1, 1, 2]
    assert_warm_matches_vertices(prog, enumerate_vertices(prog))


def test_ratio_tie_goes_to_the_artificial(monkeypatch):
    # x0 + 2 x1 = 2, x0 + s = 2: column 0's ratio is 2 in both rows, and
    # the row of artificial 3 wins it over the row of slack 2
    prog = dense_lp(3, [[1, 2, 0], [1, 0, 1]], [2, 2], [0, 0, 0])
    with monkeypatch.context() as m:  # the crash basis, before phase 1
        m.setattr(WarmLP, "_phase1", lambda tab: None)
        tab = WarmLP(prog)
    assert tab.basis == [3, 2] and tab._leaving(0) == 0
    # x0 + x1 = 1, 3 x0 + x1 + 2 x2 = 4, x0 + s = 1 (artificials 4 and 5):
    # x2 fits the second row, so a crash pivot takes it; the simplex then
    # enters x0, whose ratio is 1 in the first row and the last, 4/3 in the
    # second, and the first row's artificial leaves, not the slack
    prog = dense_lp(
        4, [[1, 1, 0, 0], [3, 1, 2, 0], [1, 0, 0, 1]], [1, 4, 1], [0, 1, 0, 0]
    )
    pivots = counting_pivots(monkeypatch)
    warm = WarmLP(prog)
    assert pivots == [Pivot(2, 5, False), Pivot(0, 4, False)]
    assert warm.basis == [0, 2, 3] and warm.width == 4
    assert_warm_matches_vertices(prog, enumerate_vertices(prog))


# Beale's (1955) LP: min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 over three rows
# with slacks x1, x2, x3; its optimum is -1/20
BEALE = dense_lp(
    7,
    [
        [1, 0, 0, F(1, 4), -60, F(-1, 25), 9],
        [0, 1, 0, F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ],
    [0, 0, 1],
    [0, 0, 0, F(-3, 4), 150, F(-1, 50), 6],
)
# the same LP from the second basis of its Dantzig cycle, {x4, x2, x3}: the
# rows solved for that basis, the columns scaled by 3, 6, 1, 4, 3/5, 100 and
# 4 so that every row is an int row with its basic column a unit column,
# and the reduced costs there as the objective (they differ from Beale's by
# a multiple of the rhs-0 rows).  The tableau starts from that basis, and
# Dantzig's rule alone comes back to it every six degenerate pivots.
BEALE_CYCLE = dense_lp(
    7,
    [[3, 0, 0, 1, -36, -4, 36], [-1, 1, 0, 0, 3, 1, -10], [0, 0, 1, 0, 0, 100, 0]],
    [0, 0, 1],
    [9, 0, 0, 0, -18, -14, 132],
)


def test_pricing_terminates_on_beales_cycling_lp(monkeypatch):
    # after the first degenerate pivot the Bland fallback takes over, and
    # the run leaves the cycle at Beale's optimum
    pivots = counting_pivots(monkeypatch)
    warm = WarmLP(BEALE_CYCLE)
    assert warm.basis == [3, 1, 2] and pivots == []
    res = warm.minimise()
    assert res.status == OPTIMAL and res.value == F(-1, 20)
    assert res.value == vertex_minimum(BEALE_CYCLE)
    assert pivots[0].degenerate and len(pivots) < 6
    # as given, Beale's rows are not int rows, so phase 1 starts elsewhere
    res = solve_lp(BEALE)
    assert res.status == OPTIMAL and res.value == F(-1, 20)


def degenerate_lp(rng):
    """A region that a row of positive coefficients keeps bounded, whose
    other rows have rhs 0, half of them with a slack, so that many bases
    share a point and most pivots, in phase 1 and phase 2, are degenerate."""
    n = rng.randint(3, 5)
    m = rng.randint(2, 4)
    rows = [[rng.randint(1, 3) for _ in range(n)]]
    rows += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m - 1)]
    slacks = [i for i in range(1, m) if rng.random() < 0.5]
    for i, row in enumerate(rows):
        row.extend(int(i == k) for k in slacks)
    n += len(slacks)
    rhs = [rng.randint(1, 4)] + [0] * (m - 1)
    return dense_lp(n, rows, rhs, [rng.randint(-3, 3) for _ in range(n)])


def test_degenerate_lps_match_vertex_enumeration(monkeypatch):
    pivots = counting_pivots(monkeypatch)
    rng = random.Random(53)
    optimal = 0
    for _ in range(150):
        prog = degenerate_lp(rng)
        res = solve_lp(prog)
        expected = vertex_minimum(prog)
        if expected is None:
            assert res.status == INFEASIBLE
            continue
        optimal += 1
        assert res.status == OPTIMAL and res.value == expected
    assert optimal >= 60
    degenerate = sum(p.degenerate for p in pivots)
    assert degenerate >= 200 and degenerate > len(pivots) // 2


def test_no_artificial_enters_in_phase_1(monkeypatch):
    # every pivot a tableau makes before it is handed out (crash pivots,
    # phase 1's simplex and the drive-out) enters a structural column,
    # though many take an artificial out of the basis
    pivots = counting_pivots(monkeypatch)
    rng = random.Random(41)
    structures = [
        generators.xor_structure(),
        generators.horn_structure(),
        generators.random_structure(rng, 3),
    ]
    programs = [
        build_blp(structures[k % 3], generators.random_instance(rng, structures[k % 3], 6, 6))
        for k in range(30)
    ]
    programs += [rational_lp(rng) for _ in range(60)]
    programs += [slack_form_lp(rng)[0] for _ in range(60)]
    programs += [degenerate_lp(rng) for _ in range(60)]
    left = entered = 0
    for prog in programs:
        del pivots[:]
        WarmLP(prog)
        assert all(p.enter < prog.n for p in pivots)
        left += sum(p.leave >= prog.n for p in pivots)
        entered += len(pivots)
    assert left >= 200 and entered > left


def test_basic_solutions_checked_in_ints_under_optimise_flag():
    # a tableau entry corrupted after phase 1 must not reach a caller, even
    # with asserts off
    script = """
from pvcsp.exactlp import LinearProgram, WarmLP
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
# x1 / 2 + x2 / 3 = 1, scaled to ints
prog = LinearProgram(2, [{0: 3, 1: 2}], [6], [1, 1])
for corrupt in ("rhs", "ray"):
    tab = WarmLP(prog)
    tab.rows[0][-1 if corrupt == "rhs" else 1] += 1
    try:
        tab.witness(None) if corrupt == "rhs" else tab.witness(1)
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
    original = WarmLP.pivot

    def replay(tab, r, c):
        ref = tableau_state(tab)
        dense_pivot(ref, r, c)
        for i, row in enumerate(tab.rows):
            if i != r and row[c]:
                rows_by_path["sparse" if tab.den[i] == ref.d else "dense"] += 1
        original(tab, r, c)
        assert tableau_state(tab) == ref

    monkeypatch.setattr(WarmLP, "pivot", replay)
    rng = random.Random(37)
    structures = [
        generators.xor_structure(),
        generators.horn_structure(),
        generators.submodular_structure(rng),
        generators.random_structure(rng, 2),
        generators.random_structure(rng, 3),
    ]
    programs = [
        build_blp(structures[k % 5], generators.random_instance(rng, structures[k % 5], 8, 8))
        for k in range(60)
    ]
    programs += [rational_lp(rng) for _ in range(60)]
    programs += [slack_form_lp(rng)[0] for _ in range(60)]
    solved = 0
    for prog in programs:
        warm = WarmLP(prog)
        if warm.minimise().status == OPTIMAL:
            solved += 1
            warm.interior_ints()
            warm.face_interior_ints()
    assert solved >= 100
    assert rows_by_path["sparse"] > 1000 and rows_by_path["dense"] > 1000


def test_int_rows_are_read_as_ints(monkeypatch):
    # entries given as Fraction(k, 1) among ints, converted once: the
    # tableau holds ints only, including a row with a negative rhs, and the
    # answers are the vertex enumeration's
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
        prog = dense_lp(n, rows, rhs, [entry(-2, 2) for _ in range(n)])
        with monkeypatch.context() as m:  # the tableau before phase 1
            m.setattr(WarmLP, "_phase1", lambda tab: None)
            tab = WarmLP(prog)
        assert all(type(a) is int for column in tab.cols for _, a in column)
        assert all(type(a) is int for ints in tab.rows for a in ints)
        vertices = enumerate_vertices(prog)
        if not vertices:
            continue
        checked += 1
        negative += any(b < 0 for b in rhs)
        assert_warm_matches_vertices(prog, vertices)
        warm = WarmLP(prog)
        warm.face_interior_ints()
        assert all(type(a) is int for column in warm.cols for _, a in column)
        assert all(type(a) is int for ints in warm.rows for a in ints)
    assert checked >= 25 and negative >= 10


def test_column_indexed_check_under_optimise_flag():
    # the BLP of one xor1 term over x, y, as a plain LinearProgram, whose
    # tableau holds all its rows: phase 1 deletes a normalisation row as
    # redundant, and the check still reads that row through the column index;
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
phase1 = exactlp.WarmLP._phase1
def recording_phase1(tab):
    tab.rows = Recording(tab.rows)
    return phase1(tab)
exactlp.WarmLP._phase1 = recording_phase1
instance = Instance(("x", "y"), (Term("xor1", ("x", "y")),), F(0))
blp = relax.build_blp(generators.xor_structure(), instance)
prog = exactlp.LinearProgram(blp.n, blp.rows, blp.rhs, blp.objective)
tab = exactlp.WarmLP(prog)
print("deleted:", deleted, "basis:", tab.basis)
ray = min(set(range(prog.n)) - set(tab.basis))
def caught(corrupt, check):
    tab = exactlp.WarmLP(prog)
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
    tab.cols[-1] = [(i, a + (i == k)) for i, a in tab.cols[-1]]
for i in range(len(tab.rows)):
    caught(bump(i, -1), lambda tab: tab.witness(None))
for i in range(len(tab.rows)):
    caught(bump(i, ray), lambda tab: tab.witness(ray))
caught(bump_deleted_rhs, lambda tab: tab.witness(None))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0] == "deleted: [5] basis: [0, 1, 3, 2, 4]"
    assert out[1:] == ["caught: basic solution violates an input row"] * 11


def test_implied_row_checked_under_optimise_flag():
    # the same BLP's own tableau leaves out its implied row, the last
    # marginal row of y, and phase 1 deletes nothing; a corrupted rhs of
    # that row in the column index, or its entry at a basic column, must
    # still not reach a caller
    script = """
from fractions import Fraction as F
from pvcsp import exactlp, generators, relax
from pvcsp.core import Instance, Term
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
instance = Instance(("x", "y"), (Term("xor1", ("x", "y")),), F(0))
prog = relax.build_blp(generators.xor_structure(), instance)
tab = prog.warm
(k,) = prog.implied
print("implied:", k, "held:", len(tab.rows), "of", tab.m)
# a basic column with a nonzero in the implied row, read from its index
j = next(j for j in tab.witness(None) if any(i == k for i, _ in tab.cols[j]))
def bump_rhs(tab):
    tab.cols[-1] = sorted(tab.cols[-1] + [(k, 1)])
def bump_entry(tab):
    tab.cols[j] = [(i, a + (i == k)) for i, a in tab.cols[j]]
for corrupt in (bump_rhs, bump_entry):
    tab = exactlp.WarmLP(prog)
    corrupt(tab)
    try:
        tab.witness(None)
    except InvariantViolated as exc:
        print("caught:", exc)
    else:
        print("missed")
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0] == "implied: 3 held: 5 of 6"
    assert out[1:] == ["caught: basic solution violates an input row"] * 2
