"""Independent oracles used by the tests: vertex enumeration for LPs, a
dense Bareiss pivot, box enumeration for integer systems, a dense HNF, a
scan-based column echelon form, a table-level witness search, the
block-multiset costs over every arrangement of every argument, a
four-pass BLP builder and the star point's arithmetic in Fractions.  These
never share code with the solver paths they check; the witness-search
reference shares only the LP solver, which has its own oracle above, and
the star-point reference only the simplex and its support rounds.  A test
that writes a program densely builds it through one converter, dense_lp,
and one that counts pivots records them through counting_pivots."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from pvcsp import exactlp
from pvcsp.core import FiniteMeasure, OperationTable, tuple_to_multiset
from pvcsp.theory import NONE_EXISTS, block_multiset_domain
from pvcsp.values import PLUS_INF

ZERO = Fraction(0)


def sparse(row):
    """A dense row's nonzeros by column, LinearProgram's row format."""
    return {j: a for j, a in enumerate(row) if a}


def dense(row, n):
    """A row in LinearProgram's format as its n dense entries."""
    return [row.get(j, 0) for j in range(n)]


def dot(row, x):
    """A row in LinearProgram's format times the vector x, in Fractions."""
    return sum((a * x[j] for j, a in row.items()), ZERO)


def dense_lp(n, rows, rhs, objective):
    """The one converter of a program written densely, with int or Fraction
    entries: each row is scaled with its rhs by the lcm of their
    denominators to ints, and keeps its nonzeros; the objective is scaled
    the same way, and that lcm is the program's scale."""
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        s = math.lcm(*(Fraction(a).denominator for a in [*row, b]))
        int_rows.append(sparse([int(a * s) for a in row]))
        int_rhs.append(int(b * s))
    s = math.lcm(*(Fraction(c).denominator for c in objective))
    ints = [int(c * s) for c in objective]
    return exactlp.LinearProgram(n, int_rows, int_rhs, ints, scale=s)


def costs(lp):
    """A program's column costs as Fractions: objective / scale."""
    return [Fraction(c, lp.scale) for c in lp.objective]


def solve_unique(rows, rhs):
    """Unique solution of a (possibly rectangular) system, or None when the
    system is inconsistent or underdetermined."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    M = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(m)]
    pivots = 0
    for col in range(k):
        piv = next((r for r in range(pivots, m) if M[r][col] != 0), None)
        if piv is None:
            return None  # free column: not unique
        M[pivots], M[piv] = M[piv], M[pivots]
        inv = Fraction(1) / M[pivots][col]
        M[pivots] = [a * inv for a in M[pivots]]
        for r in range(m):
            if r != pivots and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[pivots])]
        pivots += 1
    for r in range(pivots, m):
        if M[r][k] != 0:
            return None  # inconsistent
    return [M[r][k] for r in range(k)]


def enumerate_vertices(lp):
    """All basic feasible solutions of {Ax=b, x>=0}: supports of size at
    most m with independent columns and a nonnegative unique solution."""
    m = len(lp.rows)
    vertices = []
    for size in range(0, min(m, lp.n) + 1):
        for cols in itertools.combinations(range(lp.n), size):
            rows = [[lp.rows[i].get(j, 0) for j in cols] for i in range(m)]
            if size == 0:
                sol = [] if all(b == 0 for b in lp.rhs) else None
            else:
                sol = solve_unique(rows, lp.rhs)
            if sol is None or any(v < 0 for v in sol):
                continue
            x = [ZERO] * lp.n
            for j, v in zip(cols, sol):
                x[j] = v
            if x not in vertices:
                vertices.append(x)
    return vertices


def vertex_minimum(lp):
    """Minimum objective over enumerated vertices; None if no vertex."""
    vertices = enumerate_vertices(lp)
    if not vertices:
        return None
    return min(
        sum((c * x for c, x in zip(costs(lp), v)), ZERO) for v in vertices
    )


def dense_pivot(tab, r, c):
    """Reference for exactlp.WarmLP.pivot: the dense Bareiss update of
    every row with a nonzero in column c, and of the reduced-cost row, over
    the new denominator p.  `tab` holds rows, den, d, red, red_den and basis
    as in a tableau, and is updated in place."""

    def eliminate(row, e, f, prow, p):
        if e == 1:
            return [p * a - f * b for a, b in zip(row, prow)]
        return [(p * a - f * b) // e for a, b in zip(row, prow)]

    d, e = tab.d, tab.den[r]
    prow = tab.rows[r] if e == d else [a * d // e for a in tab.rows[r]]
    p = prow[c]
    if p < 0:
        prow = [-a for a in prow]
        p = -p
    for i, row in enumerate(tab.rows):
        f = row[c]
        if f and i != r:
            tab.rows[i] = eliminate(row, tab.den[i], f, prow, p)
            tab.den[i] = p
    tab.rows[r], tab.den[r] = prow, p
    if tab.red is not None:
        tab.red = eliminate(tab.red, tab.red_den, tab.red[c], prow, p)
        tab.red_den = p
    tab.d = p
    tab.basis[r] = c


class Pivot(NamedTuple):
    """One pivot of a WarmLP: the entering column, the basic column that
    leaves, and whether the pivot row's rhs is 0 (a degenerate pivot)."""

    enter: int
    leave: int
    degenerate: bool


def counting_pivots(monkeypatch):
    """Record every WarmLP pivot as a Pivot, in order; a cycling run fails
    at its 1,000th pivot instead of running forever."""
    pivots = []
    original = exactlp.WarmLP.pivot

    def pivot(tab, r, c):
        pivots.append(Pivot(c, tab.basis[r], tab.rows[r][-1] == 0))
        assert len(pivots) < 1000, "the simplex cycles"
        original(tab, r, c)

    monkeypatch.setattr(exactlp.WarmLP, "pivot", pivot)
    return pivots


def box_solutions(A, b, bound):
    """Integer points x with |x_i| <= bound and Ax = b, via numpy.

    Every coordinate but one is enumerated over the box.  The one left
    out, x_j, has a nonzero coefficient in some row r, so it is solved from
    row r by exact division; then the box bound on x_j and every row are
    checked.  Entries stay far inside int64, so the arithmetic is exact.
    """
    An = np.array(A, dtype=np.int64)
    bn = np.array(b, dtype=np.int64)
    n = An.shape[1]
    axis = np.arange(-bound, bound + 1)
    nonzero = np.argwhere(An != 0)
    if len(nonzero) == 0:  # 0 = b holds on the whole box or nowhere
        if bn.any():
            return np.empty((0, n), dtype=np.int64)
        grids = np.meshgrid(*[axis] * n, indexing="ij")
        return np.stack([g.ravel() for g in grids]).T
    r, j = nonzero[0]
    X = np.zeros((n, axis.size ** (n - 1)), dtype=np.int64)
    grids = np.meshgrid(*[axis] * (n - 1), indexing="ij")
    for k, g in zip([k for k in range(n) if k != j], grids):
        X[k] = g.ravel()
    residual = bn[r] - An[r] @ X  # X[j] is still 0
    X[j] = residual // An[r, j]
    mask = (
        (residual % An[r, j] == 0)
        & (np.abs(X[j]) <= bound)
        & np.all(An @ X == bn[:, None], axis=0)
    )
    return X[:, mask].T


def box_min_objective(A, b, c_num, c_den, bound):
    """Exact min of c.x over box solutions; c given as integer numerators
    over one common denominator.  Returns None if no solution."""
    rng = box_objective_range(A, b, c_num, c_den, bound)
    return None if rng is None else rng[0]


def box_objective_range(A, b, c_num, c_den, bound):
    """Exact (min, max) of c.x over box solutions, or None if empty.

    A strict spread certifies an unbounded objective on the full solution
    set: the difference of two solutions is an integer kernel direction
    the objective is not orthogonal to.
    """
    sols = box_solutions(A, b, bound)
    if sols.shape[0] == 0:
        return None
    vals = sols @ np.array(c_num, dtype=np.int64)
    return Fraction(int(vals.min()), c_den), Fraction(int(vals.max()), c_den)


def dense_hermite_normal_form(A):
    """Reference column HNF on dense lists: (H, U) with A*U = H.

    Each row is gcd-reduced over the columns not yet pivoted (smallest
    absolute entry first, then fewest nonzeros in the column of [H; U],
    then leftmost), the pivot made positive, and the entries left of it
    reduced into [0, pivot) at once; every column operation walks every
    row of H and U.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(a, b):
        for M in (H, U):
            for row in M:
                row[a], row[b] = row[b], row[a]

    def addmul(dst, src, k):
        for M in (H, U):
            for row in M:
                row[dst] += k * row[src]

    c = 0
    for r in range(m):
        if c >= n:
            break
        while True:
            nonzero = [j for j in range(c, n) if H[r][j] != 0]
            if not nonzero:
                break
            j = min(
                nonzero,
                key=lambda k: (
                    abs(H[r][k]),
                    sum(1 for M in (H, U) for row in M if row[k]),
                    k,
                ),
            )
            if j != c:
                swap(c, j)
            done = True
            for k in range(c + 1, n):
                if H[r][k] != 0:
                    addmul(k, c, -(H[r][k] // H[r][c]))
                    if H[r][k] != 0:
                        done = False
            if done:
                break
        if H[r][c] != 0:
            if H[r][c] < 0:
                addmul(c, c, -2)  # negates column c
            for k in range(c):
                q = H[r][k] // H[r][c]
                if q != 0:
                    addmul(k, c, -q)
            c += 1
    return H, U


def scan_echelon(A, passes=None, tail=None):
    """Reference for lattice._echelon: the same column echelon form of A
    with its tail, found by scanning every unpivoted column of each row on
    every gcd pass and swapping columns in a list.  The pivot is the least
    absolute entry, then the column of [H; tail] with fewest nonzeros,
    then the leftmost.

    Returns the columns of [H; T U] (dicts over the nonzero rows, the tail
    from row len(A) on; T is the identity unless tail gives each column's
    tail entries) and the pivots (row, column).  When passes is a list, the
    number of gcd passes of each row with a nonzero is appended to it.
    """

    def addmul(dst, src, k):
        for i, v in src.items():
            w = dst.get(i, 0) + k * v
            if w:
                dst[i] = w
            else:
                del dst[i]

    m = len(A)
    n = len(A[0]) if m else len(tail or ())
    cols = [{m + j: 1} for j in range(n)] if tail is None else [dict(t) for t in tail]
    for r, row in enumerate(A):
        for j, a in enumerate(row):
            if a:
                cols[j][r] = a
    pivots = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        count = 0
        while True:
            nonzero = [j for j in range(c, n) if r in cols[j]]
            if not nonzero:
                break
            count += 1
            j = min(nonzero, key=lambda k: (abs(cols[k][r]), len(cols[k]), k))
            cols[c], cols[j] = cols[j], cols[c]
            pivot = cols[c]
            done = True
            for k in nonzero:
                if k != c and r in cols[k]:
                    addmul(cols[k], pivot, -(cols[k][r] // pivot[r]))
                    if r in cols[k]:
                        done = False
            if done:
                break
        if passes is not None and count:
            passes.append(count)
        if r in cols[c]:
            if cols[c][r] < 0:
                cols[c] = {i: -v for i, v in cols[c].items()}
            pivots.append((r, c))
            c += 1
    return cols, pivots


def dense_solve_integer_system(A, b):
    """Reference integer solution set of Ax = b (A with at least one row
    and one column): (x0, kernel basis) by forward substitution on the
    dense HNF, or None when there is no integer solution."""
    m, n = len(A), len(A[0])
    H, U = dense_hermite_normal_form(A)
    y = [0] * n
    c = 0
    for r in range(m):
        residual = b[r] - sum(H[r][j] * y[j] for j in range(c))
        if c < n and H[r][c] != 0:
            if residual % H[r][c] != 0:
                return None
            y[c] = residual // H[r][c]
            c += 1
        elif residual != 0:
            return None
    x0 = [sum(U[i][j] * y[j] for j in range(c)) for i in range(n)]
    kernel = [[U[i][j] for i in range(n)] for j in range(c, n)]
    return x0, kernel


def gf2_satisfiable(equations):
    """Whether parity equations (variable bitmask, parity) over GF(2) have
    a common solution, by Gaussian elimination on bitmasks."""
    basis = {}  # leading bit -> (mask, parity)
    for mask, parity in equations:
        while mask:
            lead = mask.bit_length() - 1
            if lead not in basis:
                basis[lead] = (mask, parity)
                break
            bmask, bparity = basis[lead]
            mask, parity = mask ^ bmask, parity ^ bparity
        else:
            if parity:
                return False
    return True


def block_symmetric_tables(in_domain, out_domain, partition):
    """Every block-symmetric table, expanded in full: one free value per
    block-multiset element, in the lexicographic order of the outputs."""
    elements = block_multiset_domain(in_domain, partition)
    m = partition.arity
    points = list(itertools.product(in_domain, repeat=m))
    keys = [
        tuple(
            tuple_to_multiset([a[i] for i in block], in_domain)
            for block in partition.blocks
        )
        for a in points
    ]
    ops = []
    for outputs in itertools.product(out_domain, repeat=len(elements)):
        value = dict(zip(elements, outputs))
        mapping = {a: value[key] for a, key in zip(points, keys)}
        ops.append(OperationTable.from_map(in_domain, out_domain, m, mapping))
    return ops


def arrangements(element, partition):
    """Every tuple in D^m whose restriction to each block is an ordering of
    that block's multiset, each distinct tuple once."""
    per_block = [sorted(set(itertools.permutations(ms))) for ms in element]
    for combo in itertools.product(*per_block):
        t = [None] * partition.arity
        for block, arranged in zip(partition.blocks, combo):
            for pos, val in zip(block, arranged):
                t[pos] = val
        yield tuple(t)


def full_multiset_cost(delta, partition, symbol, elements):
    """The block-multiset structure's cost of one element tuple: the least
    Delta-cost average over every arrangement of every argument, with no
    argument fixed to a canonical one."""
    base = delta.table(symbol)
    best = PLUS_INF
    for combo in itertools.product(
        *[list(arrangements(e, partition)) for e in elements]
    ):
        total = sum((base[t] for t in zip(*combo)), ZERO)
        if total < best:
            best = total
    return best if best is PLUS_INF else best / partition.arity


def table_reference_search(template, partition):
    """Reference block-symmetric witness search over full tables: one LP
    row per finite constraint (m argument tuples of a symbol), unmerged;
    each table applied at every point; a column per distinct coefficient
    tuple, first table first.  Returns (output measure or NONE_EXISTS,
    number of LP rows or None when no LP was solved)."""
    delta, gamma = template.delta, template.gamma
    m = partition.arity
    ops = block_symmetric_tables(delta.domain, gamma.domain, partition)
    constraints = []
    for symbol, arity in delta.signature.symbols:
        symbol_tuples = itertools.product(delta.domain, repeat=arity)
        for tuples in itertools.product(symbol_tuples, repeat=m):
            costs = [delta.cost(symbol, t) for t in tuples]
            if all(c is not PLUS_INF for c in costs):
                rhs = sum(costs, Fraction(0)) / m
                constraints.append((symbol, tuple(zip(*tuples)), rhs))
    reps = {}
    for g in ops:
        column = [
            gamma.cost(symbol, tuple(g.apply(p) for p in points))
            for symbol, points, _ in constraints
        ]
        if all(c is not PLUS_INF for c in column):
            reps.setdefault(tuple(column), g)
    if not reps:
        return NONE_EXISTS, None
    n, k = len(reps), len(constraints)
    rows, rhs = [[1] * n + [0] * k], [1]
    for j, (entries, (_, _, bound)) in enumerate(zip(zip(*reps), constraints)):
        s = math.lcm(bound.denominator, *(x.denominator for x in entries))
        rows.append([x.numerator * (s // x.denominator) for x in entries] + [0] * k)
        rows[-1][n + j] = 1
        rhs.append(bound.numerator * (s // bound.denominator))
    res = exactlp.solve_lp(dense_lp(n + k, rows, rhs, [0] * (n + k)))
    if res.status != exactlp.OPTIMAL:
        return NONE_EXISTS, len(rows)
    measure = FiniteMeasure.from_pairs(
        (g, x) for g, x in zip(reps.values(), res.point) if x > 0
    )
    return measure, len(rows)


def reference_blp(delta, instance):
    """The BLP's rows, rhs, objective, columns and eliminated columns,
    built in four passes: a keep predicate over every column key, each
    marginal row by a scan over all tuples through a position map, one
    normalisation row per variable, and the objective by a second cost
    lookup per kept column."""
    dom = {
        (j, t)
        for j, term in enumerate(instance.terms)
        for t, cost in delta.table(term.symbol).items()
        if cost is not PLUS_INF
    }

    def keep(key):
        return key[0] == "mu" or (key[1], key[2]) in dom

    columns, eliminated = [], []
    for j, term in enumerate(instance.terms):
        arity = delta.signature.arity(term.symbol)
        for t in itertools.product(delta.domain, repeat=arity):
            key = ("lam", j, t)
            (columns if keep(key) else eliminated).append(key)
    for x in instance.variables:
        for a in delta.domain:
            key = ("mu", x, a)
            (columns if keep(key) else eliminated).append(key)
    position = {k: i for i, k in enumerate(columns)}
    n = len(columns)
    rows, rhs = [], []
    for j, term in enumerate(instance.terms):
        arity = delta.signature.arity(term.symbol)
        for ell in range(arity):
            x = term.args[ell]
            for a in delta.domain:
                row = [0] * n
                for t in itertools.product(delta.domain, repeat=arity):
                    pos = position.get(("lam", j, t))
                    if t[ell] == a and pos is not None:
                        row[pos] += 1
                row[position[("mu", x, a)]] -= 1
                rows.append(row)
                rhs.append(0)
    for x in instance.variables:
        row = [0] * n
        for a in delta.domain:
            row[position[("mu", x, a)]] += 1
        rows.append(row)
        rhs.append(1)
    objective = [ZERO] * n
    for i, key in enumerate(columns):
        if key[0] == "lam":
            objective[i] = delta.cost(instance.terms[key[1]].symbol, key[2])
    return rows, rhs, objective, columns, eliminated


def fraction_star_point(lp, u=None):
    """The star point with every sum after the simplex in Fractions.

    On a fresh WarmLP of the BLP, built as Relaxation.warm builds it (the
    implied rows left out of the tableau): phase 2's value summed over the
    basis, the interior point's cost, theta* = (cost - u) / (cost - value),
    theta = (theta* + 1) / 2 and the mix (1 - theta) p + theta v with the
    optimal vertex v.  u defaults to the value.  Returns the value, the
    interior point's cost, the star values, the provenance and the branch
    taken ("interior", "mix" or "face"); all but the value are None when
    the value exceeds u, and all five when the region is empty."""
    warm = exactlp.WarmLP(lp)
    res = warm.minimise()
    if res.status != exactlp.OPTIMAL:
        return None, None, None, None, None
    cost_of = costs(lp)
    value = sum((cost_of[b] * res.point[b] for b in warm.basis), ZERO)
    u = value if u is None else u
    if not value <= u:
        return value, None, None, None, None
    ints, den, _ = warm.interior_ints()
    p = exactlp.divided(ints, den)
    cost = sum((c * x for c, x in zip(cost_of, p)), ZERO)
    if cost <= u:
        return value, cost, p, "feasible-interior", "interior"
    if value < u:
        theta = ((cost - u) / (cost - value) + 1) / 2
        mixed = [(1 - theta) * a + theta * b for a, b in zip(p, res.point)]
        return value, cost, mixed, "feasible-interior", "mix"
    ints, den, _ = warm.face_interior_ints()
    q = exactlp.divided(ints, den)
    return value, cost, q, "optimal-face-interior", "face"
