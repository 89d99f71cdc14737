"""Integer linear algebra: column-style Hermite normal form, Diophantine
systems, and exact evaluation of affine integer program values.

A linear objective over an affine integer lattice is either constant or
unbounded below, so a program value is always one of {+inf, finite, -inf}.
One elimination carries a tail under A: the identity gives U, the objective
row gives a program value without U.  It reads A by its rows' nonzeros, the
row format of exactlp.LinearProgram: `affine_min` takes such a program, and
the dense entry points (hermite_normal_form, solve_integer_system) convert
their matrix to it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, InvariantViolated
from .exactlp import LinearProgram, Row, sparse_row
from .values import MINUS_INF, PLUS_INF, ExtVal, int_scaled

IntMatrix = list[list[int]]


@dataclass
class AffineLattice:
    """All integer solutions of Ax = b: x0 plus integer combinations of the
    kernel basis (which generates the full integer kernel of A)."""

    x0: list[int]
    kernel_basis: list[list[int]]
    dimension: int


INFEASIBLE = "infeasible"


# a sparse column: row -> nonzero int; rows 0..m-1 are H, rows m on the tail
Column = dict[int, int]


def _addmul(
    dst: Column, src: Column, k: int, where: Sequence[set[int]] = (), j: int = 0
) -> None:
    """dst += k * src for k != 0, dropping entries that cancel to zero.

    where[i], for the rows i < len(where), is the set of ids of the
    columns nonzero in row i; dst's id j joins it when dst's entry in row
    i appears and leaves it when that entry cancels."""
    m = len(where)
    for i, v in src.items():
        w = dst.get(i)
        if w is None:
            dst[i] = k * v
            if i < m:
                where[i].add(j)
        elif w := w + k * v:
            dst[i] = w
        else:
            del dst[i]
            if i < m:
                where[i].discard(j)


def _echelon(
    A: list[Row], tail: list[Column]
) -> tuple[list[Column], list[tuple[int, int]]]:
    """Column echelon form of A, given by its rows' nonzeros, with a tail
    T: tail[j] is column j's entries from row m on.

    Returns the columns of [H; T U], A*U = H, U unimodular, each a dict
    over the nonzero rows, and the pivots (row, column) in order: pivot k
    sits in column k, is positive, and every column after it is zero in its
    row and above.  Entries left of a pivot are not reduced
    (hermite_normal_form does that).  Each row is gcd-reduced over the
    columns not yet pivoted: least absolute entry first, then fewest
    nonzeros in the column, tail included, then leftmost.

    The work follows the nonzeros: where[r] holds the ids of the unpivoted
    columns nonzero in H row r.  It is built once from A, kept by _addmul,
    and a column leaves it on becoming a pivot, since pivot columns never
    change again.  Columns keep their ids; a position permutation (order,
    pos) stands in for swapping them, and they are returned in position
    order.
    """
    m, n = len(A), len(tail)
    cols: list[Column] = [dict(t) for t in tail]
    where: list[set[int]] = []
    for r, row in enumerate(A):
        where.append(set(row))
        for j, a in row.items():
            cols[j][r] = a
    order = list(range(n))
    pos = list(range(n))
    pivots: list[tuple[int, int]] = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        nonzero = where[r]
        if not nonzero:
            continue
        while True:
            j = min(nonzero, key=lambda k: (abs(cols[k][r]), len(cols[k]), pos[k]))
            # swap positions c and pos[j]
            p, i = pos[j], order[c]
            order[c], order[p], pos[j], pos[i] = j, i, c, p
            if len(nonzero) == 1:
                break
            pivot = cols[j]
            for k in [k for k in nonzero if k != j]:
                _addmul(cols[k], pivot, -(cols[k][r] // pivot[r]), where, k)
        if cols[j][r] < 0:
            cols[j] = {i: -v for i, v in cols[j].items()}
        for i in cols[j]:
            if i < m:
                where[i].discard(j)
        pivots.append((r, c))
        c += 1
    return [cols[j] for j in order], pivots


def _unimodular(A: IntMatrix, n: int) -> tuple[list[Column], list[tuple[int, int]]]:
    """_echelon of the dense n-column A under the identity: [H; U]."""
    rows = list(map(sparse_row, A))
    return _echelon(rows, [{len(A) + j: 1} for j in range(n)])


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column HNF: returns (H, U) with A*U = H, U unimodular, H in
    lower-triangular profile with positive pivots and reduced off-profile
    entries: the echelon form, then one reduction pass down the pivots."""
    m = len(A)
    n = len(A[0]) if m else 0
    cols, pivots = _unimodular(A, n)
    for r, c in pivots:
        p = cols[c][r]
        for k in range(c):
            q = cols[k].get(r, 0) // p
            if q:
                _addmul(cols[k], cols[c], -q)
    H = [[col.get(r, 0) for col in cols] for r in range(m)]
    U = [[col.get(m + i, 0) for col in cols] for i in range(n)]
    return H, U


def _width(A: IntMatrix, b: Sequence[int], ncols: Optional[int]) -> int:
    """A's width, checked against b, every row and ncols (needed if no rows)."""
    n = len(A[0]) if A else (ncols or 0)
    if ncols is not None and ncols != n:
        raise DimensionMismatch("ncols disagrees with matrix width")
    if len(b) != len(A):
        raise DimensionMismatch("rhs length != row count")
    for row in A:
        if len(row) != n:
            raise DimensionMismatch("ragged matrix")
    return n


def _substitute(
    cols: list[Column], pivots: list[tuple[int, int]], b: Sequence[int], width: int
) -> Optional[list[int]]:
    """T y for the integer y with H y = b, or None if there is none, from
    _echelon's [H; T] (width rows of T): a pivot row fixes y_c, every other
    row must already hold, and T y accumulates alongside."""
    m = len(b)
    if any(i < m for col in cols[len(pivots):] for i in col):
        raise InvariantViolated("kernel column has a nonzero in H")
    residual = list(b)
    acc = [0] * width
    pivot_of = dict(pivots)
    for r in range(m):
        c = pivot_of.get(r)
        if c is None:
            if residual[r] != 0:
                return None
            continue
        y, rem = divmod(residual[r], cols[c][r])
        if rem:
            return None
        if y:
            for i, v in cols[c].items():
                if i < m:
                    residual[i] -= y * v
                else:
                    acc[i - m] += y * v
    return acc


def solve_integer_system(
    A: IntMatrix, b: Sequence[int], ncols: Optional[int] = None
) -> Union[AffineLattice, str]:
    """All integer solutions of Ax = b, or INFEASIBLE.

    ncols disambiguates the dimension when A has no rows.  The particular
    solution x0 = U y comes from forward substitution on [H; U]; the kernel
    basis is the unimodular columns past the rank profile.  The HNF's
    reduction pass only adds pivot columns to earlier pivot columns, so it
    would change neither the kernel columns nor U y, and is skipped.
    """
    n = _width(A, b, ncols)
    m = len(A)
    cols, pivots = _unimodular(A, n)
    x0 = _substitute(cols, pivots, b, n)
    if x0 is None:
        return INFEASIBLE
    basis = [[col.get(m + i, 0) for i in range(n)] for col in cols[len(pivots):]]
    return AffineLattice(x0, basis, n)


def affine_min(lp: LinearProgram) -> ExtVal:
    """min cost.x over the integer solutions of the program's held
    rows: evaluate_affine_min of solve_integer_system's lattice, without U.

    The tail is the int objective c, over the program's scale, so _echelon
    gives [H; c U]: substitution yields c.x0, and a kernel column's tail
    entry is c on a kernel vector.  Any U gives the same value: particular
    solutions differ by a kernel vector, on which c vanishes whenever the
    value is finite."""
    held = lp.held
    m = len(held)
    tail = [{m: a} if a else {} for a in lp.objective]
    cols, pivots = _echelon([lp.rows[i] for i in held], tail)
    acc = _substitute(cols, pivots, [lp.rhs[i] for i in held], 1)
    if acc is None:
        return PLUS_INF
    # _substitute checked that kernel columns hold tail entries only
    if any(cols[len(pivots):]):
        return MINUS_INF
    return Fraction(acc[0], lp.scale)


def evaluate_affine_min(
    c: Sequence[Fraction], lattice: Union[AffineLattice, str]
) -> ExtVal:
    """Value of min c.x over the lattice: +inf, -inf, or the constant.

    Exact, in ints: c is scaled once by the lcm of its denominators."""
    if lattice == INFEASIBLE:
        return PLUS_INF
    if len(c) != lattice.dimension:
        raise DimensionMismatch("objective length != lattice dimension")
    ints, den = int_scaled(c)
    terms = [(i, a) for i, a in enumerate(ints) if a]
    for v in lattice.kernel_basis:
        if sum(ci * v[i] for i, ci in terms) != 0:
            return MINUS_INF
    return Fraction(sum(ci * lattice.x0[i] for i, ci in terms), den)
