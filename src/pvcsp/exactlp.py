"""Exact rational LP in standard equality form (min c.x, Ax = b, x >= 0).

Two-phase simplex with Bland's anti-cycling rule.  Input entries are ints
or Fractions, exact either way; outputs are Fractions.  Phase 1 adds an
artificial only to a row without a unit column (a slack of 1, say).  The
tableau is integer-preserving (Python ints over one denominator per row,
fraction-free Bareiss pivots) and keeps its reduced-cost row up to date,
so pricing is a scan of that row.  A pivot costs what the pivot row's
nonzeros cost on a row already over the pivot's denominator (most rows of
a 0/±1 program), and every basic solution handed out is checked against
the scaled input rows through their column index.  Also provides the
relative-interior machinery: a support profile (which coordinates can be
positive over the feasible region or over its optimal face) and a
relative interior point, the average, in ints, of the witnesses found by
warm support rounds on the one tableau that phase 1 built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import attrgetter
from typing import Iterable, Optional, Union

from .errors import (
    DimensionMismatch,
    InfeasibleRegion,
    InvariantViolated,
    UnboundedObjective,
)

ZERO = Fraction(0)
ONE = Fraction(1)


Rational = Union[int, Fraction]


@dataclass
class LinearProgram:
    n: int
    rows: list[list[Rational]]  # int or Fraction entries
    rhs: list[Rational]
    objective: list[Rational]

    def __post_init__(self):
        if len(self.objective) != self.n:
            raise DimensionMismatch("objective length != n")
        if len(self.rows) != len(self.rhs):
            raise DimensionMismatch("row count != rhs count")
        for row in self.rows:
            if len(row) != self.n:
                raise DimensionMismatch("row length != n")

    def with_extra_row(self, row: list[Rational], b: Rational) -> "LinearProgram":
        return LinearProgram(
            self.n,
            [r[:] for r in self.rows] + [row[:]],
            self.rhs + [b],
            self.objective[:],
        )


INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


@dataclass
class LPResult:
    status: str
    value: Optional[Fraction] = None
    point: Optional[list[Fraction]] = None
    ray: Optional[list[Fraction]] = None  # improving ray when unbounded


def _eliminate(
    row: list[int], e: int, f: int, prow: list[int], nonzeros: list, p: int
) -> list[int]:
    """Bareiss step: row, over denominator e, less f / p times the pivot
    row, over the new denominator p; the division by e is exact.  Over
    e = p, (p * a - f * b) // e is a - f * b // p, so such a row changes in
    place, only where the pivot row is nonzero: at its (k, b) `nonzeros`."""
    if e == p:
        for k, b in nonzeros:
            row[k] -= f * b // p
        return row
    if e == 1:
        return [p * a - f * b for a, b in zip(row, prow)]
    return [(p * a - f * b) // e for a, b in zip(row, prow)]


class _Tableau:
    """Integer-preserving simplex tableau with an explicit basis.

    Row i of `rows` holds the constraint coefficients and then the rhs, all
    Python ints; the true row is rows[i] / den[i].  `d` > 0 is the absolute
    determinant of the basis in the row-scaled program, and a row carried
    over denominator d is d times its true row, in ints (Cramer's rule).  A
    pivot is a Bareiss update (Edmonds 1967; Bareiss 1968): each row with a
    nonzero entry in the pivot column moves to the new d, by exact
    divisions; one already over the pivot's denominator changes only where
    the pivot row is nonzero (_eliminate).  A row with a zero there is
    unchanged as a rational row, so it keeps the denominator it had instead
    of being rescaled.  A row's unit column (1 in it once scaled, 0 in
    every other row) starts basic; columns beyond n are phase-1
    artificials, one per row without one, dropped once phase 1 is over.
    `cols` indexes the scaled input rows by column (the rhs at n) as the
    (row, coefficient) pairs of their nonzeros.
    """

    def __init__(self, lp: LinearProgram):
        self.n = n = lp.n
        m = len(lp.rows)
        # row i scaled by s_i, the lcm of its denominators, with its sign
        # chosen so that rhs >= 0
        self.scale: list[int] = []
        self.scaled: list[list[int]] = []
        for row, b in zip(lp.rows, lp.rhs):
            s = math.lcm(b.denominator, *map(attrgetter("denominator"), row))
            if s == 1 and b >= 0:  # an int row: its numerators, as ints
                ints = list(map(attrgetter("numerator"), row))
                ints.append(b.numerator)
            else:
                if b < 0:
                    s = -s
                ints = [a.numerator * (s // a.denominator) for a in row]
                ints.append(b.numerator * (s // b.denominator))
            self.scale.append(abs(s))
            self.scaled.append(ints)
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for i, ints in enumerate(self.scaled):
            for j in compress(range(n + 1), ints):
                self.cols[j].append((i, ints[j]))
        # each row starts from its first unit column, or else an artificial
        self.basis = [-1] * m
        for j, column in enumerate(self.cols[:n]):
            if len(column) == 1 and column[0][1] == 1:
                i = column[0][0]
                if self.basis[i] < 0:
                    self.basis[i] = j
        arts = [i for i, b in enumerate(self.basis) if b < 0]
        self.rows = [ints[:-1] + [0] * len(arts) + ints[-1:] for ints in self.scaled]
        for t, i in enumerate(arts):
            self.rows[i][n + t] = 1
            self.basis[i] = n + t
        self.den = [1] * m
        self.width = n + len(arts)
        self.d = 1
        # the reduced-cost row of the current run, over red_den; see run
        self.red: Optional[list[int]] = None
        self.red_den = 1

    def _at_d(self, row: list[int], e: int) -> list[int]:
        """A row over denominator e, carried over d instead."""
        d = self.d
        return row if e == d else [a * d // e for a in row]

    def pivot(self, r: int, c: int) -> None:
        prow = self._at_d(self.rows[r], self.den[r])
        p = prow[c]
        if p < 0:  # only when driving out artificials; keeps d > 0
            prow = [-a for a in prow]
            p = -p
        nonzeros = [(k, prow[k]) for k in compress(range(len(prow)), prow)]
        rows, den = self.rows, self.den
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _eliminate(row, den[i], f, prow, nonzeros, p)
                den[i] = p
        rows[r], den[r] = prow, p
        if self.red is not None:
            red = self.red
            self.red = _eliminate(red, self.red_den, red[c], prow, nonzeros, p)
            self.red_den = p
        self.d = p
        self.basis[r] = c

    def run(self, cost: list, allowed: Iterable[int]) -> Optional[int]:
        """Minimise cost over the allowed columns with Bland's rule.

        `cost` holds ints or Fractions, one per column.  `allowed` lists
        column indices in increasing order and must hold every basic column;
        the others stay nonbasic at 0.  Returns None on optimality, or the
        entering column index on unboundedness (no positive pivot entry in
        that column).  `red` is d * L * (cost - c_B B^-1 A), L the lcm of
        the cost denominators: built once here and updated by every pivot,
        so pricing is a scan for its first negative entry.  It is left
        as the last pivot made it.
        """
        lcm = math.lcm(*(c.denominator for c in cost))
        scaled = [c.numerator * (lcm // c.denominator) for c in cost]
        red = [self.d * c for c in scaled] + [0]
        for row, b, e in zip(self.rows, self.basis, self.den):
            w = scaled[b]
            if w:
                row = self._at_d(row, e)
                for k in compress(range(len(row)), row):
                    red[k] -= w * row[k]
        self.red, self.red_den = red, self.d
        while True:
            red = self.red
            enter = next((j for j in allowed if red[j] < 0), -1)
            if enter < 0:
                return None
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best = i, row
                        continue
                    # rhs_i / a_i against rhs_l / a_l, cross-multiplied;
                    # each row's denominator cancels in its own ratio
                    lhs, rhs = row[-1] * best[enter], best[-1] * a
                    if lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        leave, best = i, row
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for b, v in self._check_rows(-1):
            x[b] = Fraction(v, self.d)
        return x

    def ray(self, enter: int) -> list[Fraction]:
        ray = [ZERO] * self.n
        if enter < self.n:
            ray[enter] = ONE
        for b, v in self._check_rows(enter):
            ray[b] = -Fraction(v, self.d)
        return ray

    def witness(self, enter: Optional[int]) -> dict[int, int]:
        """The basic solution, plus the ray of structural column `enter`
        if given, as its nonzero coordinates over d."""
        w = dict(self._check_rows(-1))
        if enter is not None:
            w[enter] = self.d
            for b, v in self._check_rows(enter):
                w[b] = w.get(b, 0) - v
        return w

    def _check_rows(self, j: int) -> list[tuple[int, int]]:
        """(column, entry over d) for the nonzero basic entries of the rhs
        (j = -1) or of column j; InvariantViolated unless they satisfy every
        scaled input row, in ints: the safety net for the exact divisions.
        Each row's total sums over the basic columns' entries in `cols`."""
        d, n = self.d, self.n
        basic = [
            (b, row[j] * d // e)
            for row, b, e in zip(self.rows, self.basis, self.den)
            if b < n and row[j]
        ]
        totals = [0] * len(self.scaled)
        for b, v in basic:
            for i, a in self.cols[b]:
                totals[i] += a * v
        for i, a in self.cols[j]:  # cols[-1] is the rhs
            totals[i] -= a * d
        if any(totals):
            raise InvariantViolated("basic solution violates an input row")
        return basic


def _phase1(lp: LinearProgram) -> Optional[_Tableau]:
    """Find a basic feasible tableau, or None if the region is empty."""
    tab = _Tableau(lp)
    # the artificial of row i stands for s_i times its residual, so costs
    # 1 / s_i make the objective the plain residual sum
    cost = [0] * lp.n
    cost += [Fraction(1, s) for s, b in zip(tab.scale, tab.basis) if b >= lp.n]
    if tab.run(cost, range(tab.width)) is not None:
        raise InvariantViolated("phase-1 objective is bounded below by 0")
    if any(row[-1] for row, b in zip(tab.rows, tab.basis) if b >= lp.n):
        return None
    tab.red = None
    # drive artificials out of the basis; drop rows that are redundant
    for i in range(len(tab.basis) - 1, -1, -1):
        if tab.basis[i] < lp.n:
            continue
        row = tab.rows[i]
        piv = next((j for j in range(lp.n) if row[j] != 0), -1)
        if piv >= 0:
            tab.pivot(i, piv)
        else:
            del tab.rows[i]
            del tab.den[i]
            del tab.basis[i]
    # every basic column is structural now
    tab.rows = [row[: lp.n] + row[-1:] for row in tab.rows]
    tab.width = lp.n
    return tab


class WarmLP:
    """One phase 1; phase 2 and the support rounds then run on the same
    tableau, each from the basis the previous step left."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.tab = _phase1(lp)  # None when the region is empty

    def minimise(self) -> LPResult:
        """Phase 2; Optimal returns a minimising basic solution."""
        if self.tab is None:
            return LPResult(INFEASIBLE)
        tab = self.tab
        enter = tab.run(self.lp.objective, range(self.lp.n))
        if enter is not None:
            return LPResult(UNBOUNDED, point=tab.solution(), ray=tab.ray(enter))
        point = tab.solution()
        value = sum((self.lp.objective[b] * point[b] for b in tab.basis), ZERO)
        return LPResult(OPTIMAL, value=value, point=point)

    def optimum(self) -> LPResult:
        """minimise, raising unless the objective attains a minimum."""
        res = self.minimise()
        if res.status == INFEASIBLE:
            raise InfeasibleRegion("no optimum over an empty region")
        if res.status == UNBOUNDED:
            raise UnboundedObjective("objective unbounded below on the region")
        return res

    def interior_point(self) -> tuple[list[Fraction], list[bool]]:
        """A feasible point positive exactly on the support profile, and
        the profile: flag_i is true iff x_i can be positive in the region."""
        return self._rounds(range(self.lp.n))

    def face_interior_point(self) -> tuple[list[Fraction], list[bool]]:
        """interior_point of the optimal face.

        At an optimal basis c.x = z* + sum_j red_j x_j on the region, with
        every red_j >= 0, so the optimal face is the region restricted to
        the columns of zero reduced cost.
        """
        self.optimum()
        red = self.tab.red  # as phase 2 left it, at an optimal basis
        return self._rounds([j for j in range(self.lp.n) if red[j] == 0])

    def _rounds(self, allowed) -> tuple[list[Fraction], list[bool]]:
        """Support rounds over the allowed columns, from the current basis.

        The basic solution is the first witness.  Each round minimises
        minus the sum of the coordinates no witness has made positive yet;
        its optimum, or the end of its improving ray (whose cost, the
        entering column's reduced cost, is negative), is a witness that
        makes at least one of them positive, so at most n rounds run.  An
        optimum of 0 proves the rest are 0 all over the region.  The
        uniform average of the witnesses keeps the equalities and is
        positive on every flagged coordinate, by convexity.
        """
        tab = self.tab
        if tab is None:
            raise InfeasibleRegion("support profile of an empty region")
        # each witness as its nonzero coordinates in ints over its d
        witnesses = [(tab.d, tab.witness(None))]
        flags = [j in witnesses[0][1] for j in range(self.lp.n)]
        while uncovered := [j for j in allowed if not flags[j]]:
            cost = [0] * tab.width
            for j in uncovered:
                cost[j] = -1
            witness = tab.witness(tab.run(cost, allowed))
            # every positive coordinate is allowed: basic, or the entering one
            new = [j for j, v in witness.items() if v > 0 and not flags[j]]
            if not new:
                break
            for j in new:
                flags[j] = True
            witnesses.append((tab.d, witness))
        lcm = math.lcm(*(d for d, _ in witnesses))
        total = [0] * self.lp.n
        for d, witness in witnesses:
            for j, v in witness.items():
                total[j] += v * (lcm // d)
        point = [Fraction(t, lcm * len(witnesses)) if t else ZERO for t in total]
        return point, flags


def solve_lp(lp: LinearProgram) -> LPResult:
    """Exact classification; Optimal returns a minimising basic solution."""
    return WarmLP(lp).minimise()


def relative_interior_point_with_flags(
    lp: LinearProgram,
) -> tuple[list[Fraction], list[bool]]:
    """WarmLP.interior_point, from the vertex phase 1 found."""
    return WarmLP(lp).interior_point()


def restrict_to_optimal_face(lp: LinearProgram) -> LinearProgram:
    """Append the equality objective = optimal value."""
    return lp.with_extra_row(list(lp.objective), WarmLP(lp).optimum().value)
