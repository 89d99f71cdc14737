"""Exact rational LP in standard equality form (min c.x, Ax = b, x >= 0).

Two-phase simplex with Bland's anti-cycling rule over Fractions.  Also
provides the relative-interior machinery: a support profile (which
coordinates can be positive over the feasible region or over its optimal
face) and a relative interior point, the average of the witnesses found by
warm support rounds on the one tableau that phase 1 built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    DimensionMismatch,
    InfeasibleRegion,
    InvariantViolated,
    UnboundedObjective,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LinearProgram:
    n: int
    rows: list[list[Fraction]]
    rhs: list[Fraction]
    objective: list[Fraction]

    def __post_init__(self):
        if len(self.objective) != self.n:
            raise DimensionMismatch("objective length != n")
        if len(self.rows) != len(self.rhs):
            raise DimensionMismatch("row count != rhs count")
        for row in self.rows:
            if len(row) != self.n:
                raise DimensionMismatch("row length != n")

    def with_extra_row(self, row: list[Fraction], b: Fraction) -> "LinearProgram":
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


class _Tableau:
    """Simplex tableau with an explicit basis; columns beyond lp.n are
    phase-1 artificials."""

    def __init__(self, lp: LinearProgram):
        self.n = lp.n
        m = len(lp.rows)
        self.m = m
        # flip rows so rhs >= 0, then append the artificial identity
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        for i in range(m):
            if lp.rhs[i] < 0:
                self.rows.append([-a for a in lp.rows[i]])
                self.rhs.append(-lp.rhs[i])
            else:
                self.rows.append(list(lp.rows[i]))
                self.rhs.append(lp.rhs[i])
        for i in range(m):
            art = [ZERO] * m
            art[i] = ONE
            self.rows[i] = self.rows[i] + art
        self.width = self.n + m
        self.basis = [self.n + i for i in range(m)]

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        p = prow[c]
        if p != ONE:
            inv = ONE / p
            self.rows[r] = prow = [a * inv for a in prow]
            self.rhs[r] = self.rhs[r] * inv
        nz = [j for j, v in enumerate(prow) if v != 0]
        prhs = self.rhs[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            row = self.rows[i]
            f = row[c]
            if f == 0:
                continue
            for j in nz:
                row[j] = row[j] - f * prow[j]
            self.rhs[i] = self.rhs[i] - f * prhs
        self.basis[r] = c

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        red = list(cost)
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(self.width):
                if row[j] != 0:
                    red[j] -= cb * row[j]
        return red

    def _first_negative(self, cost: list[Fraction], allowed: Iterable[int]) -> int:
        """Lowest allowed column with negative reduced cost, or -1.

        Computed column by column so the scan stops at the first hit
        instead of pricing the whole tableau."""
        priced = [
            (i, cost[b]) for i, b in enumerate(self.basis) if cost[b] != 0
        ]
        for j in allowed:
            red = cost[j]
            for i, cb in priced:
                a = self.rows[i][j]
                if a != 0:
                    red -= cb * a
            if red < 0:
                return j
        return -1

    def run(self, cost: list[Fraction], allowed: Iterable[int]) -> Optional[int]:
        """Minimise cost over the allowed columns with Bland's rule.

        `allowed` lists column indices in increasing order and must hold
        every basic column; the others stay nonbasic at 0.  Returns None on
        optimality, or the entering column index on unboundedness (no
        positive pivot entry in that column).
        """
        while True:
            enter = self._first_negative(cost, allowed)
            if enter < 0:
                return None
            leave = -1
            best = None
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = self.rhs[i]
        return x

    def ray(self, enter: int) -> list[Fraction]:
        d = [ZERO] * self.n
        if enter < self.n:
            d[enter] = ONE
        for i, b in enumerate(self.basis):
            if b < self.n:
                d[b] = -self.rows[i][enter]
        return d


def _phase1(lp: LinearProgram) -> Optional[_Tableau]:
    """Find a basic feasible tableau, or None if the region is empty."""
    tab = _Tableau(lp)
    cost = [ZERO] * lp.n + [ONE] * tab.m
    if tab.run(cost, range(tab.width)) is not None:
        raise InvariantViolated("phase-1 objective is bounded below by 0")
    value = sum(
        (tab.rhs[i] for i, b in enumerate(tab.basis) if b >= lp.n),
        ZERO,
    )
    if value != 0:
        return None
    # drive artificials out of the basis; drop rows that are redundant
    for i in range(len(tab.basis) - 1, -1, -1):
        if tab.basis[i] < lp.n:
            continue
        piv = -1
        for j in range(lp.n):
            if tab.rows[i][j] != 0:
                piv = j
                break
        if piv >= 0:
            tab.pivot(i, piv)
        else:
            del tab.rows[i]
            del tab.rhs[i]
            del tab.basis[i]
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
        enter = tab.run(self._cost(), range(self.lp.n))
        if enter is not None:
            return LPResult(UNBOUNDED, point=tab.solution(), ray=tab.ray(enter))
        point = tab.solution()
        value = sum((c * x for c, x in zip(self.lp.objective, point)), ZERO)
        return LPResult(OPTIMAL, value=value, point=point)

    def optimum(self) -> LPResult:
        """minimise, raising unless the objective attains a minimum."""
        res = self.minimise()
        if res.status == INFEASIBLE:
            raise InfeasibleRegion("no optimum over an empty region")
        if res.status == UNBOUNDED:
            raise UnboundedObjective("objective unbounded below on the region")
        return res

    def _cost(self) -> list[Fraction]:
        return list(self.lp.objective) + [ZERO] * (self.tab.width - self.lp.n)

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
        red = self.tab.reduced_costs(self._cost())
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
        witnesses = [tab.solution()]
        flags = [x > 0 for x in witnesses[0]]
        while uncovered := [j for j in allowed if not flags[j]]:
            cost = [ZERO] * tab.width
            for j in uncovered:
                cost[j] = -ONE
            enter = tab.run(cost, allowed)
            witness = tab.solution()
            if enter is not None:
                witness = [p + d for p, d in zip(witness, tab.ray(enter))]
            new = [j for j in uncovered if witness[j] > 0]
            if not new:
                break
            for j in new:
                flags[j] = True
            witnesses.append(witness)
        k = Fraction(len(witnesses))
        point = [sum((w[i] for w in witnesses), ZERO) / k for i in range(self.lp.n)]
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
