"""Exact rational LP in standard equality form (min c.x, Ax = b, x >= 0).

A two-phase simplex on one integer-preserving tableau, WarmLP, that prices
by Dantzig's rule and falls back to Bland's rule after a degenerate pivot,
so it never cycles.  Phase 1 retires its artificials as soon as it can: a
crash pivot hands each artificial row with rhs > 0 to a structural column
that fits it, a ratio tie goes to an artificial, and an artificial that has
left never re-enters.  A program is ints in one format from its builder on:
each row its nonzero int entries by column, with an int rhs, and the
objective dense ints over one positive int scale, which no reader scales
again.  Outputs are Fractions, or ints over one denominator where a caller
does the rest of its arithmetic in ints.  A program names the rows a
tableau holds (`LinearProgram.held`, all of them unless it knows some to be
implied).
Also provides the relative-interior machinery: a support profile (which
coordinates can be positive over the feasible region or over its optimal
face) and a relative interior point, both from warm support rounds on the
one tableau; `divided` makes Fractions of ints over a denominator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    InfeasibleRegion,
    InvariantViolated,
    UnboundedObjective,
)

ZERO = Fraction(0)

# a row: its nonzero int entries by column
Row = dict[int, int]


def sparse_row(ints: Sequence[int]) -> Row:
    """The Row of a dense list of ints."""
    return dict(zip(compress(range(len(ints)), ints), filter(None, ints)))


@dataclass
class LinearProgram:
    """min (objective / scale) . x subject to rows . x = rhs and x >= 0:
    column j costs objective[j] / scale."""

    n: int
    rows: list[Row]
    rhs: list[int]
    objective: list[int]
    _: KW_ONLY
    scale: int = 1

    def __post_init__(self):
        """The one check of the format, in C-speed passes over all the rows:
        every key a column, every entry a nonzero int, the rhs and the
        objective ints, the scale a positive int."""
        if len(self.objective) != self.n:
            raise DimensionMismatch("objective length != n")
        if len(self.rows) != len(self.rhs):
            raise DimensionMismatch("row count != rhs count")
        keys = set().union(*self.rows)
        if keys and (min(keys) < 0 or max(keys) >= self.n):
            raise DimensionMismatch("row key outside range(n)")
        values = [*chain.from_iterable(map(dict.values, self.rows))]
        types = set(map(type, [*values, *self.rhs, *self.objective, self.scale]))
        if types - {int} or 0 in values or self.scale < 1:
            raise ValueError("need ints: nonzero entries, rhs, objective, scale >= 1")

    @property
    def held(self) -> Sequence[int]:
        """The rows a tableau holds: every row.  A program that knows some
        rows to be combinations of the others leaves them out here."""
        return range(len(self.rows))


INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


@dataclass
class LPResult:
    status: str
    value: Optional[Fraction] = None
    ray: Optional[list[Fraction]] = None  # improving ray when unbounded
    # when optimal or unbounded: d and the basic solution's nonzero
    # coordinates, of n, in ints over d
    witness: Optional[tuple[int, dict[int, int]]] = None
    n: int = 0

    @functools.cached_property
    def point(self) -> Optional[list[Fraction]]:
        """The witness as Fractions, built on first read: no solver path
        reads it."""
        if self.witness is None:
            return None
        d, basic = self.witness
        return divided([basic.get(j, 0) for j in range(self.n)], d)


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


class WarmLP:
    """An integer-preserving simplex tableau with an explicit basis, built
    and taken through phase 1 once; phase 2 and the support rounds then run
    on it, each from the basis the previous step left.  It keeps n, the
    input row count m, the objective and the scale, not the program.

    Each input row is taken with the sign that makes its rhs >= 0, and
    `cols` indexes the nonzeros of every input row by column (the rhs at n)
    as (row, coefficient) pairs.  Every basic solution is checked against
    all m rows through `cols`.  The tableau holds the rows `lp.held` names,
    in that order, written out densely; the others are combinations of them
    and live on in `cols` only.

    Row i of `rows` holds the constraint coefficients and then the rhs, all
    Python ints; the true row is rows[i] / den[i].  `d` > 0 is the absolute
    determinant of the basis, and a row carried over denominator d is d
    times its true row, in ints (Cramer's rule).  A pivot is a Bareiss
    update (Edmonds 1967; Bareiss 1968): each row with a nonzero entry in
    the pivot column moves to the new d, by exact divisions; one already
    over the pivot's denominator changes only where the pivot row is
    nonzero (_eliminate).  A row with a zero there is unchanged as a
    rational row, so it keeps the denominator it had instead of being
    rescaled.  A held row's unit column (1 in it, signed, 0 in every other
    held row) starts basic; columns beyond n are phase-1 artificials, one
    per held row without one, dropped once phase 1 is over.  Phase 1 hands
    an artificial's row to a structural column by a crash pivot where one
    fits, and otherwise by the simplex, which enters structural columns only
    and breaks ratio ties in favour of artificials (_phase1).  `feasible` is
    phase 1's verdict.
    """

    def __init__(self, lp: LinearProgram):
        self.n = n = lp.n
        self.m = len(lp.rows)
        self.objective, self.scale = lp.objective, lp.scale
        held = lp.held
        at = [-1] * self.m  # at[i] is input row i's tableau row, if held
        for t, i in enumerate(held):
            at[i] = t
        self.rows: list[list[int]] = [[]] * len(held)
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
            if b < 0:
                row, b = {j: -a for j, a in row.items()}, -b
            for j, a in row.items():
                self.cols[j].append((i, a))
            if b:
                self.cols[n].append((i, b))
            if at[i] >= 0:
                ints = self.rows[at[i]] = [0] * n + [b]
                for j, a in row.items():
                    ints[j] = a
        # each held row starts from its first unit column, or else an
        # artificial; a column with more entries than the rows left out
        # plus one has two or more in the held rows
        most = self.m - len(self.rows) + 1
        self.basis = [-1] * len(self.rows)
        for j, column in enumerate(self.cols[:n]):
            if len(column) <= most:
                column = [(at[i], a) for i, a in column if at[i] >= 0]
                if len(column) == 1 and column[0][1] == 1:
                    t = column[0][0]
                    if self.basis[t] < 0:
                        self.basis[t] = j
        arts = [t for t, b in enumerate(self.basis) if b < 0]
        if arts:
            for ints in self.rows:
                ints[n:n] = [0] * len(arts)
            for k, t in enumerate(arts):
                self.rows[t][n + k] = 1
                self.basis[t] = n + k
        self.den = [1] * len(self.rows)
        self.width = n + len(arts)
        self.d = 1
        # the reduced-cost row of the current run, over red_den; see run
        self.red: Optional[list[int]] = None
        self.red_den = 1
        self.feasible = self._phase1()

    def _phase1(self) -> bool:
        """Minimise the artificials' sum; on a feasible region, drive the
        artificials out of the basis and drop the rows left redundant.
        Any positive costs give the same verdict, so each costs 1.

        Three pivot choices that the simplex may make anyway retire the
        artificials early.  A crash pivot first visits each row still held
        by an artificial with rhs > 0, in row order, and enters the first
        structural column j that is positive there, zero in every other row
        still held by an artificial, and whose ratio test that row wins: j's
        reduced cost is minus its entry there, < 0, and the pivot takes that
        artificial to 0 at once (Bixby 1992).  Then `run` prices the
        structural columns only, so an artificial that has left never comes
        back, and a ratio tie goes to an artificial (_leaving).

        Termination: order the artificials before the structural columns.
        Crash pivots and nondegenerate pivots strictly lower the objective.
        In a run of degenerate pivots, entering is among structural columns
        and leaving ties follow that order, so from its second pivot on the
        run is Bland's rule on the program less the artificials that have
        left; each leaves at most once, so that program changes at most
        width - n times.
        """
        n, rows, basis = self.n, self.rows, self.basis
        arts = [t for t, b in enumerate(basis) if b >= n]
        for t in arts:
            row = rows[t]
            if not row[-1]:
                continue
            others = [rows[s] for s in arts if basis[s] >= n and s != t]
            for j in range(n):
                fits = row[j] > 0 and not any(other[j] for other in others)
                if fits and self._leaving(j) == t:
                    self.pivot(t, j)
                    break
        if self.run([0] * n + [1] * (self.width - n), range(n)) is not None:
            raise InvariantViolated("phase-1 objective is bounded below by 0")
        if any(row[-1] for row, b in zip(self.rows, self.basis) if b >= n):
            return False
        self.red = None
        for i in range(len(self.basis) - 1, -1, -1):
            if self.basis[i] < n:
                continue
            row = self.rows[i]
            piv = next((j for j in range(n) if row[j] != 0), -1)
            if piv >= 0:
                self.pivot(i, piv)
            else:
                del self.rows[i]
                del self.den[i]
                del self.basis[i]
        if self.width > n:  # every basic column is structural now
            self.rows = [row[:n] + row[-1:] for row in self.rows]
            self.width = n
        return True

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

    def run(self, cost: list[int], allowed: Sequence[int]) -> Optional[int]:
        """Minimise cost over the allowed columns: Dantzig's rule with a
        fallback to Bland's rule after a degenerate pivot.

        `cost` holds ints, one per column.  `allowed` lists the columns that
        may enter, in increasing order; a nonbasic column outside it stays
        at 0.  Phase 1 allows the structural columns only,
        so a basic artificial is outside it; phase 2 and the support rounds
        allow every basic column.  Returns None on optimality, or the
        entering column index on unboundedness (no positive pivot entry in
        that column).  `red` is d * (cost - c_B B^-1 A): built once here and
        updated by every pivot, so pricing is a scan of it.  It is left as
        the last pivot made it.

        The entering column has the most negative reduced cost (the first
        such), except after a degenerate pivot (the leaving row's rhs is 0),
        when it is the first negative one, until a pivot moves the point
        again; the leaving row has the least ratio, ties to an artificial,
        else to the least basic column (_leaving).  So every run of
        degenerate pivots is Bland's rule, with the artificials ordered
        first, from its second pivot on, which never repeats a basis (Bland
        1977; in phase 1 see _phase1), and so ends; each nondegenerate pivot
        strictly lowers the objective, so no basis from before it comes
        back, and the run ends.
        """
        red = [self.d * c for c in cost] + [0]
        for row, b, e in zip(self.rows, self.basis, self.den):
            w = cost[b]
            if w:
                row = self._at_d(row, e)
                for k in compress(range(len(row)), row):
                    red[k] -= w * row[k]
        self.red, self.red_den = red, self.d
        bland = False
        while True:
            red = self.red
            if bland:
                enter = next((j for j in allowed if red[j] < 0), -1)
            else:
                enter = min(allowed, key=red.__getitem__, default=-1)
                enter = enter if enter >= 0 and red[enter] < 0 else -1
            if enter < 0:
                return None
            leave = self._leaving(enter)
            if leave < 0:
                return enter
            bland = self.rows[leave][-1] == 0  # a degenerate pivot
            self.pivot(leave, enter)

    def _leaving(self, enter: int) -> int:
        """The ratio test of column `enter`: the row of least ratio among
        those with a positive entry there, or -1 if there is none.  Ties go
        to the basic column first in the order artificials, then structural
        columns, each by index: the rank (b - n) mod width."""
        n, width, basis = self.n, self.width, self.basis
        leave = -1
        for i, row in enumerate(self.rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best = i, row
                    continue
                # rhs_i / a_i against rhs_l / a_l, cross-multiplied; each
                # row's denominator cancels in its own ratio
                lhs, rhs = row[-1] * best[enter], best[-1] * a
                if lhs < rhs or (
                    lhs == rhs
                    and (basis[i] - n) % width < (basis[leave] - n) % width
                ):
                    leave, best = i, row
        return leave

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
        input row, in ints: the safety net for the exact divisions.
        Each row's total sums over the basic columns' entries in `cols`."""
        d, n = self.d, self.n
        basic = [
            (b, row[j] * d // e)
            for row, b, e in zip(self.rows, self.basis, self.den)
            if b < n and row[j]
        ]
        totals = [0] * self.m
        for b, v in basic:
            for i, a in self.cols[b]:
                totals[i] += a * v
        for i, a in self.cols[j]:  # cols[-1] is the rhs
            totals[i] -= a * d
        if any(totals):
            raise InvariantViolated("basic solution violates an input row")
        return basic

    def minimise(self) -> LPResult:
        """Phase 2; Optimal returns a minimising basic solution.

        The point, and when unbounded the ray, are the tableau's witnesses
        over d; the point is divided out on its first read.  The value is
        summed in ints, the checked basic entries over d times the basic
        objective entries over the scale, and divided by scale * d once."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        n, objective = self.n, self.objective
        enter = self.run(objective, range(n))
        d, basic = self.d, self.witness(None)
        if enter is not None:
            end = self.witness(enter)  # the ray's end from the point, over d
            ray = divided([end.get(j, 0) - basic.get(j, 0) for j in range(n)], d)
            return LPResult(UNBOUNDED, ray=ray, witness=(d, basic), n=n)
        total = sum(objective[b] * v for b, v in basic.items())
        value = Fraction(total, self.scale * d)
        return LPResult(OPTIMAL, value=value, witness=(d, basic), n=n)

    def optimum(self) -> LPResult:
        """minimise, raising unless the objective attains a minimum."""
        res = self.minimise()
        if res.status == INFEASIBLE:
            raise InfeasibleRegion("no optimum over an empty region")
        if res.status == UNBOUNDED:
            raise UnboundedObjective("objective unbounded below on the region")
        return res

    def interior_ints(self) -> tuple[list[int], int, list[bool]]:
        """A feasible point positive exactly on the support profile, as ints
        over one denominator, and the profile: (ints, den, flags), flag_i
        true iff x_i can be positive in the region."""
        return self._rounds(range(self.n))

    def face_interior_ints(self) -> tuple[list[int], int, list[bool]]:
        """interior_ints of the optimal face.

        At an optimal basis c.x = z* + sum_j red_j x_j on the region, with
        every red_j >= 0, so the optimal face is the region restricted to
        the columns of zero reduced cost.
        """
        self.optimum()
        red = self.red  # as phase 2 left it, at an optimal basis
        return self._rounds([j for j in range(self.n) if red[j] == 0])

    def _rounds(self, allowed) -> tuple[list[int], int, list[bool]]:
        """Support rounds over the allowed columns, from the current basis.

        The basic solution is the first witness.  Each round minimises
        minus the sum of the coordinates no witness has made positive yet;
        its optimum, or the end of its improving ray (whose cost, the
        entering column's reduced cost, is negative), is a witness that
        makes at least one of them positive, so at most n rounds run.  An
        optimum of 0 proves the rest are 0 all over the region.  The
        uniform average of the witnesses keeps the equalities and is
        positive on every flagged coordinate, by convexity.  It is handed
        out as the witnesses' sum over the lcm of their denominators, in
        ints, with that lcm times their count as its denominator.
        """
        if not self.feasible:
            raise InfeasibleRegion("support profile of an empty region")
        n = self.n
        # each witness as its nonzero coordinates in ints over its d
        witnesses = [(self.d, self.witness(None))]
        flags = [j in witnesses[0][1] for j in range(n)]
        while uncovered := [j for j in allowed if not flags[j]]:
            cost = [0] * n
            for j in uncovered:
                cost[j] = -1
            witness = self.witness(self.run(cost, allowed))
            # every positive coordinate is allowed: basic, or the entering one
            new = [j for j, v in witness.items() if v > 0 and not flags[j]]
            if not new:
                break
            for j in new:
                flags[j] = True
            witnesses.append((self.d, witness))
        lcm = math.lcm(*(d for d, _ in witnesses))
        total = [0] * n
        for d, witness in witnesses:
            for j, v in witness.items():
                total[j] += v * (lcm // d)
        return total, lcm * len(witnesses), flags


def divided(ints: list[int], den: int) -> list[Fraction]:
    """The Fractions ints[j] / den."""
    return [Fraction(t, den) if t else ZERO for t in ints]


def solve_lp(lp: LinearProgram) -> LPResult:
    """Exact classification; Optimal returns a minimising basic solution."""
    return WarmLP(lp).minimise()


def relative_interior_point_with_flags(
    lp: LinearProgram,
) -> tuple[list[Fraction], list[bool]]:
    """WarmLP.interior_ints as Fractions, from the vertex phase 1 found."""
    ints, den, flags = WarmLP(lp).interior_ints()
    return divided(ints, den), flags


def restrict_to_optimal_face(lp: LinearProgram) -> LinearProgram:
    """Append the equality objective = optimal value in ints: the objective
    times the denominator of value * scale is its numerator.  The rows are
    lp's own, shared and not copied."""
    q = WarmLP(lp).optimum().value * lp.scale
    row = sparse_row([c * q.denominator for c in lp.objective])
    rows, rhs = lp.rows + [row], lp.rhs + [q.numerator]
    return LinearProgram(lp.n, rows, rhs, lp.objective, scale=lp.scale)
