"""The BLP and AIP relaxations of a VCSP instance, star-point selection,
refinement, and the combined, BLP-only and AIP-only decision procedures
(ENGINES, shared by the library and the CLI).

The AIP is the BLP's own system read over Z: one program type,
Relaxation, is the exactlp.LinearProgram of that system (each row its int
nonzeros by column, int rhs) with its column keys (term tuples first, then
variable marginals, each in deterministic order) and eliminated keys, so
the star point aligns coordinate-for-coordinate with the integer program.
Tuples outside dom(f) are eliminated from the column set rather than
constrained to zero, and the refinement eliminates further columns.
The BLP is built in one pass over each term's tuples, and its phase 2 runs
once, for its value and its star point.  Of a term of arity k, k - 1
marginal rows are integer combinations of the others; the program keeps
them and lists them, the simplex tableau and the AIP's echelon leave them
out, and every check of a point still reads them.  build_blp scales the
costs to the program's int objective over its scale once, and nothing
scales them again; one helper compares a point's cost with a value: the
star point's cost and mix are sums of ints over one denominator.
Every star point is checked against the BLP's int rows and the cost
window optimum <= cost <= u.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import exactlp, lattice
from .core import NO, YES, Instance, ValuedStructure, check_instance
from .errors import IndexMisalignment, InvariantViolated, PreconditionViolated
from .exactlp import LinearProgram
from .values import PLUS_INF, ExtVal, format_value, int_scaled, is_finite

# column keys: ("lam", term index, tuple) and ("mu", variable, label)
ColKey = tuple


@dataclass
class Relaxation(LinearProgram):
    """The BLP's constraint system (rows . x = rhs, x >= 0, min cost . x),
    an LP over Q and read over Z by the AIP, in LinearProgram's format;
    `columns` keys the n columns and `eliminated` the columns left out.
    `implied` lists the rows that are integer combinations of the others,
    rhs included, and `held` the others, the rows the tableau and the
    echelon hold.  The cached phase 1 and phase 2 live and die with it."""

    columns: list[ColKey]
    eliminated: list[ColKey]
    implied: list[int]

    @functools.cached_property
    def warm(self) -> exactlp.WarmLP:
        """The one phase 1 that blp_value and select_star_point share; its
        tableau holds the held rows only, and its checks read every row."""
        return exactlp.WarmLP(self)

    @functools.cached_property
    def held(self) -> list[int]:
        """The rows a tableau and the echelon hold: all but the implied."""
        skip = set(self.implied)
        return [i for i in range(len(self.rows)) if i not in skip]

    @functools.cached_property
    def phase2(self) -> exactlp.LPResult:
        """The one phase 2 on warm, read by blp_value and select_star_point;
        the support rounds start from the basis it leaves."""
        return self.warm.minimise()


def build_blp(delta: ValuedStructure, instance: Instance) -> Relaxation:
    """The basic LP relaxation; infeasibility encodes a +inf value.

    One pass over each term's tuples in product order: a finite-cost tuple
    is a lambda column, its cost the objective entry, in the marginal row of
    each of its positions; a +inf tuple is eliminated.  The costs become
    ints once, over their lcm, the program's scale.  Then the mu columns
    (cost 0), the marginal equalities (= 0; term, position, label order) and
    the per-variable normalisations (= 1).  Each row holds its nonzeros
    only, the ints 1 and -1, exact for the LP and integral for the AIP.  The
    bounds lambda, mu <= 1 follow from nonnegativity and the normalisations
    and are not encoded.

    The marginal rows of one position sum, with its variable's
    normalisation, to "the term's lambdas sum to 1".  So at every position
    p > 0 the last label's row is the sum of position 0's rows plus
    norm(x_0), less norm(x_p) and position p's other rows: coefficients
    and rhs, over Q and Z, feasible or not.  Those k - 1 rows per term of
    arity k are kept, and listed in `implied`.
    """
    check_instance(delta, instance)
    columns, eliminated, costs = [], [], []
    marginals = []  # per term and position: label -> its lambda columns
    for j, term in enumerate(instance.terms):
        table = delta.table(term.symbol)
        cells = [{a: [] for a in delta.domain} for _ in term.args]
        for t in itertools.product(delta.domain, repeat=len(term.args)):
            cost = table[t]
            if not is_finite(cost):
                eliminated.append(("lam", j, t))
                continue
            for cell, a in zip(cells, t):
                cell[a].append(len(columns))
            columns.append(("lam", j, t))
            costs.append(cost)
        marginals.append(cells)
    objective, scale = int_scaled(costs)
    mu = {}
    for x in instance.variables:
        for a in delta.domain:
            mu[x, a] = len(columns)
            columns.append(("mu", x, a))
            objective.append(0)
    n = len(columns)
    rows, implied = [], []
    for term, cells in zip(instance.terms, marginals):
        for p, (x, cell) in enumerate(zip(term.args, cells)):
            for a, lams in cell.items():
                row = dict.fromkeys(lams, 1)
                row[mu[x, a]] = -1
                rows.append(row)
            if p and cell:  # p > 0: the last label's row is implied
                implied.append(len(rows) - 1)
    rhs = [0] * len(rows)
    for x in instance.variables:
        rows.append({mu[x, a]: 1 for a in delta.domain})
        rhs.append(1)
    return Relaxation(
        n, rows, rhs, objective, columns, eliminated, implied, scale=scale
    )


def build_aip(delta: ValuedStructure, instance: Instance) -> Relaxation:
    """The affine IP relaxation: build_blp's system, read over Z.  No AIP
    step mutates its rows, rhs or objective."""
    return build_blp(delta, instance)


def blp_value(blp: Relaxation) -> ExtVal:
    res = blp.phase2
    if res.status == exactlp.INFEASIBLE:
        return PLUS_INF
    if res.status != exactlp.OPTIMAL:
        raise InvariantViolated("BLP region is bounded")
    return res.value


def aip_value(aip: Relaxation) -> ExtVal:
    """min objective.x over the AIP's integer solutions, from one echelon
    elimination under the objective row, of the held rows: no unimodular
    transform is built."""
    return lattice.affine_min(aip)


FEASIBLE_INTERIOR = "feasible-interior"
OPTIMAL_FACE_INTERIOR = "optimal-face-interior"


@dataclass
class StarPoint:
    values: list[Fraction]
    provenance: str
    columns: list[ColKey]


def _excess(blp: Relaxation, ints: list[int], den: int, v: Fraction) -> int:
    """An int with the sign of cost(ints / den) - v: the cost is an int
    over scale * den."""
    cost = sum([c * x for c, x in zip(blp.objective, ints)])
    return cost * v.denominator - v.numerator * blp.scale * den


def _check_star_invariants(
    blp: Relaxation, ints: list[int], den: int, flags: list[bool], u: Fraction
) -> None:
    """Raise InvariantViolated unless the point ints / den satisfies the
    BLP's rows, is nonnegative, costs between the BLP's optimum and u, and
    is positive exactly where flagged.

    Exact, in ints: a row holds at the point when the sum over its nonzeros
    of entry times int coordinate is den times its rhs.
    """
    for row, b in zip(blp.rows, blp.rhs):
        if sum([a * ints[j] for j, a in row.items()]) != b * den:
            raise InvariantViolated("star point violates an equality")
    if any(x < 0 for x in ints):
        raise InvariantViolated("star point has a negative coordinate")
    if _excess(blp, ints, den, blp.phase2.value) < 0:
        raise InvariantViolated("star point costs less than the optimum")
    if _excess(blp, ints, den, u) > 0:
        raise InvariantViolated("star point costs more than the threshold")
    if any((x > 0) != f for x, f in zip(ints, flags)):
        raise InvariantViolated("star point support differs from its flags")


def select_star_point(blp: Relaxation, u: Fraction) -> StarPoint:
    """The star point of the refinement definition.

    A relative interior point of the feasibility polytope with cost <= u if
    one exists (directly, or as a strict convex combination with an optimal
    vertex), else a relative interior point of the optimal face.  The BLP's
    one phase 1 and phase 2 (blp.warm and blp.phase2, shared with
    blp_value) serve all three: the optimum, the support rounds that start
    from the optimal vertex, and the optimal face's support rounds.  Every
    point is ints over one denominator until its values are built, and the
    costs and the mix are computed in ints.
    """
    res = blp.phase2
    if res.status != exactlp.OPTIMAL or not res.value <= u:
        raise PreconditionViolated("select_star_point requires blp value <= u")
    warm = blp.warm
    p, pd, flags = warm.interior_ints()
    provenance = FEASIBLE_INTERIOR
    over = _excess(blp, p, pd, u)
    if over <= 0:
        ints, den = p, pd
    elif res.value < u:
        # cost(p) > u > m: mix towards the optimal vertex just past the
        # cost-u crossing, (1 - theta) p + theta v with theta the midpoint
        # of theta* = (cost(p) - u) / (cost(p) - m) and 1; a strict
        # combination with an interior point stays in the relative interior;
        # theta* is over_u / over_m, both over one positive denominator
        m = res.value
        over_u = over * m.denominator
        over_m = _excess(blp, p, pd, m) * u.denominator
        g = math.gcd(over_u + over_m, 2 * over_m)
        t, td = (over_u + over_m) // g, 2 * over_m // g
        vd, vertex = res.witness
        a, b = (td - t) * vd, t * pd
        ints = [a * x for x in p]
        for j, v in vertex.items():
            ints[j] += b * v
        den = td * pd * vd
    else:
        # u is the optimum here, so the check's cost window is the optimal face
        ints, den, flags = warm.face_interior_ints()
        provenance = OPTIMAL_FACE_INTERIOR
    _check_star_invariants(blp, ints, den, flags, u)
    return StarPoint(exactlp.divided(ints, den), provenance, blp.columns)


def refine_aip(aip: Relaxation, star: StarPoint) -> Relaxation:
    """Eliminate every column whose star coordinate is zero: each row keeps
    its nonzeros in the kept columns, re-indexed."""
    if star.columns != aip.columns:
        raise IndexMisalignment("star point indexed against a different program")
    keep = [i for i, v in enumerate(star.values) if v > 0]
    dropped = [aip.columns[i] for i, v in enumerate(star.values) if v == 0]
    new = {i: k for k, i in enumerate(keep)}  # kept column -> its new index
    return Relaxation(
        len(keep),
        [{new[i]: a for i, a in row.items() if i in new} for row in aip.rows],
        list(aip.rhs),
        [aip.objective[i] for i in keep],
        [aip.columns[i] for i in keep],
        aip.eliminated + dropped,
        aip.implied,
        scale=aip.scale,
    )


@dataclass
class SolveAnswer:
    verdict: str  # core.YES / core.NO
    blp_value: Optional[ExtVal]  # None when no BLP was solved
    star_provenance: Optional[str] = None
    aff_value: Optional[ExtVal] = None
    eliminated: list = field(default_factory=list)
    program_size: tuple[int, int] = (0, 0)

    def trace(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.blp_value is not None:
            lines.append(f"blp value: {format_value(self.blp_value)}")
        lines.append(
            f"columns: {self.program_size[0]}, rows: {self.program_size[1]}"
        )
        if self.star_provenance is not None:
            lines.append(f"star point: {self.star_provenance}")
        if self.aff_value is not None:
            refined = "refined " if self.star_provenance is not None else ""
            lines.append(f"{refined}aff value: {format_value(self.aff_value)}")
        if self.eliminated:
            lines.append(f"eliminated columns: {len(self.eliminated)}")
        return "\n".join(lines)


def combined_solve(delta: ValuedStructure, instance: Instance) -> SolveAnswer:
    """BLP gate, star point, refined AIP gate; YES only if both pass."""
    u = instance.threshold
    blp = build_blp(delta, instance)
    size = (blp.n, len(blp.rows))
    value = blp_value(blp)
    star = select_star_point(blp, u) if value <= u else None
    if star is None:
        return SolveAnswer(NO, value, eliminated=blp.eliminated, program_size=size)
    refined = refine_aip(blp, star)
    aff = aip_value(refined)
    verdict = YES if aff <= u else NO
    return SolveAnswer(
        verdict,
        value,
        star_provenance=star.provenance,
        aff_value=aff,
        eliminated=refined.eliminated,
        program_size=size,
    )


def blp_only_solve(delta: ValuedStructure, instance: Instance) -> SolveAnswer:
    """The BLP-only decision procedure: YES iff blp value <= u."""
    blp = build_blp(delta, instance)
    value = blp_value(blp)
    verdict = YES if value <= instance.threshold else NO
    return SolveAnswer(
        verdict,
        value,
        eliminated=blp.eliminated,
        program_size=(blp.n, len(blp.rows)),
    )


def aip_only_solve(delta: ValuedStructure, instance: Instance) -> SolveAnswer:
    """The AIP-only decision procedure: YES iff aff value <= u."""
    aip = build_aip(delta, instance)
    value = aip_value(aip)
    return SolveAnswer(
        YES if value <= instance.threshold else NO,
        None,
        aff_value=value,
        eliminated=aip.eliminated,
        program_size=(aip.n, len(aip.rows)),
    )


# the one table of engines for the library and the CLI; each entry looks its
# procedure up in the module globals when called, so a replaced module
# attribute (a test's monkeypatch, a tracer's wrapper) is the one that runs
ENGINES: dict[str, Callable[[ValuedStructure, Instance], SolveAnswer]] = {
    "combined": lambda delta, instance: combined_solve(delta, instance),
    "blp": lambda delta, instance: blp_only_solve(delta, instance),
    "aip": lambda delta, instance: aip_only_solve(delta, instance),
}
