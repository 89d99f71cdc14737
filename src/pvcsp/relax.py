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
The BLP reads each used symbol's table once per build, into a shape that
every term of the symbol extends its columns and rows from, and its phase
2 runs once, for its value and its star point.  Of a term of arity k, k - 1
marginal rows are integer combinations of the others; the program keeps
them and lists them, the simplex tableau and the AIP's echelon leave them
out, and every check of a point still reads them.  build_blp scales the
costs to the program's int objective over its scale once, and nothing
scales them again.  The star point is its support, the flags of the
region's or the optimal face's support rounds; the point of every branch
taken is checked in ints against the BLP's rows, its flags and the
optimum, which the face's point must cost exactly.
"""

from __future__ import annotations

import functools
import itertools
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


def _shape(delta: ValuedStructure, symbol: str, arity: int) -> tuple:
    """What the terms of one symbol share: its finite tuples in product
    order, their costs, its +inf tuples, and per position, label -> the
    offsets of the finite tuples carrying that label there."""
    table = delta.table(symbol)
    finite, costs, infinite = [], [], []
    offsets = [{a: [] for a in delta.domain} for _ in range(arity)]
    for t in itertools.product(delta.domain, repeat=arity):
        cost = table[t]
        if not is_finite(cost):
            infinite.append(t)
            continue
        for cell, a in zip(offsets, t):
            cell[a].append(len(finite))
        finite.append(t)
        costs.append(cost)
    return finite, costs, infinite, offsets


def build_blp(delta: ValuedStructure, instance: Instance) -> Relaxation:
    """The basic LP relaxation; infeasibility encodes a +inf value.

    Each term's tuples in product order: a finite-cost tuple is a lambda
    column, its cost the objective entry, in the marginal row of each of
    its positions; a +inf tuple is eliminated.  Each used symbol's table is
    read once, into its _shape, and each term of it reads that, offset by
    its first lambda column.  The costs become ints once, over their lcm,
    the program's scale.  Then the mu columns (cost 0), the marginal
    equalities (= 0; term, position, label order) and the per-variable
    normalisations (= 1).  Each row holds its nonzeros only, the ints 1 and
    -1, exact for the LP and integral for the AIP.  The bounds lambda, mu
    <= 1 follow from nonnegativity and the normalisations and are not
    encoded.

    The marginal rows of one position sum, with its variable's
    normalisation, to "the term's lambdas sum to 1".  So at every position
    p > 0 the last label's row is the sum of position 0's rows plus
    norm(x_0), less norm(x_p) and position p's other rows: coefficients
    and rhs, over Q and Z, feasible or not.  Those k - 1 rows per term of
    arity k are kept, and listed in `implied`.
    """
    check_instance(delta, instance)
    columns, eliminated, costs = [], [], []
    shapes = {}  # symbol -> _shape, for this call only
    marginals = []  # per term: its first lambda column, its shape's offsets
    for j, term in enumerate(instance.terms):
        shape = shapes.get(term.symbol)
        if shape is None:
            shape = shapes[term.symbol] = _shape(delta, term.symbol, len(term.args))
        finite, finite_costs, infinite, offsets = shape
        marginals.append((len(columns), offsets))
        columns.extend([("lam", j, t) for t in finite])
        costs.extend(finite_costs)
        eliminated.extend([("lam", j, t) for t in infinite])
    objective, scale = int_scaled(costs)
    mu = {}
    for x in instance.variables:
        for a in delta.domain:
            mu[x, a] = len(columns)
            columns.append(("mu", x, a))
            objective.append(0)
    n = len(columns)
    rows, implied = [], []
    for term, (base, offsets) in zip(instance.terms, marginals):
        for p, (x, cell) in enumerate(zip(term.args, offsets)):
            for a, lams in cell.items():
                row = dict.fromkeys(map(base.__add__, lams), 1)
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
    """The support of the star point: flags[i] true iff its column i is
    positive, the same at every relative interior point of its set."""

    flags: list[bool]
    provenance: str
    columns: list[ColKey]


def _check_star_point(
    blp: Relaxation, ints: list[int], den: int, flags: list[bool], face: bool
) -> int:
    """Raise InvariantViolated unless the point ints / den satisfies the
    BLP's rows, is nonnegative, is positive exactly where flagged and costs
    at least the BLP's optimum, and on the optimal face (face) at most it.
    Returns an int with the sign of its cost less the optimum.

    Exact, in ints: a row holds at the point when the sum over its nonzeros
    of entry times int coordinate is den times its rhs, and the cost is an
    int over scale * den.
    """
    for row, b in zip(blp.rows, blp.rhs):
        if sum([a * ints[j] for j, a in row.items()]) != b * den:
            raise InvariantViolated("star point violates an equality")
    if any(x < 0 for x in ints):
        raise InvariantViolated("star point has a negative coordinate")
    if any((x > 0) != f for x, f in zip(ints, flags)):
        raise InvariantViolated("star point support differs from its flags")
    m = blp.phase2.value
    cost = sum([c * x for c, x in zip(blp.objective, ints)])
    excess = cost * m.denominator - m.numerator * blp.scale * den
    if excess < 0:
        raise InvariantViolated("star point costs less than the optimum")
    if face and excess > 0:
        raise InvariantViolated("optimal-face point costs more than the optimum")
    return excess


def select_star_point(blp: Relaxation, u: Fraction) -> StarPoint:
    """The support of the star point of the refinement definition: a
    relative interior point of the feasibility polytope with cost <= u if
    one exists, else one of the optimal face.

    Below u one exists with the region's support: a strict combination of
    the region's interior point with an optimal vertex, near enough to the
    vertex.  At u = the optimum one exists iff the objective is constant on
    the region, iff the interior point costs exactly the optimum.  The
    BLP's one phase 1 and phase 2 (blp.warm and blp.phase2, shared with
    blp_value) serve the optimum and both support rounds.
    """
    res = blp.phase2
    if res.status != exactlp.OPTIMAL or not res.value <= u:
        raise PreconditionViolated("select_star_point requires blp value <= u")
    warm = blp.warm
    ints, den, flags = warm.interior_ints()
    excess = _check_star_point(blp, ints, den, flags, face=False)
    if res.value < u or excess == 0:
        return StarPoint(flags, FEASIBLE_INTERIOR, blp.columns)
    ints, den, flags = warm.face_interior_ints()
    _check_star_point(blp, ints, den, flags, face=True)
    return StarPoint(flags, OPTIMAL_FACE_INTERIOR, blp.columns)


def refine_aip(aip: Relaxation, star: StarPoint) -> Relaxation:
    """Eliminate every column outside the star point's support: each row
    keeps its nonzeros in the kept columns, re-indexed."""
    if star.columns != aip.columns:
        raise IndexMisalignment("star point indexed against a different program")
    keep = [i for i, f in enumerate(star.flags) if f]
    dropped = [aip.columns[i] for i, f in enumerate(star.flags) if not f]
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
