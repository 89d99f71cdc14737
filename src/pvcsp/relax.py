"""The BLP and AIP relaxations of a VCSP instance, star-point selection,
refinement, and the combined, BLP-only and AIP-only decision procedures
(ENGINES, shared by the library and the CLI).

Both programs share one column indexing (term tuples first, then variable
marginals, each in deterministic order), so the star point computed on the
LP side aligns coordinate-for-coordinate with the integer program.
Tuples outside dom(f) are eliminated from the column set rather than
constrained to zero, and the refinement eliminates further columns.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import exactlp, lattice
from .core import NO, YES, Instance, ValuedStructure, check_instance
from .errors import IndexMisalignment, InvariantViolated, PreconditionViolated
from .exactlp import LinearProgram, Rational
from .values import PLUS_INF, ExtVal, format_value, is_finite

ZERO = Fraction(0)

# column keys: ("lam", term index, tuple) and ("mu", variable, label)
ColKey = tuple


@dataclass
class ProgramIndex:
    """Shared column map for the BLP and AIP of one instance."""

    columns: list[ColKey]
    position: dict[ColKey, int]
    eliminated: list[ColKey]

    @classmethod
    def build(
        cls,
        delta: ValuedStructure,
        instance: Instance,
        keep: Callable[[ColKey], bool],
    ) -> "ProgramIndex":
        columns: list[ColKey] = []
        eliminated: list[ColKey] = []
        for j, term in enumerate(instance.terms):
            arity = delta.signature.arity(term.symbol)
            for t in itertools.product(delta.domain, repeat=arity):
                key = ("lam", j, t)
                (columns if keep(key) else eliminated).append(key)
        for x in instance.variables:
            for a in delta.domain:
                key = ("mu", x, a)
                (columns if keep(key) else eliminated).append(key)
        return cls(columns, {k: i for i, k in enumerate(columns)}, eliminated)


def _constraint_rows(
    delta: ValuedStructure, instance: Instance, index: ProgramIndex
):
    """The Figure-style constraint families over the kept columns:
    marginal equalities (= 0) and per-variable normalisations (= 1).
    Every entry is 0, 1 or -1, so the rows are Python ints, exact for the
    LP and already integral for the AIP."""
    n = len(index.columns)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for j, term in enumerate(instance.terms):
        arity = delta.signature.arity(term.symbol)
        for ell in range(arity):
            x = term.args[ell]
            for a in delta.domain:
                row = [0] * n
                touched = False
                for t in itertools.product(delta.domain, repeat=arity):
                    if t[ell] != a:
                        continue
                    pos = index.position.get(("lam", j, t))
                    if pos is not None:
                        row[pos] += 1
                        touched = True
                mu_pos = index.position.get(("mu", x, a))
                if mu_pos is not None:
                    row[mu_pos] -= 1
                    touched = True
                if touched:
                    rows.append(row)
                    rhs.append(0)
    for x in instance.variables:
        # if every marginal of x is eliminated, the all-zero row reads 0 = 1
        # and correctly renders the program infeasible
        row = [0] * n
        for a in delta.domain:
            pos = index.position.get(("mu", x, a))
            if pos is not None:
                row[pos] += 1
        rows.append(row)
        rhs.append(1)
    return rows, rhs


def _objective(
    delta: ValuedStructure, instance: Instance, index: ProgramIndex
) -> list[Fraction]:
    obj = [ZERO] * len(index.columns)
    for i, key in enumerate(index.columns):
        if key[0] == "lam":
            _, j, t = key
            cost = delta.cost(instance.terms[j].symbol, t)
            if not is_finite(cost):
                raise InvariantViolated("eliminated columns carry the infinities")
            obj[i] = cost
    return obj


@dataclass
class BlpProgram:
    lp: LinearProgram
    index: ProgramIndex

    @functools.cached_property
    def warm(self) -> exactlp.WarmLP:
        """The one phase 1 that blp_value and select_star_point share.

        Phase 2 run again from an optimal basis makes no pivot, so
        select_star_point after blp_value repeats only the pricing."""
        return exactlp.WarmLP(self.lp)


@dataclass
class AipProgram:
    rows: list[list[int]]
    rhs: list[int]
    objective: list[Fraction]
    index: ProgramIndex


def build_blp(delta: ValuedStructure, instance: Instance) -> BlpProgram:
    """The basic LP relaxation; infeasibility encodes a +inf value.

    The upper bounds lambda, mu <= 1 are implied by nonnegativity plus the
    normalisation equalities and are not encoded.
    """
    check_instance(delta, instance)
    dom = {
        (j, t): True
        for j, term in enumerate(instance.terms)
        for t in delta.dom(term.symbol)
    }
    index = ProgramIndex.build(
        delta, instance, lambda k: k[0] == "mu" or (k[1], k[2]) in dom
    )
    rows, rhs = _constraint_rows(delta, instance, index)
    lp = LinearProgram(
        len(index.columns), rows, rhs, _objective(delta, instance, index)
    )
    return BlpProgram(lp, index)


def build_aip(delta: ValuedStructure, instance: Instance) -> AipProgram:
    """The affine IP relaxation, sharing build_blp's column indexing."""
    return _aip_of(build_blp(delta, instance))


def _aip_of(blp: BlpProgram) -> AipProgram:
    """The AIP with the BLP's constraints, objective and columns, shared
    and not copied: no AIP step mutates its rows, rhs or objective."""
    return AipProgram(blp.lp.rows, blp.lp.rhs, blp.lp.objective, blp.index)


def blp_value(blp: BlpProgram) -> ExtVal:
    res = blp.warm.minimise()
    if res.status == exactlp.INFEASIBLE:
        return PLUS_INF
    if res.status != exactlp.OPTIMAL:
        raise InvariantViolated("BLP region is bounded")
    return res.value


def aip_value(aip: AipProgram) -> ExtVal:
    sol = lattice.solve_integer_system(aip.rows, aip.rhs, len(aip.objective))
    return lattice.evaluate_affine_min(aip.objective, sol)


FEASIBLE_INTERIOR = "feasible-interior"
OPTIMAL_FACE_INTERIOR = "optimal-face-interior"


@dataclass
class StarPoint:
    values: list[Fraction]
    provenance: str
    index: ProgramIndex

    def value_of(self, key: ColKey) -> Fraction:
        pos = self.index.position.get(key)
        return self.values[pos] if pos is not None else ZERO


def _int_row(row: list[Rational], b: Rational) -> tuple[list[tuple[int, int]], int]:
    """row . x = b scaled to ints by the lcm of its denominators: the
    nonzero (column, coefficient) pairs and the rhs."""
    nonzero = list(filter(None, row))
    s = math.lcm(b.denominator, *map(operator.attrgetter("denominator"), nonzero))
    terms = [
        (j, a.numerator * (s // a.denominator))
        for j, a in zip(itertools.compress(range(len(row)), row), nonzero)
    ]
    return terms, b.numerator * (s // b.denominator)


def _check_star_invariants(
    blp: BlpProgram, point: list[Fraction], flags: list[bool], u: Fraction
) -> None:
    """Raise InvariantViolated unless the point is feasible, costs at most
    u and is positive exactly where flagged.

    Exact, in ints: the point is scaled by the lcm D of its denominators,
    so a scaled row holds when its dot product with D x is D times its rhs.
    """
    scale = math.lcm(*(x.denominator for x in point))
    ints = [x.numerator * (scale // x.denominator) for x in point]
    for row, b in zip(blp.lp.rows, blp.lp.rhs):
        terms, rhs = _int_row(row, b)
        if sum(a * ints[j] for j, a in terms) != rhs * scale:
            raise InvariantViolated("star point violates an equality")
    if any(x < 0 for x in ints):
        raise InvariantViolated("star point has a negative coordinate")
    terms, bound = _int_row(blp.lp.objective, u)
    if sum(c * ints[j] for j, c in terms) > bound * scale:
        raise InvariantViolated("star point costs more than the threshold")
    if any((x > 0) != f for x, f in zip(ints, flags)):
        raise InvariantViolated("star point support differs from its flags")


def select_star_point(blp: BlpProgram, u: Fraction) -> StarPoint:
    """The star point of the refinement definition.

    A relative interior point of the feasibility polytope with cost <= u if
    one exists (directly, or as a strict convex combination with an optimal
    vertex), else a relative interior point of the optimal face.  The BLP's
    one phase 1 (blp.warm, shared with blp_value) serves all three: the
    optimum, the support rounds that start from the optimal vertex, and the
    optimal face's support rounds.
    """
    warm = blp.warm
    res = warm.minimise()
    if res.status != exactlp.OPTIMAL or not res.value <= u:
        raise PreconditionViolated("select_star_point requires blp value <= u")
    p, flags = warm.interior_point()
    cost_p = sum(
        map(operator.mul, itertools.compress(blp.lp.objective, p), filter(None, p)),
        ZERO,
    )
    if cost_p <= u:
        _check_star_invariants(blp, p, flags, u)
        return StarPoint(p, FEASIBLE_INTERIOR, blp.index)
    if res.value < u:
        # cost(p) > u > m: mix towards the optimal vertex just past the
        # cost-u crossing; a strict combination with an interior point stays
        # in the relative interior
        theta_star = (cost_p - u) / (cost_p - res.value)
        theta = (theta_star + 1) / 2
        mixed = [
            (1 - theta) * a + theta * b for a, b in zip(p, res.point)
        ]
        _check_star_invariants(blp, mixed, flags, u)
        return StarPoint(mixed, FEASIBLE_INTERIOR, blp.index)
    q, face_flags = warm.face_interior_point()
    face = blp.lp.with_extra_row(list(blp.lp.objective), res.value)
    _check_star_invariants(BlpProgram(face, blp.index), q, face_flags, u)
    return StarPoint(q, OPTIMAL_FACE_INTERIOR, blp.index)


def refine_aip(aip: AipProgram, star: StarPoint) -> AipProgram:
    """Eliminate every column whose star coordinate is zero."""
    if star.index.columns != aip.index.columns:
        raise IndexMisalignment("star point indexed against a different program")
    keep = [i for i, v in enumerate(star.values) if v > 0]
    dropped = [aip.index.columns[i] for i, v in enumerate(star.values) if v == 0]
    columns = [aip.index.columns[i] for i in keep]
    index = ProgramIndex(
        columns,
        {k: i for i, k in enumerate(columns)},
        aip.index.eliminated + dropped,
    )
    rows = [[row[i] for i in keep] for row in aip.rows]
    objective = [aip.objective[i] for i in keep]
    return AipProgram(rows, list(aip.rhs), objective, index)


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
    size = (len(blp.index.columns), len(blp.lp.rows))
    value = blp_value(blp)
    if not value <= u:
        return SolveAnswer(NO, value, program_size=size)
    star = select_star_point(blp, u)
    refined = refine_aip(_aip_of(blp), star)
    aff = aip_value(refined)
    verdict = YES if aff <= u else NO
    return SolveAnswer(
        verdict,
        value,
        star_provenance=star.provenance,
        aff_value=aff,
        eliminated=refined.index.eliminated,
        program_size=size,
    )


def blp_only_solve(delta: ValuedStructure, instance: Instance) -> SolveAnswer:
    """The BLP-only decision procedure: YES iff blp value <= u."""
    blp = build_blp(delta, instance)
    value = blp_value(blp)
    verdict = YES if value <= instance.threshold else NO
    return SolveAnswer(
        verdict, value, program_size=(len(blp.index.columns), len(blp.lp.rows))
    )


def aip_only_solve(delta: ValuedStructure, instance: Instance) -> SolveAnswer:
    """The AIP-only decision procedure: YES iff aff value <= u."""
    aip = build_aip(delta, instance)
    value = aip_value(aip)
    return SolveAnswer(
        YES if value <= instance.threshold else NO,
        None,
        aff_value=value,
        program_size=(len(aip.objective), len(aip.rows)),
    )


# the one table of engines for the library and the CLI; each entry looks its
# procedure up in the module globals when called, so a replaced module
# attribute (a test's monkeypatch, a tracer's wrapper) is the one that runs
ENGINES: dict[str, Callable[[ValuedStructure, Instance], SolveAnswer]] = {
    "combined": lambda delta, instance: combined_solve(delta, instance),
    "blp": lambda delta, instance: blp_only_solve(delta, instance),
    "aip": lambda delta, instance: aip_only_solve(delta, instance),
}
