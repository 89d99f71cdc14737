import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from helpers import costs, fraction_star_point, reference_blp, sparse

from pvcsp import exactlp, generators, lattice, relax
from pvcsp.core import (
    GAP,
    Instance,
    NO,
    PromiseTemplate,
    Signature,
    Term,
    ValuedStructure,
    YES,
    brute_force_min,
    pvcsp_oracle,
)
from pvcsp.errors import IndexMisalignment, PreconditionViolated, PvcspError
from pvcsp.relax import (
    ENGINES,
    FEASIBLE_INTERIOR,
    OPTIMAL_FACE_INTERIOR,
    aip_value,
    blp_only_solve,
    blp_value,
    build_aip,
    build_blp,
    combined_solve,
    refine_aip,
    select_star_point,
)
from pvcsp.values import MINUS_INF, PLUS_INF

XOR = generators.xor_structure()

WEIGHTED = ValuedStructure(
    Signature((("w", 1),)),
    ("0", "1"),
    {"w": {("0",): F(0), ("1",): F(1)}},
)


def inst(variables, terms, threshold):
    return Instance(tuple(variables), tuple(Term(s, tuple(a)) for s, a in terms), F(threshold))


def test_build_blp_column_layout():
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    blp = build_blp(XOR, ins)
    # crisp xor1 keeps its two satisfying tuples; both marginals survive
    lam = [k for k in blp.columns if k[0] == "lam"]
    mu = [k for k in blp.columns if k[0] == "mu"]
    assert lam == [("lam", 0, ("0", "1")), ("lam", 0, ("1", "0"))]
    assert len(mu) == 4
    assert [k[2] for k in blp.eliminated] == [("0", "0"), ("1", "1")]
    # one marginal row per term coordinate and label, one normalisation
    # per variable; the lambda normalisations are implied
    assert len(blp.rows) == 2 * 2 + 2


def blp_ladder():
    """Seeded (structure, instance) pairs over domains 1-3 and symbols of
    arity 1-3, with an all-+inf symbol; each instance has terms with a
    repeated variable and a variable in no term, plus no-terms cases."""
    rng = random.Random(12)
    symbols = (("f1", 1), ("f2", 2), ("f3", 3), ("e", 2))
    for k in range(30):
        domain = tuple(str(i) for i in range(1 + k % 3))
        pool = generators.COST_POOL if k % 2 else generators.COST_POOL[:-1]
        tables = {
            name: {
                t: PLUS_INF if name == "e" else rng.choice(pool)
                for t in itertools.product(domain, repeat=arity)
            }
            for name, arity in symbols
        }
        delta = ValuedStructure(Signature(symbols), domain, tables)
        terms = [
            (name, [rng.choice("xyz") for _ in range(arity)])
            for name, arity in symbols[: 3 + k % 2]
        ]
        terms += [("f2", ["y", "y"]), ("f3", ["x", "z", "x"])]
        yield delta, inst(["x", "y", "z", "idle"], terms, 0)
        if k < 3:
            yield delta, inst(["x", "idle"], [], 0)


def test_build_blp_matches_four_pass_reference():
    for delta, ins in blp_ladder():
        blp = build_blp(delta, ins)
        rows, *rest = reference_blp(delta, ins)
        got = (blp.rows, blp.rhs, costs(blp), blp.columns, blp.eliminated)
        assert got == (list(map(sparse, rows)), *rest)


def test_implied_rows_are_combinations_of_the_others():
    # at each position p > 0 of a term, the last label's row is the sum of
    # position 0's rows and norm(x_0), less norm(x_p) and position p's
    # other rows: coefficients and rhs alike, repeated variables and
    # all-+inf terms included
    seen = {"repeated": 0, "all_inf": 0}
    for delta, ins in blp_ladder():
        blp = build_blp(delta, ins)
        labels = len(delta.domain)
        norm = {x: len(blp.rows) - len(ins.variables) + v for v, x in enumerate(ins.variables)}
        expected, start = [], 0
        for term in ins.terms:
            first = range(start, start + labels)
            for p, x in enumerate(term.args):
                block = range(start + p * labels, start + (p + 1) * labels)
                if p == 0:
                    continue
                combo = dict.fromkeys(first, 1)
                combo[norm[term.args[0]]] = 1
                combo[norm[x]] = combo.get(norm[x], 0) - 1
                for i in block[:-1]:
                    combo[i] = -1
                for j in range(blp.n):
                    total = sum(k * blp.rows[i].get(j, 0) for i, k in combo.items())
                    assert total == blp.rows[block[-1]].get(j, 0)
                assert sum(k * blp.rhs[i] for i, k in combo.items()) == blp.rhs[block[-1]]
                expected.append(block[-1])
                seen["repeated"] += x == term.args[0]
            start += labels * len(term.args)
            seen["all_inf"] += term.symbol == "e"
        assert blp.implied == expected
    assert min(seen.values()) >= 10


def test_tableau_and_echelon_leave_implied_rows_out(monkeypatch):
    # the tableau checks every row but holds at most the others, and the
    # echelon gets only the others; the BLP's and AIP's values are those of
    # the full system, and the refined AIP keeps the list
    echelon_rows = []
    echelon = lattice._echelon
    monkeypatch.setattr(
        lattice, "_echelon", lambda A, tail: echelon_rows.append(len(A)) or echelon(A, tail)
    )

    def full(p):  # a plain program: tableau and echelon hold every row
        return exactlp.LinearProgram(p.n, p.rows, p.rhs, p.objective, scale=p.scale)

    refined_count = 0
    for delta, ins in blp_ladder():
        blp = build_blp(delta, ins)
        warm = blp.warm
        assert warm.m == len(blp.rows)
        assert len(warm.rows) <= len(blp.rows) - len(blp.implied)
        res = exactlp.WarmLP(full(blp)).minimise()
        assert (res.status, res.value) == (blp.phase2.status, blp.phase2.value)
        assert aip_value(blp) == lattice.affine_min(full(blp))
        assert echelon_rows[-2:] == [len(blp.rows) - len(blp.implied), len(blp.rows)]
        if blp.phase2.status == exactlp.OPTIMAL:
            refined = refine_aip(blp, select_star_point(blp, blp.phase2.value))
            assert refined.implied == blp.implied
            assert aip_value(refined) == lattice.affine_min(full(refined))
            refined_count += 1
    assert refined_count >= 15


def test_build_blp_contradictory_units_infeasible():
    # pos1(x) and neg1(x) pin mu_x to opposite point masses
    horn = generators.horn_structure()
    ins = inst(["x"], [("pos1", ["x"]), ("neg1", ["x"])], 0)
    assert blp_value(build_blp(horn, ins)) is PLUS_INF


def test_blp_fractionally_satisfies_parity_self_loop():
    # xor1(x, x) has no integral solution, yet uniform marginals satisfy
    # the relaxation at cost zero
    ins = inst(["x"], [("xor1", ["x", "x"])], 0)
    assert blp_value(build_blp(XOR, ins)) == 0


def test_blp_value_lower_bounds_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        delta = generators.random_structure(rng)
        ins = generators.random_instance(rng, delta, 4, 4)
        blp = build_blp(delta, ins)
        assert blp_value(blp) <= brute_force_min(delta, ins)


def test_blp_solutions_respect_implied_upper_bounds():
    # the encoding drops explicit <= 1 rows; nonnegativity plus the
    # normalisation equalities imply them at every solved point
    rng = random.Random(29)
    for _ in range(20):
        delta = generators.random_structure(rng)
        ins = generators.random_instance(rng, delta, 4, 4)
        blp = build_blp(delta, ins)
        res = solve_lp_point(blp)
        if res is None:
            continue
        assert all(F(0) <= v <= F(1) for v in res)


def solve_lp_point(blp):
    from pvcsp import exactlp

    res = exactlp.solve_lp(blp)
    return res.point if res.status == exactlp.OPTIMAL else None


def test_build_blp_rejects_invalid_instance():
    with pytest.raises(PvcspError):
        build_blp(XOR, inst(["x"], [("nope", ["x", "x"])], 0))


def test_build_blp_unary_layout():
    ins = inst(["x"], [("w", ["x"])], 0)
    blp = build_blp(WEIGHTED, ins)
    lam = [k for k in blp.columns if k[0] == "lam"]
    mu = [k for k in blp.columns if k[0] == "mu"]
    assert len(lam) == 2 and len(mu) == 2
    assert len(blp.rows) == 2 + 1
    assert blp_value(blp) == 0


def test_build_blp_no_terms():
    ins = inst(["x"], [], 0)
    blp = build_blp(WEIGHTED, ins)
    assert [k[0] for k in blp.columns] == ["mu", "mu"]
    assert len(blp.rows) == 1
    assert blp_value(blp) == 0


def test_build_aip_shares_index_with_blp():
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    blp = build_blp(XOR, ins)
    aip = build_aip(XOR, ins)
    assert aip.columns == blp.columns
    assert aip.rows == blp.rows
    assert all(type(a) is int for row in aip.rows for a in row.values())


def test_aip_value_satisfiable_parity():
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    assert aip_value(build_aip(XOR, ins)) == 0


def test_aip_value_unbounded_below_for_weighted_unary():
    # the kernel direction shifting mass from q(0) to q(1) changes the
    # objective, so the integer relaxation is unbounded below
    ins = inst(["x"], [("w", ["x"])], 0)
    assert aip_value(build_aip(WEIGHTED, ins)) is MINUS_INF


def test_aip_value_no_terms_is_zero():
    ins = inst(["x"], [], 0)
    assert aip_value(build_aip(WEIGHTED, ins)) == 0


def test_aip_value_empty_domain_symbol_infeasible():
    # a symbol with no finite tuples loses all q-columns; its marginal
    # rows then force r = 0, contradicting the normalisation row
    empty = ValuedStructure(
        Signature((("e", 1),)),
        ("0", "1"),
        {"e": {("0",): PLUS_INF, ("1",): PLUS_INF}},
    )
    ins = inst(["x"], [("e", ["x"])], 0)
    assert aip_value(build_aip(empty, ins)) is PLUS_INF


def value_of(star, key):
    """The star point's value at a column key; 0 at an eliminated column."""
    return dict(zip(star.columns, star.values)).get(key, 0)


def test_select_star_point_interior_case():
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    blp = build_blp(XOR, ins)
    star = select_star_point(blp, F(0))
    assert star.provenance == FEASIBLE_INTERIOR
    # the parity polytope's interior mixes both satisfying tuples
    assert value_of(star, ("lam", 0, ("0", "1"))) > 0
    assert value_of(star, ("lam", 0, ("1", "0"))) > 0
    assert value_of(star, ("lam", 0, ("0", "0"))) == 0


def star_cost(blp, star):
    return sum((c * v for c, v in zip(costs(blp), star.values)), F(0))


def test_select_star_point_mixing_case():
    # optimum 0 < threshold 1/4 < interior cost 1/2: a strict convex mix
    # with the optimal vertex keeps full support and drops below u
    ins = inst(["x"], [("w", ["x"])], F(1, 4))
    blp = build_blp(WEIGHTED, ins)
    assert blp_value(blp) == 0
    star = select_star_point(blp, F(1, 4))
    assert star.provenance == FEASIBLE_INTERIOR
    assert all(v > 0 for v in star.values)
    assert star_cost(blp, star) <= F(1, 4)


def test_select_star_point_optimal_face_case():
    # threshold equals the optimum but the polytope interior costs more,
    # so the star point comes from the optimal face
    ins = inst(["x"], [("w", ["x"])], 0)
    blp = build_blp(WEIGHTED, ins)
    star = select_star_point(blp, F(0))
    assert star.provenance == OPTIMAL_FACE_INTERIOR
    assert star_cost(blp, star) == 0
    assert value_of(star, ("mu", "x", "1")) == 0
    assert value_of(star, ("mu", "x", "0")) == 1


def test_select_star_point_single_point_polytope():
    # the parity self-loop polytope is the single point with all
    # coordinates 1/2, which is its own relative interior
    ins = inst(["x"], [("xor1", ["x", "x"])], 0)
    blp = build_blp(XOR, ins)
    star = select_star_point(blp, F(0))
    assert star.provenance == FEASIBLE_INTERIOR
    assert all(v == F(1, 2) for v in star.values)


def test_select_star_point_interior_meets_loose_threshold():
    # at u = 1/2 the interior point itself is cheap enough, so no
    # mixing happens and both lambda coordinates stay positive
    ins = inst(["x"], [("w", ["x"])], F(1, 2))
    blp = build_blp(WEIGHTED, ins)
    star = select_star_point(blp, F(1, 2))
    assert star.provenance == FEASIBLE_INTERIOR
    assert value_of(star, ("lam", 0, ("0",))) > 0
    assert value_of(star, ("lam", 0, ("1",))) > 0
    assert star_cost(blp, star) <= F(1, 2)


def test_star_invariants_survive_optimise_flag():
    # under python -O every assert vanishes; the star-point check must not,
    # neither called directly nor on the mix with a corrupted optimal vertex
    script = """
import math
from fractions import Fraction as F
from pvcsp import generators, relax
from pvcsp.core import Instance, Signature, Term, ValuedStructure
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
ins = Instance(("x", "y"), (Term("xor1", ("x", "y")),), F(0))
blp = relax.build_blp(generators.xor_structure(), ins)
star = relax.select_star_point(blp, F(0))
flags = [v > 0 for v in star.values]
den = math.lcm(*(v.denominator for v in star.values))
bad = [v.numerator * (den // v.denominator) for v in star.values]
bad[0] += den
try:
    relax._check_star_invariants(blp, bad, den, flags, F(0))
except InvariantViolated as exc:
    print("caught:", exc)
weighted = ValuedStructure(
    Signature((("w", 1),)), ("0", "1"), {"w": {("0",): F(0), ("1",): F(1)}}
)
ins = Instance(("x",), (Term("w", ("x",)),), F(1, 4))
blp = relax.build_blp(weighted, ins)
_, vertex = blp.phase2.witness
vertex[min(vertex)] += 1
try:
    relax.select_star_point(blp, F(1, 4))
except InvariantViolated as exc:
    print("caught:", exc)
"""
    assert run_optimised(script) == ["caught: star point violates an equality"] * 2


def run_optimised(script):
    """The stdout lines of script run under python -O."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()


def test_star_cost_window_survives_optimise_flag():
    # every star point costs between the BLP's optimum and the threshold;
    # under python -O both ends of that window are still checked
    script = """
from fractions import Fraction as F
from pvcsp import relax
from pvcsp.core import Instance, Signature, Term, ValuedStructure
from pvcsp.errors import InvariantViolated
if __debug__:
    raise SystemExit("asserts are still on")
weighted = ValuedStructure(
    Signature((("w", 1),)), ("0", "1"), {"w": {("0",): F(0), ("1",): F(1)}}
)
ins = Instance(("x",), (Term("w", ("x",)),), F(1))
# the interior point costs 1/2; the optimum 0, raised to 1, is above it
blp = relax.build_blp(weighted, ins)
blp.phase2.value += 1
ints, den, flags = blp.warm.interior_ints()
try:
    relax._check_star_invariants(blp, ints, den, flags, F(1))
except InvariantViolated as exc:
    print("caught:", exc)
# at u = the optimum 0 the star point is the optimal face's; the region's
# interior point costs more
blp = relax.build_blp(weighted, ins)
print(relax.select_star_point(blp, F(0)).provenance)
ints, den, flags = blp.warm.interior_ints()
try:
    relax._check_star_invariants(blp, ints, den, flags, blp.phase2.value)
except InvariantViolated as exc:
    print("caught:", exc)
"""
    assert run_optimised(script) == [
        "caught: star point costs less than the optimum",
        relax.OPTIMAL_FACE_INTERIOR,
        "caught: star point costs more than the threshold",
    ]


def mixed_denominator_structure(rng):
    """Two symbols of arity 1 and 2 over domain 2 or 3, costs k / q with
    q from 1 to 9 mixed within each table, and a +inf entry now and then."""
    domain = tuple(str(i) for i in range(rng.choice([2, 2, 3])))
    symbols = (("f", 1), ("g", 2))

    def cost():
        if rng.random() < 0.1:
            return PLUS_INF
        return F(rng.randint(0, 12), rng.randint(1, 9))

    tables = {
        name: {t: cost() for t in itertools.product(domain, repeat=arity)}
        for name, arity in symbols
    }
    return ValuedStructure(Signature(symbols), domain, tables)


def test_star_point_ints_match_fraction_reference(monkeypatch):
    # the value, cost, theta and mix computed in ints over one denominator
    # give the Fraction sums' value and star point, and blp_value followed by
    # select_star_point runs phase 2 once (twice on the optimal face, whose
    # own optimum runs after the rounds)
    calls = []
    minimise = exactlp.WarmLP.minimise
    monkeypatch.setattr(
        exactlp.WarmLP, "minimise", lambda warm: calls.append(warm) or minimise(warm)
    )
    rng = random.Random(83)
    branches = {"interior": 0, "mix": 0, "face": 0}
    for k in range(150):
        delta = mixed_denominator_structure(rng)
        instance = generators.random_instance(rng, delta, 6, 6)
        lp = build_blp(delta, instance)
        value, cost, _, _, _ = fraction_star_point(lp)
        if value is None:
            assert blp_value(build_blp(delta, instance)) is PLUS_INF
            continue
        u = [value, (value + cost) / 2, cost][k % 3]
        _, _, values, provenance, branch = fraction_star_point(lp, u)
        branches[branch] += 1
        blp = build_blp(delta, instance)
        calls.clear()
        assert blp_value(blp) == value
        star = select_star_point(blp, u)
        assert star.values == values and star.provenance == provenance
        assert len(calls) == (2 if branch == "face" else 1)
    assert min(branches.values()) >= 30


def test_select_star_point_requires_threshold():
    ins = inst(["x", "y"], [("xor0", ["x", "y"]), ("xor1", ["x", "y"])], 0)
    blp = build_blp(XOR, ins)
    with pytest.raises(PreconditionViolated):
        select_star_point(blp, F(-1))


def test_refine_aip_drops_zero_columns():
    # xor1 keeps every column; w's optimal face drops the costly tuple and
    # its label's marginal
    cases = [
        (XOR, inst(["x", "y"], [("xor1", ["x", "y"])], 0)),
        (WEIGHTED, inst(["x"], [("w", ["x"])], 0)),
    ]
    dropped = []
    for delta, ins in cases:
        aip = build_aip(delta, ins)
        star = select_star_point(build_blp(delta, ins), F(0))
        refined = refine_aip(aip, star)
        keep = [j for j, v in enumerate(star.values) if v > 0]
        assert refined.n == len(keep)
        assert refined.columns == [aip.columns[j] for j in keep]
        dropped.append(aip.n - len(keep))
        # each refined row is its source row restricted to the kept
        # columns, re-indexed
        assert len(refined.rows) == len(aip.rows)
        for row, source in zip(refined.rows, aip.rows):
            assert row == {k: source[j] for k, j in enumerate(keep) if j in source}
    assert dropped == [0, 2]


def test_aip_shares_blp_rows_and_leaves_them_unchanged(monkeypatch):
    # the AIP is the BLP's own system, and its LP shares the rows and rhs;
    # nothing may mutate them
    cases = [
        (
            XOR,
            inst(
                ["x", "y", "z"],
                [("xor1", ["x", "y"]), ("xor0", ["y", "z"]), ("xor1", ["x", "z"])],
                0,
            ),
            FEASIBLE_INTERIOR,
        ),
        (WEIGHTED, inst(["x"], [("w", ["x"])], 0), OPTIMAL_FACE_INTERIOR),
    ]
    for delta, ins, provenance in cases:
        blp = build_blp(delta, ins)
        rows = [dict(row) for row in blp.rows]
        rhs = list(blp.rhs)
        objective = list(blp.objective)
        aip = blp
        assert blp.warm.objective is blp.objective
        aip_value(aip)
        aip_value(refine_aip(aip, select_star_point(blp, F(0))))
        monkeypatch.setattr(relax, "build_blp", lambda delta, instance: blp)
        answer = combined_solve(delta, ins)
        assert answer.star_provenance == provenance and answer.aff_value is not None
        assert blp.rows == rows and blp.rhs == rhs
        assert blp.objective == objective


def test_refine_aip_restores_finite_value():
    # the unrefined weighted program is unbounded below; once the
    # optimal-face star zeroes the expensive column the remaining
    # system pins q(0) = 1 and the value becomes finite
    ins = inst(["x"], [("w", ["x"])], 0)
    blp = build_blp(WEIGHTED, ins)
    aip = build_aip(WEIGHTED, ins)
    assert aip_value(aip) is MINUS_INF
    star = select_star_point(blp, F(0))
    assert aip_value(refine_aip(aip, star)) == 0


def test_refine_aip_rejects_foreign_star():
    ins1 = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    ins2 = inst(["x", "y", "z"], [("xor1", ["x", "y"])], 0)
    star = select_star_point(build_blp(XOR, ins1), F(0))
    with pytest.raises(IndexMisalignment):
        refine_aip(build_aip(XOR, ins2), star)


def test_combined_solve_yes_on_satisfiable_parity():
    ins = inst(["x", "y", "z"], [("xor1", ["x", "y"]), ("xor1", ["y", "z"])], 0)
    ans = combined_solve(XOR, ins)
    assert ans.verdict == YES and ans.blp_value == 0 and ans.aff_value == 0


def test_combined_solve_no_via_blp_gate():
    horn = generators.horn_structure()
    ins = inst(["x"], [("pos1", ["x"]), ("neg1", ["x"])], 0)
    ans = combined_solve(horn, ins)
    assert ans.verdict == NO and ans.blp_value is PLUS_INF
    assert ans.star_provenance is None


def test_combined_solve_no_via_refined_aip():
    # the parity self loop passes the LP gate but fails the integer gate
    ins = inst(["x"], [("xor1", ["x", "x"])], 0)
    ans = combined_solve(XOR, ins)
    assert ans.verdict == NO and ans.blp_value == 0
    assert ans.aff_value is PLUS_INF


def test_odd_cycle_separates_blp_from_combined():
    delta, ins = generators.xor_odd_cycle()
    only = blp_only_solve(delta, ins)
    both = combined_solve(delta, ins)
    assert only.verdict == YES and only.blp_value == 0
    assert both.verdict == NO and both.aff_value is PLUS_INF
    assert both.eliminated


def test_aip_engine_reports_eliminated_tuples():
    # the AIP-only engine leaves out the +inf tuples, as the BLP does
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    answer = ENGINES["aip"](XOR, ins)
    assert answer.eliminated == [("lam", 0, ("0", "0")), ("lam", 0, ("1", "1"))]
    assert "eliminated columns: 2" in answer.trace().splitlines()


def test_combined_gate_reports_eliminated_tuples():
    # stopped at its BLP gate (value 0 above u = -1), the combined engine
    # still reports the +inf tuples it left out, as the BLP engine does
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], -1)
    combined, blp = ENGINES["combined"](XOR, ins), ENGINES["blp"](XOR, ins)
    assert combined.verdict == blp.verdict == NO
    assert combined.blp_value == 0 and combined.star_provenance is None
    assert combined.eliminated == blp.eliminated
    assert combined.eliminated == [("lam", 0, ("0", "0")), ("lam", 0, ("1", "1"))]
    assert "eliminated columns: 2" in combined.trace().splitlines()


def test_combined_solve_trace_mentions_verdict():
    ins = inst(["x", "y"], [("xor1", ["x", "y"])], 0)
    text = combined_solve(XOR, ins).trace()
    assert "verdict: yes" in text and "blp value: 0" in text


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_never_rejects_true_yes(engine):
    # every engine is a relaxation: an attaining assignment is a feasible point
    for seed in (17, 19):
        rng = random.Random(seed)
        for _ in range(40):
            delta = generators.random_structure(rng)
            ins = generators.random_instance(rng, delta, 4, 4)
            if brute_force_min(delta, ins) <= ins.threshold:
                assert ENGINES[engine](delta, ins).verdict == YES


def test_no_verdicts_respect_oracle():
    # whenever the algorithm answers NO, the strong side really misses u
    rng = random.Random(23)
    for _ in range(40):
        delta = generators.random_structure(rng)
        gamma = generators.weaken_structure(rng, delta)
        ins = generators.random_instance(rng, delta, 4, 4)
        template = PromiseTemplate(delta, gamma)
        verdict = combined_solve(delta, ins).verdict
        truth = pvcsp_oracle(template, ins)
        if truth == YES:
            assert verdict == YES
        elif truth == NO:
            pass  # either answer allowed only in the gap; NO must hold here
        if verdict == NO:
            assert truth in (NO, GAP)

