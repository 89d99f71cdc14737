import gc
import itertools
import random
import weakref
from fractions import Fraction as F

import pytest
from helpers import counting_pivots, full_multiset_cost, table_reference_search

from pvcsp import exactlp, generators, theory
from pvcsp.core import (
    FiniteMeasure,
    Instance,
    OperationTable,
    PromiseTemplate,
    Signature,
    Term,
    ValuedStructure,
    brute_force_min,
)
from pvcsp.errors import DomainMismatch, PreconditionViolated, ResourceGuard
from pvcsp.theory import (
    BlockPartition,
    NONE_EXISTS,
    PromiseFpol,
    block_multiset_domain,
    block_multiset_structure,
    check_block_symmetry,
    check_fractional_homomorphism,
    check_promise_fpol,
    compose_sampling_fpol,
    find_frachom_lp,
    find_promise_fpol_lp,
    fpol_from_frachom,
    lift_fpol_to_frachom,
    render_multiset_element,
    symmetrize_input_weights,
)
from pvcsp.values import PLUS_INF

B = ("0", "1")


def op(arity, fn, in_domain=B, out_domain=B):
    return OperationTable.from_callable(in_domain, out_domain, arity, fn)


IDENTITY = op(1, lambda a: a)
MIN2 = op(2, lambda a, b: min(a, b))
MAX2 = op(2, lambda a, b: max(a, b))
PROJ1 = op(2, lambda a, b: a)


def unary_structure(c0, c1, name="w"):
    return ValuedStructure(
        Signature(((name, 1),)), B, {name: {("0",): c0, ("1",): c1}}
    )


# block partitions


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(((0, 2),))
    with pytest.raises(ValueError):
        BlockPartition(((),))
    with pytest.raises(ValueError):
        BlockPartition(())
    with pytest.raises(ValueError):
        BlockPartition.from_sizes([])
    p = BlockPartition.from_sizes([2, 1])
    assert p.blocks == ((0, 1), (2,))
    assert p.arity == 3 and p.sizes() == (2, 1)


# fractional homomorphism checking


def test_identity_frachom_on_weakened_pair():
    delta = unary_structure(F(1), F(2))
    gamma = unary_structure(F(1, 2), F(2))
    ok, witness = check_fractional_homomorphism(
        FiniteMeasure.point_mass(IDENTITY), delta, gamma
    )
    assert ok and witness is None


def test_frachom_violation_reported():
    delta = unary_structure(F(0), F(1))
    gamma = unary_structure(F(1), F(1))
    ok, witness = check_fractional_homomorphism(
        FiniteMeasure.point_mass(IDENTITY), delta, gamma
    )
    assert not ok and witness == ("w", ("0",))


def test_frachom_mixture_averages_costs():
    # half identity, half constant-0 against a target that only charges 1s
    delta = unary_structure(F(1, 2), F(1, 2))
    gamma = unary_structure(F(0), F(1))
    chi = FiniteMeasure.from_pairs(
        [(IDENTITY, F(1, 2)), (op(1, lambda a: "0"), F(1, 2))]
    )
    ok, _ = check_fractional_homomorphism(chi, delta, gamma)
    assert ok


def test_frachom_rejects_wrong_domains():
    delta = unary_structure(F(0), F(0))
    gamma = ValuedStructure(
        Signature((("w", 1),)),
        ("a", "b"),
        {"w": {("a",): F(0), ("b",): F(0)}},
    )
    with pytest.raises(DomainMismatch):
        check_fractional_homomorphism(
            FiniteMeasure.point_mass(IDENTITY), delta, gamma
        )


def test_frachom_rejects_non_unary_maps():
    delta = unary_structure(F(0), F(0))
    with pytest.raises(DomainMismatch):
        check_fractional_homomorphism(FiniteMeasure.point_mass(MIN2), delta, delta)


def test_frachom_transfer_of_attainment():
    # whenever a witness exists, the target's optimum never exceeds the
    # source's on any instance
    rng = random.Random(31)
    found = 0
    while found < 15:
        delta = generators.random_structure(rng)
        gamma = generators.weaken_structure(rng, delta)
        chi = find_frachom_lp(delta, gamma)
        if chi == NONE_EXISTS:
            continue
        found += 1
        for _ in range(5):
            ins = generators.random_instance(rng, delta, 3, 3)
            assert brute_force_min(gamma, ins) <= brute_force_min(delta, ins)


# promise polymorphism checking


def test_min_max_fpol_for_submodular():
    rng = random.Random(7)
    delta = generators.submodular_structure(rng)
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol(
        (F(1, 2), F(1, 2)),
        FiniteMeasure.from_pairs([(MIN2, F(1, 2)), (MAX2, F(1, 2))]),
    )
    ok, witness = check_promise_fpol(omega, template)
    assert ok and witness is None


def test_projection_fpol_violation():
    delta = unary_structure(F(1), F(0))
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol(
        (F(1, 2), F(1, 2)), FiniteMeasure.point_mass(PROJ1)
    )
    ok, witness = check_promise_fpol(omega, template)
    # projecting to the expensive side beats the average of a cheap pair
    assert not ok and witness == ("w", (("0",), ("1",)))


def test_lopsided_weights_make_projection_valid():
    delta = unary_structure(F(1), F(0))
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol((F(1), F(0)), FiniteMeasure.point_mass(PROJ1))
    ok, _ = check_promise_fpol(omega, template)
    assert ok


def test_promise_fpol_cap_enforced():
    delta = generators.xor_structure()
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol(
        (F(1, 2), F(1, 2)), FiniteMeasure.point_mass(PROJ1)
    )
    with pytest.raises(ResourceGuard):
        check_promise_fpol(omega, template, cap=10)


# block symmetry


def test_min_is_fully_symmetric():
    assert check_block_symmetry(MIN2, BlockPartition.from_sizes([2]))


def test_projection_not_symmetric_within_block():
    assert not check_block_symmetry(PROJ1, BlockPartition.from_sizes([2]))
    # but trivially symmetric when each index sits alone
    assert check_block_symmetry(PROJ1, BlockPartition.from_sizes([1, 1]))


def test_block_symmetry_matches_full_permutation_check():
    rng = random.Random(9)
    partition = BlockPartition.from_sizes([2, 1])
    for _ in range(20):
        table = {
            args: rng.choice(B) for args in itertools.product(B, repeat=3)
        }
        g = OperationTable.from_map(B, B, 3, table)
        claimed = check_block_symmetry(g, partition)
        # oracle: invariance under every block-preserving permutation
        truth = all(
            table[args] == table[(args[p[0]], args[p[1]], args[p[2]])]
            for p in [(0, 1, 2), (1, 0, 2)]
            for args in itertools.product(B, repeat=3)
        )
        assert claimed == truth


def test_symmetrize_input_weights():
    omega = PromiseFpol(
        (F(1, 4), F(3, 4)), FiniteMeasure.point_mass(MIN2)
    )
    sym = symmetrize_input_weights(omega, BlockPartition.from_sizes([2]))
    assert sym.input_weights == (F(1, 2), F(1, 2))
    assert sym.output == omega.output


def test_symmetrize_rejects_bad_block_sums():
    omega = PromiseFpol(
        (F(1, 4), F(1, 4), F(1, 2)),
        FiniteMeasure.point_mass(op(3, lambda a, b, c: min(a, b, c))),
    )
    # blocks (0,1) and (2,) need sums 2/3 and 1/3
    with pytest.raises(PreconditionViolated):
        symmetrize_input_weights(omega, BlockPartition.from_sizes([2, 1]))


def test_symmetrize_rejects_asymmetric_support():
    omega = PromiseFpol((F(1, 2), F(1, 2)), FiniteMeasure.point_mass(PROJ1))
    with pytest.raises(PreconditionViolated):
        symmetrize_input_weights(omega, BlockPartition.from_sizes([2]))


# multiset structures


def test_multiset_domain_single_block():
    assert block_multiset_domain(B, BlockPartition.from_sizes([2])) == [
        (("0", "0"),),
        (("0", "1"),),
        (("1", "1"),),
    ]


def test_multiset_domain_two_blocks_and_labels():
    dom = block_multiset_domain(B, BlockPartition.from_sizes([2, 1]))
    assert len(dom) == 6
    assert render_multiset_element(dom[0]) == "0,0|0"
    assert render_multiset_element(dom[-1]) == "1,1|1"


def test_trivial_power_is_isomorphic_to_base():
    delta = generators.horn_structure()
    power = block_multiset_structure(delta, BlockPartition.from_sizes([1]))
    assert power.domain == delta.domain
    for name, _ in delta.signature.symbols:
        assert power.table(name) == delta.table(name)


def test_symmetric_square_unary_averages():
    delta = unary_structure(F(0), F(1))
    sq = block_multiset_structure(delta, BlockPartition.from_sizes([2]))
    assert sq.domain == ("0,0", "0,1", "1,1")
    assert sq.cost("w", ("0,0",)) == 0
    assert sq.cost("w", ("0,1",)) == F(1, 2)
    assert sq.cost("w", ("1,1",)) == 1


def test_symmetric_square_binary_picks_best_alignment():
    delta = generators.xor_structure()
    sq = block_multiset_structure(delta, BlockPartition.from_sizes([2]))
    # {0,1} with {0,1}: aligning 0-1 and 1-0 satisfies both parity terms
    assert sq.cost("xor1", ("0,1", "0,1")) == 0
    # {0,0} with {0,0} can never flip parity
    assert sq.cost("xor1", ("0,0", "0,0")) is PLUS_INF
    assert sq.cost("xor0", ("0,0", "0,0")) == 0


# (domain size, block sizes) of the multiset-structure references
MULTISET_SHAPES = ((2, (2,)), (2, (3,)), (2, (1, 1)), (2, (2, 1)), (3, (2,)))


def test_canonical_first_argument_matches_full_enumeration():
    rng = random.Random(12)
    arities = set()
    for case in range(25):
        d, sizes = MULTISET_SHAPES[case % len(MULTISET_SHAPES)]
        partition = BlockPartition.from_sizes(sizes)
        delta = generators.random_structure(rng, d, n_symbols=3, max_arity=3)
        built = block_multiset_structure(delta, partition)
        elements = block_multiset_domain(delta.domain, partition)
        for name, arity in delta.signature.symbols:
            arities.add((d, sizes, arity))
            for args in itertools.product(elements, repeat=arity):
                labels = tuple(render_multiset_element(e) for e in args)
                expected = full_multiset_cost(delta, partition, name, args)
                assert built.cost(name, labels) == expected
    assert {(d, s, 3) for d, s in MULTISET_SHAPES} <= arities


def test_multiset_structure_cap():
    delta = generators.xor_structure()
    with pytest.raises(ResourceGuard):
        block_multiset_structure(delta, BlockPartition.from_sizes([3, 2]), cap=10)


# lifts and composition


def test_lift_min_to_square_homomorphism():
    delta = unary_structure(F(0), F(1))
    partition = BlockPartition.from_sizes([2])
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MIN2))
    chi = lift_fpol_to_frachom(omega, partition, template)
    (h,) = chi.support()
    assert h.apply(("0,1",)) == "0" and h.apply(("1,1",)) == "1"
    # the lift is a genuine homomorphism from the square structure
    sq = block_multiset_structure(delta, partition)
    ok, _ = check_fractional_homomorphism(chi, sq, delta)
    assert ok


def test_lift_requires_block_symmetry():
    delta = unary_structure(F(0), F(1))
    omega = PromiseFpol.uniform_input(FiniteMeasure.point_mass(PROJ1))
    with pytest.raises(PreconditionViolated):
        lift_fpol_to_frachom(
            omega, BlockPartition.from_sizes([2]), PromiseTemplate(delta, delta)
        )


def test_lift_roundtrip_recovers_fpol():
    delta = unary_structure(F(0), F(1))
    partition = BlockPartition.from_sizes([2])
    template = PromiseTemplate(delta, delta)
    omega = PromiseFpol.uniform_input(
        FiniteMeasure.from_pairs([(MIN2, F(1, 3)), (MAX2, F(2, 3))])
    )
    chi = lift_fpol_to_frachom(omega, partition, template)
    back = fpol_from_frachom(chi, partition, delta.domain)
    assert back == omega


def test_colliding_multiset_labels_are_refused():
    # the elements ('a,b', 'a') and ('a', 'b,a') both render as 'a,b,a'
    domain = ("a,b", "a", "b,a")
    delta = ValuedStructure(
        Signature((("w", 1),)), domain, {"w": {(a,): F(0) for a in domain}}
    )
    partition = BlockPartition.from_sizes([2])
    const = OperationTable.from_callable(domain, domain, 2, lambda x, y: "a")
    omega = PromiseFpol.uniform_input(FiniteMeasure.point_mass(const))
    chi = FiniteMeasure.point_mass(
        OperationTable.from_callable(domain, domain, 1, lambda x: x)
    )
    for build in (
        lambda: block_multiset_structure(delta, partition),
        lambda: lift_fpol_to_frachom(omega, partition, PromiseTemplate(delta, delta)),
        lambda: fpol_from_frachom(chi, partition, domain),
    ):
        with pytest.raises(DomainMismatch, match="multiset labels collide"):
            build()


def test_fpol_from_frachom_checks_domain():
    chi = FiniteMeasure.point_mass(IDENTITY)
    with pytest.raises(DomainMismatch):
        fpol_from_frachom(chi, BlockPartition.from_sizes([2]), B)


def test_compose_with_identity_is_identity():
    delta = unary_structure(F(0), F(1))
    omega = PromiseFpol.uniform_input(
        FiniteMeasure.from_pairs([(MIN2, F(1, 2)), (MAX2, F(1, 2))])
    )
    composed = compose_sampling_fpol(FiniteMeasure.point_mass(IDENTITY), omega)
    assert composed == omega


def test_compose_collapses_product_measure():
    # relabelled intermediate domain: h maps a/b to 0/1, then min
    h = OperationTable.from_callable(
        ("a", "b"), B, 1, lambda x: "0" if x == "a" else "1"
    )
    omega = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MIN2))
    composed = compose_sampling_fpol(FiniteMeasure.point_mass(h), omega)
    (g,) = composed.output.support()
    assert g.in_domain == ("a", "b") and g.apply(("a", "b")) == "0"


def test_compose_preserves_validity():
    # a found polymorphism composed with a found homomorphism stays valid
    rng = random.Random(41)
    hits = 0
    while hits < 5:
        gamma1 = generators.random_structure(rng, allow_inf=False)
        gamma2 = generators.weaken_structure(rng, gamma1)
        sample = generators.weaken_structure(rng, gamma1)
        chi = find_frachom_lp(sample, gamma1)
        omega = find_promise_fpol_lp(PromiseTemplate(gamma1, gamma2), 2)
        if chi == NONE_EXISTS or omega == NONE_EXISTS:
            continue
        hits += 1
        composed = compose_sampling_fpol(chi, omega)
        ok, _ = check_promise_fpol(
            composed, PromiseTemplate(sample, gamma2)
        )
        assert ok


# LP witness searches


def test_find_frachom_identity_pair():
    delta = unary_structure(F(1), F(2))
    chi = find_frachom_lp(delta, delta)
    assert chi != NONE_EXISTS
    ok, _ = check_fractional_homomorphism(chi, delta, delta)
    assert ok


def test_find_frachom_none_exists():
    delta = unary_structure(F(0), F(0))
    gamma = unary_structure(PLUS_INF, PLUS_INF)
    assert find_frachom_lp(delta, gamma) == NONE_EXISTS


def test_find_frachom_needs_mixing():
    # target charges whichever label the map picks, source charges 1/2:
    # only the even mixture of the two constant maps works
    delta = unary_structure(F(1, 2), F(1, 2))
    gamma = unary_structure(F(0), F(1))
    chi = find_frachom_lp(delta, gamma)
    assert chi != NONE_EXISTS
    ok, _ = check_fractional_homomorphism(chi, delta, gamma)
    assert ok


def test_find_frachom_verdicts_are_sound():
    rng = random.Random(47)
    pool = [F(0), F(1), F(1, 2), F(2), PLUS_INF]
    for _ in range(15):
        delta = generators.random_structure(rng)
        tables = {
            name: {
                t: rng.choice(pool)
                for t in itertools.product(delta.domain, repeat=arity)
            }
            for name, arity in delta.signature.symbols
        }
        gamma = ValuedStructure(delta.signature, delta.domain, tables)
        chi = find_frachom_lp(delta, gamma)
        if chi != NONE_EXISTS:
            ok, _ = check_fractional_homomorphism(chi, delta, gamma)
            assert ok


def test_find_fpol_submodular_pair():
    rng = random.Random(53)
    delta = generators.submodular_structure(rng)
    omega = find_promise_fpol_lp(PromiseTemplate(delta, delta), 2)
    assert omega != NONE_EXISTS
    ok, _ = check_promise_fpol(omega, PromiseTemplate(delta, delta))
    assert ok


def test_find_fpol_block_restricted():
    rng = random.Random(59)
    delta = generators.submodular_structure(rng)
    partition = BlockPartition.from_sizes([1, 1])
    omega = find_promise_fpol_lp(
        PromiseTemplate(delta, delta), 2, partition=partition
    )
    if omega != NONE_EXISTS:
        ok, _ = check_promise_fpol(omega, PromiseTemplate(delta, delta))
        assert ok


def test_find_fpol_none_when_target_overcharges():
    delta = unary_structure(F(0), F(0))
    gamma = unary_structure(F(1), F(1))
    template = PromiseTemplate(delta, gamma)
    assert find_promise_fpol_lp(template, 2) == NONE_EXISTS


def test_find_fpol_projections_cover_crisp_templates():
    # for a crisp self-template any projection satisfies the inequalities
    delta = generators.xor_structure()
    omega = find_promise_fpol_lp(PromiseTemplate(delta, delta), 2, cap=10**8)
    assert omega != NONE_EXISTS


def shift_symbol(structure, symbol, c):
    """Every cost of one symbol moved by c (+inf stays +inf)."""
    tables = {}
    for name in structure.signature.names():
        shift = c if name == symbol else 0
        tables[name] = {t: v + shift for t, v in structure.table(name).items()}
    return ValuedStructure(structure.signature, structure.domain, tables)


SHIFT_SEARCHES = (
    lambda tpl: find_promise_fpol_lp(tpl, 2, partition=BlockPartition.from_sizes([2])),
    lambda tpl: find_promise_fpol_lp(tpl, 2),
    lambda tpl: find_frachom_lp(tpl.delta, tpl.gamma),
)


def valid_on(result, template):
    if isinstance(result, PromiseFpol):
        return check_promise_fpol(result, template)[0]
    return check_fractional_homomorphism(result, template.delta, template.gamma)[0]


def test_witness_search_invariant_under_cost_shift():
    # Shifting one symbol's Delta and Gamma costs by c moves both sides of
    # each of its constraints by c, the weights summing to 1, so the
    # searches' verdicts agree, and a measure valid on one template is
    # valid on the other.  A negative c makes negative right-hand sides:
    # rows whose slack is -1 once flipped and that still need an artificial.
    rng = random.Random(61)
    pool = [F(0), F(1, 2), F(1), F(2), PLUS_INF]
    found = {True: 0, False: 0}
    negative = 0
    for _ in range(40):
        delta = generators.random_structure(rng)
        if rng.random() < 0.5:
            gamma = generators.weaken_structure(rng, delta)
        else:
            tables = {
                name: {
                    t: rng.choice(pool)
                    for t in itertools.product(delta.domain, repeat=arity)
                }
                for name, arity in delta.signature.symbols
            }
            gamma = ValuedStructure(delta.signature, delta.domain, tables)
        symbol = rng.choice(delta.signature.names())
        c = F(-rng.randint(1, 6), rng.choice([1, 2, 3]))
        shifted = PromiseTemplate(
            shift_symbol(delta, symbol, c), shift_symbol(gamma, symbol, c)
        )
        templates = [PromiseTemplate(delta, gamma), shifted]
        negative += any(v < 0 for v in shifted.delta.table(symbol).values())
        for search in SHIFT_SEARCHES:
            results = [search(tpl) for tpl in templates]
            none = [r == NONE_EXISTS for r in results]
            assert none[0] == none[1]
            found[none[0]] += 1
            for r in results:
                if r != NONE_EXISTS:
                    assert valid_on(r, templates[0]) and valid_on(r, templates[1])
    assert min(found.values()) >= 10 and negative >= 30


def test_domain3_search_pivots_in_a_feasible_point_mass(monkeypatch):
    # the unrestricted m = 2 search on a domain-3 template builds an LP of
    # thousands of candidate columns; some candidate's point mass is
    # feasible on its own, so a crash pivot on the normalisation row ends
    # phase 1 (a blind Dantzig start took 990 pivots and about a minute)
    rng = random.Random(1008)
    delta = generators.random_structure(rng, domain_size=3)
    template = PromiseTemplate(delta, generators.weaken_structure(rng, delta))
    pivots = counting_pivots(monkeypatch)
    result = find_promise_fpol_lp(template, 2)
    assert result != NONE_EXISTS and check_promise_fpol(result, template)[0]
    assert len(pivots) <= 3


def drawn_structure(rng, delta, pool):
    """A structure on Delta's signature and domain with costs drawn from pool."""
    tables = {
        name: {t: rng.choice(pool) for t in itertools.product(delta.domain, repeat=arity)}
        for name, arity in delta.signature.symbols
    }
    return ValuedStructure(delta.signature, delta.domain, tables)


def reference_template(rng, domain_size, allow_inf, n_symbols=2):
    """A random Delta with a Gamma either weakened from it or drawn afresh
    from a pool with +inf, so both verdicts occur."""
    delta = generators.random_structure(rng, domain_size, n_symbols, allow_inf=allow_inf)
    if rng.random() < 0.5:
        return PromiseTemplate(delta, generators.weaken_structure(rng, delta))
    gamma = drawn_structure(rng, delta, [F(0), F(1, 2), F(1), F(2), PLUS_INF])
    return PromiseTemplate(delta, gamma)


# (arity m, block sizes, domain size, symbols): m None is frachom, sizes
# None the unrestricted search
REFERENCE_SHAPES = (
    (2, (2,), 2, 2), (2, (1, 1), 2, 2), (3, (3,), 2, 2), (3, (2, 1), 2, 2),
    (2, None, 2, 2), (None, None, 2, 2), (2, (2,), 3, 1),
)


def search_and_reference(template, m, sizes):
    """The element search's result for one shape (m None: frachom; sizes
    None: unrestricted), its partition, and the table reference's result."""
    if m is None:
        partition = BlockPartition(((0,),))
        found = find_frachom_lp(template.delta, template.gamma)
    else:
        partition = BlockPartition.from_sizes(sizes or (1,) * m)
        found = find_promise_fpol_lp(template, m, partition=partition if sizes else None)
    return found, partition, table_reference_search(template, partition)[0]


def test_element_search_matches_table_reference():
    # The element-level search merges rows with one key and never builds a
    # losing table; the full-table search with one row per constraint must
    # reach the same verdict, and every measure found must be valid.
    rng = random.Random(67)
    verdicts = {True: 0, False: 0}
    for case in range(210):
        m, sizes, d, symbols = REFERENCE_SHAPES[case % len(REFERENCE_SHAPES)]
        template = reference_template(rng, d, rng.random() < 0.5, symbols)
        found, partition, expected = search_and_reference(template, m, sizes)
        none = found == NONE_EXISTS
        assert none == (expected == NONE_EXISTS), (case, m, sizes, d)
        verdicts[none] += 1
        if none:
            continue
        if m is None:
            assert check_fractional_homomorphism(
                found, template.delta, template.gamma
            )[0]
        else:
            assert check_promise_fpol(found, template)[0]
            for g in found.output.support():
                assert check_block_symmetry(g, partition)
    assert min(verdicts.values()) >= 30


def test_search_with_no_finite_delta_cost_returns_a_measure(monkeypatch):
    # every Delta cost +inf: no constraint has a finite rhs, so the LP is
    # the normalisation row alone, every candidate a witness; the search
    # returns the reference's point mass on the first table
    rng = random.Random(89)
    lps = capture_lps(monkeypatch)
    for m, sizes, d, symbols in REFERENCE_SHAPES:
        delta = generators.random_structure(rng, d, symbols)
        delta = drawn_structure(rng, delta, [PLUS_INF])
        gamma = drawn_structure(rng, delta, [F(0), F(1, 2), F(2), PLUS_INF])
        template = PromiseTemplate(delta, gamma)
        lps.clear()
        found, _, expected = search_and_reference(template, m, sizes)
        assert found != NONE_EXISTS and valid_on(found, template)
        assert (found if m is None else found.output) == expected
        assert len(lps[0].rows) == 1 == len(lps[-1].rows)


def test_search_matches_reference_on_gamma_denominators_2_and_3():
    # Gamma's costs over 2, 3 and 6 against Delta's over 2 and 3: Gamma's
    # lcm and Delta's scale both enter every row
    rng = random.Random(97)
    pool = [F(0), F(1, 2), F(1, 3), F(2, 3), F(5, 6), F(1), F(4, 3), PLUS_INF]
    verdicts = {True: 0, False: 0}
    for case in range(70):
        m, sizes, d, symbols = REFERENCE_SHAPES[case % len(REFERENCE_SHAPES)]
        delta = drawn_structure(rng, generators.random_structure(rng, d, symbols), pool)
        template = PromiseTemplate(delta, drawn_structure(rng, delta, pool))
        found, _, expected = search_and_reference(template, m, sizes)
        assert (found == NONE_EXISTS) == (expected == NONE_EXISTS), case
        verdicts[found == NONE_EXISTS] += 1
        assert found == NONE_EXISTS or valid_on(found, template)
    assert min(verdicts.values()) >= 15


def test_search_matches_reference_on_negative_delta_costs(monkeypatch):
    # negative Delta costs give rows with rhs < 0: the tableau flips them,
    # their slack is then -1, and phase 1 starts them from an artificial
    rng = random.Random(101)
    pool = [F(-2), F(-1), F(-1, 2), F(-1, 3), F(0), F(1, 2), PLUS_INF]
    lps = capture_lps(monkeypatch)
    pivots = counting_pivots(monkeypatch)
    verdicts = {True: 0, False: 0}
    negative = 0
    shapes = [shape for shape in REFERENCE_SHAPES if shape[2] == 2]  # domain 3: slow
    for case in range(72):
        m, sizes, d, symbols = shapes[case % len(shapes)]
        delta = drawn_structure(rng, generators.random_structure(rng, d, symbols), pool)
        if case % 2:
            gamma = generators.weaken_structure(rng, delta)
        else:
            gamma = drawn_structure(rng, delta, pool)
        template = PromiseTemplate(delta, gamma)
        lps.clear()
        found, _, expected = search_and_reference(template, m, sizes)
        assert (found == NONE_EXISTS) == (expected == NONE_EXISTS), case
        verdicts[found == NONE_EXISTS] += 1
        assert found == NONE_EXISTS or valid_on(found, template)
        # lps[0] is the element search's LP.  A flipped row's artificial
        # starts positive, so on a feasible LP it leaves the basis
        if found != NONE_EXISTS and min(lps[0].rhs) < 0:
            negative += 1
            pivots.clear()
            exactlp.WarmLP(lps[0])
            assert any(p.leave >= lps[0].n for p in pivots), case
    assert min(verdicts.values()) >= 20 and negative >= 30


# (domain size, block sizes) of the two-path equivalence check
EQUIVALENCE_SHAPES = (
    (2, (2,)), (2, (1, 1)), (2, (3,)), (2, (2, 1)), (2, (1, 1, 1)), (3, (2,)),
)


def test_fpol_search_agrees_with_frachom_from_multiset_structure():
    # A block-symmetric promise polymorphism of (Delta, Gamma) exists iff a
    # fractional homomorphism from the block-multiset structure of Delta to
    # Gamma does, and a homomorphism maps back to a valid polymorphism.
    rng = random.Random(83)
    verdicts = {True: 0, False: 0}
    for case in range(60):
        d, sizes = EQUIVALENCE_SHAPES[case % len(EQUIVALENCE_SHAPES)]
        template = reference_template(rng, d, rng.random() < 0.5)
        partition = BlockPartition.from_sizes(sizes)
        omega = find_promise_fpol_lp(template, partition.arity, partition=partition)
        structure = block_multiset_structure(template.delta, partition)
        chi = find_frachom_lp(structure, template.gamma)
        none = chi == NONE_EXISTS
        assert (omega == NONE_EXISTS) == none, (case, d, sizes)
        verdicts[none] += 1
        if none:
            continue
        back = fpol_from_frachom(chi, partition, template.delta.domain)
        assert check_promise_fpol(back, template)[0]
        for g in back.output.support():
            assert check_block_symmetry(g, partition)
    assert min(verdicts.values()) >= 10


def count_from_map(monkeypatch):
    calls = []
    original = OperationTable.from_map.__func__

    def counting(cls, *args):
        calls.append(args)
        return original(cls, *args)

    monkeypatch.setattr(OperationTable, "from_map", classmethod(counting))
    return calls


def test_search_builds_tables_only_for_the_support(monkeypatch):
    rng = random.Random(73)
    outcomes = set()
    for _ in range(30):
        template = reference_template(rng, 2, allow_inf=True)
        for m, partition in ((3, None), (3, BlockPartition.from_sizes([3]))):
            calls = count_from_map(monkeypatch)
            found = find_promise_fpol_lp(template, m, partition=partition)
            monkeypatch.undo()
            if found == NONE_EXISTS:
                assert calls == []
            else:
                assert 1 <= len(calls) <= len(found.output.support())
            outcomes.add(found == NONE_EXISTS)
    assert outcomes == {True, False}


def capture_lps(monkeypatch):
    lps = []
    original = exactlp.solve_lp

    def capturing(lp, *args, **kwargs):
        lps.append(lp)
        return original(lp, *args, **kwargs)

    monkeypatch.setattr(exactlp, "solve_lp", capturing)
    return lps


def test_search_merges_rows_by_element_tuple(monkeypatch):
    rng = random.Random(79)
    lps = capture_lps(monkeypatch)
    for _ in range(10):
        # one binary symbol on domain 2: [3] has 4 elements, so at most 4^2
        # element tuples, plus the normalisation row
        delta = generators.random_structure(rng, n_symbols=1, allow_inf=False)
        while delta.signature.symbols[0][1] != 2:
            delta = generators.random_structure(rng, n_symbols=1, allow_inf=False)
        template = PromiseTemplate(delta, generators.weaken_structure(rng, delta))
        lps.clear()
        partition = BlockPartition.from_sizes([3])
        find_promise_fpol_lp(template, 3, partition=partition)
        (lp,) = lps
        assert len(lp.rows) <= 1 + 4**2 < 1 + 2**6
        # one row per finite entry of the block-multiset structure
        structure = block_multiset_structure(delta, partition)
        finite = sum(
            v is not PLUS_INF
            for name in structure.signature.names()
            for v in structure.table(name).values()
        )
        assert len(lp.rows) == 1 + finite
        # singleton blocks: no two constraints share an element tuple
        lps.clear()
        assert find_promise_fpol_lp(template, 2) != NONE_EXISTS
        _, reference_rows = table_reference_search(
            template, BlockPartition(((0,), (1,)))
        )
        assert len(lps[0].rows) == reference_rows == 1 + 2**4


def test_uniform_input_shares_weights():
    first = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MIN2))
    second = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MAX2))
    assert first.input_weights is second.input_weights
    assert sum(first.input_weights) == 1 and first.input_weights == (F(1, 2),) * 2
    third = PromiseFpol.uniform_input(FiniteMeasure.point_mass(IDENTITY))
    assert third.input_weights == (F(1),)


def test_uniform_input_is_one_object_per_measure():
    # like measures and tables, a kept search result is shared by every
    # search that returns it; a dropped one is released
    first = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MIN2))
    assert PromiseFpol.uniform_input(FiniteMeasure.point_mass(MIN2)) is first
    assert first == PromiseFpol((F(1, 2), F(1, 2)), first.output)
    other = PromiseFpol.uniform_input(FiniteMeasure.point_mass(MAX2))
    assert other is not first and other != first
    released = weakref.ref(other)
    del other
    gc.collect()
    assert released() is None


def test_find_fpol_needs_positive_arity():
    xor = generators.xor_structure()
    template = PromiseTemplate(xor, xor)
    for m in (0, -1):
        with pytest.raises(PreconditionViolated):
            find_promise_fpol_lp(template, m)


def test_find_fpol_cap():
    delta = generators.xor_structure()
    with pytest.raises(ResourceGuard):
        find_promise_fpol_lp(PromiseTemplate(delta, delta), 3, cap=100)


def test_search_guard_counts_the_enumerated_work():
    # [6] over xor visits 7 * (2 * 2^6 + 2 * 2^12) tuples, then reads 2^7
    # candidates over at most 2 * 7^2 + 2 * 7^3 rows: far under the cap
    xor = generators.xor_structure()
    partition = BlockPartition.from_sizes([6])
    tuples, rows = theory._element_costs_size(xor, partition, theory.DEFAULT_CAP)
    assert (tuples, rows) == (58_240, 784)
    assert len(theory._element_costs(xor, partition)[1]) <= rows
    template = PromiseTemplate(xor, xor)
    assert find_promise_fpol_lp(template, 6, partition=partition) == NONE_EXISTS


def test_work_counts_stop_past_the_cap():
    # a block of 10^6 over xor visits about 2^(10^6) tuples; the counts are
    # exact up to the cap and past it some count over the cap, a few times
    # its bit length long, and the refusals say so in a short message
    cap = 10**7
    xor = generators.xor_structure()
    assert theory._capped_power(2, 20, cap) == 2**20
    assert theory._capped_power(2, 10**6, cap) == 2 ** (cap.bit_length() + 1) > cap
    assert theory._capped_power(1, 10**6, cap) == 1
    big = BlockPartition.from_sizes([10**6])
    for count in theory._element_costs_size(xor, big, cap):
        assert cap < count and count.bit_length() < 4 * cap.bit_length()
    with pytest.raises(ResourceGuard, match="at least .* tuples over cap") as caught:
        block_multiset_structure(xor, big, cap)
    assert len(str(caught.value)) < 100
    # m = 15000 has 2^15000 elements, an int of 4,516 digits
    with pytest.raises(ResourceGuard, match="at least .* tables exceed cap") as caught:
        find_promise_fpol_lp(PromiseTemplate(xor, xor), 15000)
    assert len(str(caught.value)) < 100


def test_cap_guards_refuse_before_enumerating(monkeypatch):
    # both guards count the elements and the tuples from the partition
    # alone; m = 40 has 41 multisets, 2^40 unrestricted elements
    def enumerated(*args):
        raise AssertionError("enumerated the block-multiset domain")

    monkeypatch.setattr(theory, "block_multiset_domain", enumerated)
    delta = generators.xor_structure()
    with pytest.raises(ResourceGuard):
        block_multiset_structure(delta, BlockPartition.from_sizes([40]))
    with pytest.raises(ResourceGuard):
        find_promise_fpol_lp(PromiseTemplate(delta, delta), 40)

