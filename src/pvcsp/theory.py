"""Fractional homomorphisms, promise fractional polymorphisms, block
symmetry, multiset structures, the constructive lifts between them, and
LP-based witness searches.

A fractional homomorphism Delta -> Gamma is the unary promise fractional
polymorphism with input weight 1, and an unrestricted m-ary search is the
block-symmetric one over m singleton blocks; so there is one polymorphism
check and one polymorphism search, and the homomorphism ones run them.
The search works on block-multiset elements: a candidate is its tuple of
outputs, one per element, constraints with the same element tuple share
one LP row with the least rhs, and tables are built only for the support.
Those rows are the finite entries of the block-multiset structure, and one
helper, `_element_costs`, computes the least costs for both, as ints over
one scale.  The search is in ints from the cost tables to the tableau, and
makes Fractions only for the weights of the measure it finds.

Every checker is a full exhaustive enumeration guarded by a hard cap;
exactness over scale.  Measures collapse equal tables by summing weights,
so measure equality is table-wise comparison.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import exactlp
from .core import (
    DEFAULT_CAP,
    FiniteMeasure,
    OperationTable,
    PromiseTemplate,
    ValuedStructure,
    tuple_to_multiset,
)
from .errors import DomainMismatch, PreconditionViolated, ResourceGuard
from .values import PLUS_INF, ExtRat, int_scaled

NONE_EXISTS = "none-exists"


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty index blocks covering range(m) (0-based)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("partition has no blocks")
        if not all(self.blocks):
            raise ValueError("empty block")
        seen = sorted(itertools.chain.from_iterable(self.blocks))
        if seen != list(range(len(seen))):
            raise ValueError("blocks must partition range(m) exactly")

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BlockPartition":
        ends = itertools.accumulate(sizes)
        return cls(tuple(tuple(range(e - s, e)) for s, e in zip(sizes, ends)))

    @property
    def arity(self) -> int:
        return sum(len(b) for b in self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


# one live PromiseFpol with uniform input weights per output measure, so
# the results that callers keep share them, as they share measures and tables
_UNIFORM: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class PromiseFpol:
    """A pair (input projection weights, output operation measure)."""

    __slots__ = ("input_weights", "output", "__weakref__")
    input_weights: tuple[Fraction, ...]
    output: FiniteMeasure

    def __post_init__(self):
        if any(w < 0 for w in self.input_weights):
            raise ValueError("input weights must be nonnegative")
        if sum(self.input_weights) != 1:
            raise ValueError("input weights must sum to 1")
        for g, _ in self.output:
            if g.arity != len(self.input_weights):
                raise ValueError("output arity differs from input weight count")

    @property
    def arity(self) -> int:
        return len(self.input_weights)

    @classmethod
    def uniform_input(cls, output: FiniteMeasure) -> "PromiseFpol":
        fpol = _UNIFORM.get(output)
        if fpol is None:
            weights = _uniform_weights(output.support()[0].arity)
            fpol = _UNIFORM[output] = cls(weights, output)
        return fpol


@functools.cache
def _uniform_weights(m: int) -> tuple[Fraction, ...]:
    """One shared weight tuple per arity: Fractions are immutable."""
    return (Fraction(1, m),) * m


FractionalHomomorphism = FiniteMeasure  # arity-1 operation tables


def _expected_cost(
    structure: ValuedStructure,
    symbol: str,
    images: list[tuple[tuple[str, ...], Fraction]],
) -> ExtRat:
    """Sum of weight * cost over image tuples; +inf if any summand is."""
    total: ExtRat = Fraction(0)
    for args, w in images:
        cost = structure.cost(symbol, args)
        total = total + (cost if cost is PLUS_INF else w * cost)
    return total


def check_fractional_homomorphism(
    chi: FractionalHomomorphism,
    delta: ValuedStructure,
    gamma: ValuedStructure,
) -> tuple[bool, Optional[tuple[str, tuple[str, ...]]]]:
    """Expected Gamma-cost of each image tuple at most the Delta-cost,
    for every symbol and tuple; returns the first violator if any.  This is
    the polymorphism check of the unary measure with input weight 1."""
    if delta.signature != gamma.signature:
        raise DomainMismatch("structures must share a signature")
    for h in chi.support():
        if h.arity != 1:
            raise DomainMismatch("fractional homomorphism maps are unary")
        if h.in_domain != delta.domain or h.out_domain != gamma.domain:
            raise DomainMismatch("map domains do not match the structures")
    violator = _violator(PromiseFpol((Fraction(1),), chi), delta, gamma)
    if violator is None:
        return True, None
    symbol, (a,) = violator
    return False, (symbol, a)


def check_promise_fpol(
    omega: PromiseFpol,
    template: PromiseTemplate,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, Optional[tuple[str, tuple]]]:
    """Full enumeration of the polymorphism inequality over all m-tuples of
    argument tuples; first violator reported."""
    delta, gamma = template.delta, template.gamma
    m = omega.arity
    for g, _ in omega.output:
        if g.in_domain != delta.domain or g.out_domain != gamma.domain:
            raise DomainMismatch("operation domains do not match the template")
    work = sum(
        len(delta.domain) ** (arity * m) for _, arity in delta.signature.symbols
    ) * max(1, len(omega.output.support()))
    if work > cap:
        raise ResourceGuard(f"{work} inequality evaluations exceed cap {cap}")
    violator = _violator(omega, delta, gamma)
    return violator is None, violator


def _violator(
    omega: PromiseFpol, delta: ValuedStructure, gamma: ValuedStructure
) -> Optional[tuple[str, tuple]]:
    """The first (symbol, m argument tuples) where the expected Gamma-cost
    of the images exceeds the input-weighted Delta-cost, or None."""
    m = omega.arity
    for symbol, arity in delta.signature.symbols:
        for tuples in itertools.product(
            itertools.product(delta.domain, repeat=arity), repeat=m
        ):
            # g is applied at each position's m-tuple of arguments
            images = [
                (tuple(g.apply(col) for col in zip(*tuples)), w)
                for g, w in omega.output
            ]
            inputs = [
                (t, w) for t, w in zip(tuples, omega.input_weights) if w != 0
            ]
            lhs = _expected_cost(gamma, symbol, images)
            if not lhs <= _expected_cost(delta, symbol, inputs):
                return symbol, tuples
    return None


def check_block_symmetry(g: OperationTable, partition: BlockPartition) -> bool:
    """Invariance under within-block transpositions (they generate the
    block-wise symmetric group)."""
    if partition.arity != g.arity:
        raise DomainMismatch("partition arity differs from operation arity")
    table = g.as_dict()
    for block in partition.blocks:
        for i, j in itertools.combinations(block, 2):
            for args in itertools.product(g.in_domain, repeat=g.arity):
                swapped = list(args)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if table[args] != table[tuple(swapped)]:
                    return False
    return True


def symmetrize_input_weights(
    omega: PromiseFpol, partition: BlockPartition
) -> PromiseFpol:
    """Replace the input weights by the uniform ones; valid whenever the
    polymorphism is block-symmetric with block sums |B_j|/m."""
    m = omega.arity
    if partition.arity != m:
        raise PreconditionViolated("partition arity differs from omega arity")
    for g in omega.output.support():
        if not check_block_symmetry(g, partition):
            raise PreconditionViolated("support table is not block-symmetric")
    for block in partition.blocks:
        if sum(omega.input_weights[i] for i in block) != Fraction(len(block), m):
            raise PreconditionViolated(
                "input weight block sums must equal |B|/m"
            )
    return PromiseFpol.uniform_input(omega.output)


def _element_count(domain_size: int, partition: BlockPartition) -> int:
    """The number of block-multiset elements, without listing them."""
    return math.prod(
        math.comb(domain_size + len(b) - 1, len(b)) for b in partition.blocks
    )


def block_multiset_domain(
    domain: Sequence[str], partition: BlockPartition
) -> list[tuple[tuple[str, ...], ...]]:
    """Elements of the multiset structure: one multiset per block, a tuple
    in domain order, in the deterministic product order."""
    per_block = [
        itertools.combinations_with_replacement(tuple(domain), len(b))
        for b in partition.blocks
    ]
    return list(itertools.product(*per_block))


def render_multiset_element(element: tuple[tuple[str, ...], ...]) -> str:
    return "|".join(",".join(ms) for ms in element)


def _labels(elements: list[tuple[tuple[str, ...], ...]]) -> tuple[str, ...]:
    """The rendered labels of the elements; DomainMismatch when two collide,
    as domain labels holding ',' or '|' can make them."""
    labels = tuple(map(render_multiset_element, elements))
    if len(set(labels)) != len(labels):
        raise DomainMismatch("multiset labels collide; relabel the domain")
    return labels


def _canonical(
    element: tuple[tuple[str, ...], ...], partition: BlockPartition
) -> tuple[str, ...]:
    """The tuple in D^m that lists each block's multiset in order."""
    t = [""] * partition.arity
    for block, ms in zip(partition.blocks, element):
        for pos, val in zip(block, ms):
            t[pos] = val
    return tuple(t)


def _element_index(
    domain: Sequence[str], partition: BlockPartition
) -> tuple[list[tuple[tuple[str, ...], ...]], dict[tuple[str, ...], int]]:
    """The block-multiset elements, and for each tuple in D^m the index of
    the element it realises: its restriction to each block as a multiset."""
    elements = block_multiset_domain(domain, partition)
    index = {e: i for i, e in enumerate(elements)}
    element_of = {
        a: index[
            tuple(
                tuple_to_multiset([a[i] for i in block], domain)
                for block in partition.blocks
            )
        ]
        for a in itertools.product(domain, repeat=partition.arity)
    }
    return elements, element_of


def _capped_power(base: int, exp: int, cap: int) -> int:
    """base ** exp, with exp clamped to cap's bit length plus one: past it
    a power of base >= 2 is over cap anyway, so a guard against cap reads
    it right, and no int much longer than cap is built or printed."""
    return base ** min(exp, cap.bit_length() + 1)


def _element_costs_size(
    delta: ValuedStructure, partition: BlockPartition, cap: int
) -> tuple[int, int]:
    """The argument tuples `_element_costs` visits (per symbol, one first
    tuple per element times |D|^m per other position) and the most keys it
    returns (per symbol, |E|^arity), counted without listing any: exact
    while at most cap, and past it some count over cap."""
    m, d = partition.arity, len(delta.domain)
    count = min(_element_count(d, partition), cap + 1)
    arities = [arity for _, arity in delta.signature.symbols]
    tuples = sum(count * _capped_power(d, m * (a - 1), cap) for a in arities)
    return tuples, sum(_capped_power(count, a, cap) for a in arities)


def _element_costs(
    delta: ValuedStructure, partition: BlockPartition
) -> tuple[dict[tuple[str, ...], int], dict[tuple[str, tuple[int, ...]], int], int]:
    """The element index of each tuple in D^m, for each (symbol, element
    index of each argument position) the least Delta-cost sum of the m
    argument tuples that realise it, and the scale those int sums are over:
    Delta's finite costs are scaled once, by `int_scaled`.  A key whose
    every realisation costs +inf is left out.  Over m these sums are the
    finite costs of the block-multiset structure.

    The first position ranges over one canonical tuple per element: a
    block-preserving permutation of the m coordinates, applied at every
    position at once, keeps each position's element and the sum, and takes
    any realisation of the first element to its canonical tuple.
    """
    m = partition.arity
    elements, element_of = _element_index(delta.domain, partition)
    firsts = [_canonical(e, partition) for e in elements]
    tables = [delta.table(symbol).items() for symbol in delta.signature.names()]
    ints, scale = int_scaled([c for t in tables for _, c in t if c is not PLUS_INF])
    # +inf reads as inf, so a sum of m costs is over top iff one is +inf
    top = m * max(ints, default=0)
    inf = top - (m - 1) * min(ints, default=0) + 1
    scaled = iter(ints)  # in table order
    sums: dict[tuple[str, tuple[int, ...]], int] = {}
    for (symbol, arity), table in zip(delta.signature.symbols, tables):
        cost = {t: inf if c is PLUS_INF else next(scaled) for t, c in table}.__getitem__
        for i, first in enumerate(firsts):
            for rest in itertools.product(element_of, repeat=arity - 1):
                total = sum(map(cost, zip(first, *rest)))
                if total <= top:
                    key = (symbol, (i, *map(element_of.__getitem__, rest)))
                    sums[key] = min(sums.get(key, total), total)
    return element_of, sums, scale


def block_multiset_structure(
    delta: ValuedStructure,
    partition: BlockPartition,
    cap: int = DEFAULT_CAP,
) -> ValuedStructure:
    """The k-block multiset structure: costs are minimum averaged alignments
    of the base costs.  A single block of size m gives the symmetric power
    structure; blocks of sizes L+1, L give the bimultiset structure."""
    m = partition.arity
    # the tuples _element_costs visits, and the table entries
    work = sum(_element_costs_size(delta, partition, cap))
    if work > cap:
        raise ResourceGuard(f"multiset structure: at least {work} tuples over cap {cap}")
    labels = _labels(block_multiset_domain(delta.domain, partition))
    _, sums, scale = _element_costs(delta, partition)
    tables = {symbol: {} for symbol in delta.signature.names()}
    for symbol, arity in delta.signature.symbols:
        for key in itertools.product(range(len(labels)), repeat=arity):
            total = sums.get((symbol, key))
            cost = PLUS_INF if total is None else Fraction(total, scale * m)
            tables[symbol][tuple([labels[i] for i in key])] = cost
    return ValuedStructure(delta.signature, labels, tables)


def lift_fpol_to_frachom(
    omega: PromiseFpol,
    partition: BlockPartition,
    template: PromiseTemplate,
) -> FractionalHomomorphism:
    """Turn a block-symmetric polymorphism into a fractional homomorphism
    from the multiset structure to Gamma: each operation collapses to the
    induced map on multiset tuples; weights accumulate on collapse."""
    delta, gamma = template.delta, template.gamma
    for g in omega.output.support():
        if not check_block_symmetry(g, partition):
            raise PreconditionViolated("support table is not block-symmetric")
    elements = block_multiset_domain(delta.domain, partition)
    labels = _labels(elements)
    pairs = []
    for g, w in omega.output:
        mapping = {
            (lab,): g.apply(_canonical(e, partition))
            for lab, e in zip(labels, elements)
        }
        lifted = OperationTable.from_map(labels, gamma.domain, 1, mapping)
        pairs.append((lifted, w))
    return FiniteMeasure.from_pairs(pairs)


def fpol_from_frachom(
    chi: FractionalHomomorphism,
    partition: BlockPartition,
    base_domain: Sequence[str],
) -> PromiseFpol:
    """The converse lift: compose each multiset-level map with the
    tuple-to-multisets projection; input weights uniform."""
    base_domain = tuple(base_domain)
    m = partition.arity
    elements, element_of = _element_index(base_domain, partition)
    labels = _labels(elements)
    pairs = []
    for h, w in chi:
        if h.in_domain != labels:
            raise DomainMismatch(
                "chi's input domain is not the block-multiset domain"
            )
        outs = [h.apply((lab,)) for lab in labels]
        mapping = {a: outs[i] for a, i in element_of.items()}
        g = OperationTable.from_map(base_domain, h.out_domain, m, mapping)
        pairs.append((g, w))
    return PromiseFpol.uniform_input(FiniteMeasure.from_pairs(pairs))


def compose_sampling_fpol(
    chi: FractionalHomomorphism, omega: PromiseFpol
) -> PromiseFpol:
    """Compose a sample-to-Gamma1 homomorphism with a (Gamma1, Gamma2)
    polymorphism: the product measure on {g o h}, collapsed."""
    m = omega.arity
    pairs = []
    for h, wh in chi:
        for g, wg in omega.output:
            if h.out_domain != g.in_domain:
                raise DomainMismatch("chi codomain differs from omega domain")
            mapping = {
                args: g.apply(tuple(h.apply((x,)) for x in args))
                for args in itertools.product(h.in_domain, repeat=m)
            }
            composed = OperationTable.from_map(
                h.in_domain, g.out_domain, m, mapping
            )
            pairs.append((composed, wh * wg))
    return PromiseFpol.uniform_input(FiniteMeasure.from_pairs(pairs))


def _search(
    template: PromiseTemplate, partition: BlockPartition, cap: int
) -> Union[FiniteMeasure, str]:
    """The output measure of a uniform-input polymorphism whose support is
    block-symmetric over the partition, or NONE_EXISTS.

    A candidate is its tuple of outputs, one per block-multiset element, in
    lexicographic order (over singleton blocks: every table).  A constraint,
    m argument tuples of a symbol with a finite input-weighted Delta-cost as
    rhs, applies the operation at each position, so its image depends only
    on each position's element: one row per (symbol, element tuple) keeps
    the least rhs, the finite cost of that entry of the block-multiset
    structure.  A candidate with a +inf image is dropped, and equal columns
    are kept once, by their first candidate.

    The LP is in ints from the cost tables on: Delta's sums come as ints
    over its scale, and Gamma's distinct finite costs are scaled once by
    `int_scaled`, so row j holds Gamma's int times Delta's scale times m
    and its sum times Gamma's lcm as rhs, both over the row's gcd, and a
    slack of 1.  Tables, and weights as Fractions of the LP's witness, are
    built for its support only.
    """
    delta, gamma = template.delta, template.gamma
    q, size = len(gamma.domain), _element_count(len(delta.domain), partition)
    count = _capped_power(q, size, cap)  # q^size tables
    if count > cap:
        raise ResourceGuard(f"at least {count} block-symmetric tables exceed cap {cap}")
    # the tuples _element_costs visits, then each candidate reads its rows
    tuples, rows = _element_costs_size(delta, partition, cap)
    work = tuples + count * rows
    if work > cap:
        raise ResourceGuard(f"polymorphism search: at least {work} steps over cap {cap}")
    m = partition.arity
    element_of, sums, scale = _element_costs(delta, partition)
    ids: dict = {PLUS_INF: -1}  # +inf is -1, a finite cost its position
    outs = range(q)
    cost_ids = {}  # per symbol, read at the outputs a row's itemgetter takes
    for symbol, arity in delta.signature.symbols:
        table = gamma.table(symbol)
        cost_ids[symbol] = {
            (key[0] if arity == 1 else key): ids.setdefault(
                table[tuple(gamma.domain[b] for b in key)], len(ids) - 1
            )
            for key in itertools.product(outs, repeat=arity)
        }.__getitem__
    ints, lcm = int_scaled(list(ids)[1:])
    entry = [g * scale * m for g in ints]  # a row's entry by cost id
    # each row's cost ids over the candidates (count of them, under the
    # guard), last first, so that dict() keeps each column's first one
    back = functools.partial(itertools.product, outs[::-1], repeat=size)
    reads = [map(cost_ids[s], map(operator.itemgetter(*e), back())) for s, e in sums]
    columns = zip(*reads) if reads else itertools.repeat((), count)  # no rows
    first = dict(zip(columns, range(count - 1, -1, -1)))
    kept = sorted((i, column) for column, i in first.items() if -1 not in column)
    if not kept:
        return NONE_EXISTS
    index, columns = zip(*kept)
    n, k = len(index), len(sums)
    rows, rhs = [dict.fromkeys(range(n), 1)], [1]
    for j, (ids_j, total) in enumerate(zip(zip(*columns), sums.values()), n):
        # a row over the gcd of its ints keeps the tableau's ints small
        f = math.gcd(total * lcm, *map(entry.__getitem__, set(ids_j))) or 1
        reduced = [a // f for a in entry]
        rows.append({**exactlp.sparse_row(list(map(reduced.__getitem__, ids_j))), j: 1})
        rhs.append(total * lcm // f)
    del first, kept, columns
    res = exactlp.solve_lp(exactlp.LinearProgram(n + k, rows, rhs, [0] * (n + k)))
    if res.status != exactlp.OPTIMAL:
        return NONE_EXISTS
    d, basic = res.witness
    pairs = []
    for j in sorted(j for j in basic if j < n):
        # candidate i's outputs are the digits of i, base |Gamma|
        outputs = [index[j] // q**e % q for e in reversed(range(size))]
        mapping = {a: gamma.domain[outputs[e]] for a, e in element_of.items()}
        g = OperationTable.from_map(delta.domain, gamma.domain, m, mapping)
        pairs.append((g, Fraction(basic[j], d)))
    return FiniteMeasure.from_pairs(pairs)


def find_frachom_lp(
    delta: ValuedStructure,
    gamma: ValuedStructure,
    cap: int = DEFAULT_CAP,
) -> Union[FractionalHomomorphism, str]:
    """LP feasibility search over all unary maps; a valid measure or a
    correct non-existence verdict.  This is the unary polymorphism search."""
    return _search(PromiseTemplate(delta, gamma), BlockPartition(((0,),)), cap)


def find_promise_fpol_lp(
    template: PromiseTemplate,
    m: int,
    partition: Optional[BlockPartition] = None,
    cap: int = DEFAULT_CAP,
) -> Union[PromiseFpol, str]:
    """LP feasibility search over m-ary operations (optionally restricted to
    block-symmetric tables); input weights fixed uniform."""
    if m < 1:
        raise PreconditionViolated("a polymorphism needs arity m >= 1")
    if partition is None:
        partition = BlockPartition(tuple((i,) for i in range(m)))
    elif partition.arity != m:
        raise DomainMismatch("partition arity differs from m")
    output = _search(template, partition, cap)
    if output == NONE_EXISTS:
        return NONE_EXISTS
    return PromiseFpol.uniform_input(output)

