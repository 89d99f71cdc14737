"""Valued structures, instances, measures, operation tables, and the
brute-force oracles everything else is tested against.

All domains are finite and all arithmetic is exact; +inf is a tag, never a
sentinel number.  Structures are immutable after construction.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    DomainMismatch,
    ResourceGuard,
    UnassignedVariable,
    UnknownSymbol,
)
from .values import PLUS_INF, ExtRat

YES = "yes"
NO = "no"
GAP = "gap"

# the most steps an exhaustive enumeration may take
DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) function symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in signature")
        for name, arity in self.symbols:
            if arity < 1:
                raise ValueError(f"symbol {name} has arity {arity} < 1")

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise UnknownSymbol(f"symbol {name!r} not in signature")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


class ValuedStructure:
    """Finite domain plus one total cost table per symbol.

    The domain order is fixed at construction and drives every downstream
    tuple enumeration, so identical inputs always produce identical column
    orderings in the relaxations.
    """

    def __init__(
        self,
        signature: Signature,
        domain: Sequence[str],
        tables: Mapping[str, Mapping[tuple[str, ...], ExtRat]],
    ):
        domain = tuple(domain)
        if not domain:
            raise ValueError("domain must be nonempty")
        if len(set(domain)) != len(domain):
            raise ValueError("domain labels must be distinct")
        self.signature = signature
        self.domain = domain
        self._tables: dict[str, dict[tuple[str, ...], ExtRat]] = {}
        for name, arity in signature.symbols:
            if name not in tables:
                raise ValueError(f"missing table for symbol {name}")
            table = dict(tables[name])
            for t in itertools.product(domain, repeat=arity):
                if t not in table:
                    raise ValueError(f"table for {name} not total: missing {t}")
            for t, v in table.items():
                if len(t) != arity:
                    raise ArityMismatch(f"tuple {t} in table for {name}/{arity}")
                if not (v is PLUS_INF or isinstance(v, Fraction)):
                    raise ValueError(f"table entry for {name}{t} is not ExtRat")
            self._tables[name] = table

    def cost(self, symbol: str, args: tuple[str, ...]) -> ExtRat:
        if symbol not in self._tables:
            raise UnknownSymbol(f"symbol {symbol!r} not in structure")
        table = self._tables[symbol]
        if args not in table:
            raise DomainMismatch(f"tuple {args} outside domain of structure")
        return table[args]

    def table(self, symbol: str) -> Mapping[tuple[str, ...], ExtRat]:
        return self._tables[symbol]


@dataclass(frozen=True, slots=True)
class Term:
    symbol: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    """A VCSP instance: variables, a sum of terms, and a threshold."""

    variables: tuple[str, ...]
    terms: tuple[Term, ...]
    threshold: Fraction

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("instance variables must be distinct")


@dataclass(frozen=True)
class PromiseTemplate:
    """A (Delta, Gamma) pair over a common signature.

    The fractional-homomorphism promise is not checked here; solver
    guarantees hold only for genuine templates (see theory.find_frachom_lp).
    """

    delta: ValuedStructure
    gamma: ValuedStructure

    def __post_init__(self):
        if self.delta.signature != self.gamma.signature:
            raise DomainMismatch("template structures must share a signature")


# every live table built by OperationTable.from_map, by value: equal tables
# are one object, so the measures that witness searches return share their
# few distinct tables (and each table's lookup dict) instead of each holding
# copies
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class OperationTable:
    """A total map from in_domain^arity to out_domain, stored explicitly."""

    in_domain: tuple[str, ...]
    out_domain: tuple[str, ...]
    arity: int
    entries: tuple[tuple[tuple[str, ...], str], ...]

    @classmethod
    def from_map(cls, in_domain, out_domain, arity, mapping) -> "OperationTable":
        in_domain = tuple(in_domain)
        out_domain = tuple(out_domain)
        entries = []
        for args in itertools.product(in_domain, repeat=arity):
            if args not in mapping:
                raise ValueError(f"operation table not total: missing {args}")
            out = mapping[args]
            if out not in out_domain:
                raise DomainMismatch(f"output {out!r} outside codomain")
            entries.append((args, out))
        table = cls(in_domain, out_domain, arity, tuple(entries))
        key = (cls, in_domain, out_domain, arity, table.entries)
        return _TABLES.setdefault(key, table)

    @classmethod
    def from_callable(cls, in_domain, out_domain, arity, fn) -> "OperationTable":
        mapping = {
            args: fn(*args)
            for args in itertools.product(tuple(in_domain), repeat=arity)
        }
        return cls.from_map(in_domain, out_domain, arity, mapping)

    def apply(self, args: tuple[str, ...]) -> str:
        return self.as_dict()[args]

    def as_dict(self) -> dict[tuple[str, ...], str]:
        cached = getattr(self, "_dict", None)
        if cached is None:
            cached = dict(self.entries)
            object.__setattr__(self, "_dict", cached)
        return cached


# every live measure built by FiniteMeasure.from_pairs, by its weights:
# witness searches over small domains return few distinct measures, so the
# measures that callers keep share them, as they share tables
_MEASURES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported probability measure with positive rational weights."""

    __slots__ = ("weights", "__weakref__")
    weights: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        elements = [e for e, _ in self.weights]
        if len(set(elements)) != len(elements):
            raise ValueError("measure support elements must be distinct")
        total = Fraction(0)
        for _, w in self.weights:
            if not isinstance(w, Fraction) or w <= 0:
                raise ValueError("measure weights must be positive rationals")
            total += w
        if total != 1:
            raise ValueError(f"measure weights sum to {total}, expected 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Fraction]]) -> "FiniteMeasure":
        """Build a measure, collapsing duplicate elements by summing weights."""
        acc: dict[object, Fraction] = {}
        order: list[object] = []
        for elem, w in pairs:
            if elem not in acc:
                acc[elem] = Fraction(0)
                order.append(elem)
            acc[elem] += w
        measure = cls(tuple((e, acc[e]) for e in order if acc[e] > 0))
        return _MEASURES.setdefault(measure.weights, measure)

    @classmethod
    def point_mass(cls, element) -> "FiniteMeasure":
        return cls(((element, Fraction(1)),))

    def support(self) -> list:
        return [e for e, _ in self.weights]

    def __iter__(self):
        return iter(self.weights)


def tuple_to_multiset(t: Sequence[str], domain: Sequence[str]) -> tuple[str, ...]:
    order = {a: i for i, a in enumerate(domain)}
    return tuple(sorted(t, key=lambda a: order[a]))


def check_instance(structure: ValuedStructure, instance: Instance) -> None:
    """Raise on the first term with an unknown symbol, a wrong argument
    count or an undeclared variable."""
    declared = set(instance.variables)
    for i, term in enumerate(instance.terms):
        if term.symbol not in structure.signature:
            raise UnknownSymbol(f"term {i}: unknown symbol {term.symbol!r}")
        arity = structure.signature.arity(term.symbol)
        if len(term.args) != arity:
            raise ArityMismatch(
                f"term {i}: symbol {term.symbol!r} has arity {arity}, "
                f"got {len(term.args)} arguments"
            )
        for v in term.args:
            if v not in declared:
                raise UnassignedVariable(f"term {i}: undeclared variable {v!r}")


def evaluate_cost(
    structure: ValuedStructure,
    instance: Instance,
    assignment: Mapping[str, str],
) -> ExtRat:
    """Exact cost of an assignment: the sum of the term table entries."""
    check_instance(structure, instance)
    for v in instance.variables:
        if v not in assignment:
            raise UnassignedVariable(f"variable {v!r} has no assigned value")
    total: ExtRat = Fraction(0)
    for term in instance.terms:
        args = tuple(assignment[v] for v in term.args)
        total = total + structure.cost(term.symbol, args)
    return total


def brute_force_min(structure: ValuedStructure, instance: Instance) -> ExtRat:
    """Exhaustive minimum of evaluate_cost over all assignments: the
    instance is checked once, then each assignment sums its term tables.
    ResourceGuard when |D|^n assignments times the terms exceed DEFAULT_CAP."""
    check_instance(structure, instance)
    d, n, k = len(structure.domain), len(instance.variables), len(instance.terms)
    # past the cap's bit length the power is over the cap, for |D| >= 2
    if d ** min(n, DEFAULT_CAP.bit_length() + 1) * max(1, k) > DEFAULT_CAP:
        raise ResourceGuard(
            f"brute force: {d}^{n} assignments times {k} terms exceed cap {DEFAULT_CAP}"
        )
    position = {v: i for i, v in enumerate(instance.variables)}
    terms = [
        (structure.table(t.symbol), [position[v] for v in t.args])
        for t in instance.terms
    ]
    best: ExtRat = PLUS_INF
    for labels in itertools.product(structure.domain, repeat=n):
        cost: ExtRat = Fraction(0)
        for table, at in terms:
            cost = cost + table[tuple(labels[i] for i in at)]
        if cost < best:
            best = cost
    return best


def pvcsp_oracle(template: PromiseTemplate, instance: Instance) -> str:
    """Ground-truth promise classification: YES, NO, or GAP.

    YES if Delta attains the threshold, NO if Gamma cannot, GAP otherwise
    (a solver may answer either way on GAP).
    """
    u = instance.threshold
    if brute_force_min(template.delta, instance) <= u:
        return YES
    if not brute_force_min(template.gamma, instance) <= u:
        return NO
    return GAP
