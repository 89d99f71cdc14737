"""Text file formats for structures, instances, and measures.

One self-describing line-oriented family; rationals are rendered "p/q" and
infinity as "inf".  Unlisted tuples of a symbol take the symbol's declared
default, which keeps crisp fixtures small.  parse(print(x)) is the identity.
A table entry "a1 ... ak : v" lists exactly k labels of the domain (of
in_domain in a measure file) and one value, at most once per table.  Every
malformed text raises FormatError.

Structure file:
    domain 0 1
    symbol f 2 default inf
    0 1 : 0
    1 0 : 0

Instance file:
    vars x y z
    term f x y
    threshold 1/2

Measure file (fractional homomorphism or polymorphism):
    measure fpol
    arity 2
    in_domain 0 1
    out_domain 0 1
    input_weights 1/2 1/2
    map 1
    0 0 : 0
    0 1 : 0
    1 0 : 0
    1 1 : 1
"""

from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction
from typing import Union

from .core import (
    DEFAULT_CAP,
    FiniteMeasure,
    Instance,
    OperationTable,
    Signature,
    Term,
    ValuedStructure,
)
from .errors import DomainMismatch, FormatError, ResourceGuard
from .theory import PromiseFpol
from .values import PLUS_INF, format_value, parse_rational, parse_value


def _lines(text: str, once: tuple[str, ...]) -> list[list[str]]:
    """Each line's tokens, without comments and blank lines.  A header in
    `once` may start one line only: a second would replace the first."""
    out, seen = [], set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
            head = out[-1][0]
            if head in once:
                if head in seen:
                    raise FormatError(f"duplicate {head} line")
                seen.add(head)
    return out


def _arity(token: str) -> int:
    try:
        arity = int(token)
    except ValueError:
        raise FormatError(f"bad arity {token!r}") from None
    if arity < 1:
        raise FormatError(f"arity {arity} is below 1")
    return arity


def _one_value(tokens: list[str]) -> str:
    if len(tokens) != 2:
        raise FormatError(f"{tokens[0]} needs exactly one value")
    return tokens[1]


def _entry(tokens: list[str], arity: int, labels, table: dict, parse) -> None:
    """Store the line `a1 ... ak : v` as table[(a1, ..., ak)] = parse(v)."""
    sep = tokens.index(":")
    args = tuple(tokens[:sep])
    if len(args) != arity or len(tokens) != sep + 2:
        raise FormatError(
            f"expected {arity} labels and one value: {' '.join(tokens)}"
        )
    for a in args:
        if a not in labels:
            raise FormatError(f"label {a!r} outside the domain: {' '.join(tokens)}")
    if args in table:
        raise FormatError(f"duplicate entry: {' '.join(tokens)}")
    table[args] = parse(tokens[sep + 1])


def _format_errors(parse):
    """The one boundary: what the objects built from the text reject (a bad
    rational, a repeated label, a table that is not total, an output label
    outside out_domain) becomes a FormatError."""

    @functools.wraps(parse)
    def parse_text(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError, DomainMismatch) as exc:
            raise FormatError(str(exc)) from exc

    return parse_text


@_format_errors
def parse_structure(text: str) -> ValuedStructure:
    domain: list[str] = []
    symbols: list[tuple[str, int]] = []
    tables: dict[str, dict] = {}
    defaults: dict[str, object] = {}
    for tokens in _lines(text, ("domain",)):
        head = tokens[0]
        if head == "domain":
            domain = tokens[1:]
        elif head == "symbol":
            if len(tokens) != 5 or tokens[3] != "default":
                raise FormatError(
                    f"expected 'symbol NAME ARITY default VALUE': {tokens}"
                )
            name = tokens[1]
            arity = _arity(tokens[2])
            defaults[name] = parse_value(tokens[4])
            symbols.append((name, arity))
            tables[name] = {}
        elif ":" in tokens:
            if not symbols:
                raise FormatError(f"table entry before any symbol: {tokens}")
            # name and arity are the last symbol line's
            _entry(tokens, arity, domain, tables[name], parse_value)
        else:
            raise FormatError(f"unrecognised line: {' '.join(tokens)}")
    d = max(1, len(domain))  # product's set-up alone takes arity steps
    for name, arity in symbols:
        # |D|^arity tuples of arity labels; past the cap's bit length the
        # power is over the cap, so a huge arity is no huge power
        if d ** min(arity, DEFAULT_CAP.bit_length() + 1) * arity > DEFAULT_CAP:
            size = f"{len(domain)}^{arity} tuples times arity {arity}"
            raise ResourceGuard(f"symbol {name}: {size} exceed cap {DEFAULT_CAP}")
        default = defaults[name]
        for t in itertools.product(domain, repeat=arity):
            tables[name].setdefault(t, default)
    return ValuedStructure(Signature(tuple(symbols)), domain, tables)


def print_structure(structure: ValuedStructure) -> str:
    lines = ["domain " + " ".join(structure.domain)]
    for name, arity in structure.signature.symbols:
        table = structure.table(name)
        # the most common value becomes the default, rendering fewer lines
        counts = collections.Counter(map(format_value, table.values()))
        default = max(sorted(counts), key=counts.__getitem__)
        lines.append(f"symbol {name} {arity} default {default}")
        for t in itertools.product(structure.domain, repeat=arity):
            rendered = format_value(table[t])
            if rendered != default:
                lines.append(" ".join(t) + " : " + rendered)
    return "\n".join(lines) + "\n"


@_format_errors
def parse_instance(text: str) -> Instance:
    variables: list[str] = []
    terms: list[Term] = []
    threshold = None
    for tokens in _lines(text, ("vars", "threshold")):
        head = tokens[0]
        if head == "vars":
            variables = tokens[1:]
        elif head == "term":
            if len(tokens) < 3:
                raise FormatError(f"term needs a symbol and arguments: {tokens}")
            terms.append(Term(tokens[1], tuple(tokens[2:])))
        elif head == "threshold":
            value = parse_value(_one_value(tokens))
            if value is PLUS_INF:
                raise FormatError("threshold must be finite")
            threshold = value
        else:
            raise FormatError(f"unrecognised line: {' '.join(tokens)}")
    if threshold is None:
        raise FormatError("instance file has no threshold")
    return Instance(tuple(variables), tuple(terms), threshold)


def print_instance(instance: Instance) -> str:
    lines = ["vars " + " ".join(instance.variables)]
    for term in instance.terms:
        lines.append("term " + term.symbol + " " + " ".join(term.args))
    lines.append("threshold " + str(instance.threshold))
    return "\n".join(lines) + "\n"


FRACHOM = "frachom"
FPOL = "fpol"


@_format_errors
def parse_measure(text: str) -> Union[FiniteMeasure, PromiseFpol]:
    kind = None
    arity = 1
    in_domain: tuple[str, ...] = ()
    out_domain: tuple[str, ...] = ()
    input_weights: tuple[Fraction, ...] | None = None
    # per map line, its entry lines (read once every header is known) and
    # its weight
    maps: list[tuple[list[list[str]], Fraction]] = []
    once = ("measure", "arity", "in_domain", "out_domain", "input_weights")
    for tokens in _lines(text, once):
        head = tokens[0]
        if head == "measure":
            if len(tokens) != 2 or tokens[1] not in (FRACHOM, FPOL):
                raise FormatError("measure kind must be frachom or fpol")
            kind = tokens[1]
        elif head == "arity":
            arity = _arity(_one_value(tokens))
        elif head == "in_domain":
            in_domain = tuple(tokens[1:])
        elif head == "out_domain":
            out_domain = tuple(tokens[1:])
        elif head == "input_weights":
            input_weights = tuple(map(parse_rational, tokens[1:]))
        elif head == "map":
            maps.append(([], parse_rational(_one_value(tokens))))
        elif ":" in tokens:
            if not maps:
                raise FormatError("table entry before any map line")
            maps[-1][0].append(tokens)
        else:
            raise FormatError(f"unrecognised line: {' '.join(tokens)}")
    if kind is None:
        raise FormatError("measure file has no measure line")
    if kind == FRACHOM and arity != 1:
        raise FormatError("a fractional homomorphism has arity 1")
    weighted = []
    for entries, w in maps:
        mapping: dict[tuple[str, ...], str] = {}
        for tokens in entries:
            _entry(tokens, arity, in_domain, mapping, str)
        g = OperationTable.from_map(in_domain, out_domain, arity, mapping)
        weighted.append((g, w))
    measure = FiniteMeasure(tuple(weighted))
    if kind == FRACHOM:
        return measure
    if input_weights is None:
        input_weights = tuple([Fraction(1, arity)] * arity)
    return PromiseFpol(input_weights, measure)


def print_measure(measure: Union[FiniteMeasure, PromiseFpol]) -> str:
    fpol = isinstance(measure, PromiseFpol)
    output = measure.output if fpol else measure
    g0 = output.support()[0]
    lines = [
        f"measure {FPOL if fpol else FRACHOM}",
        f"arity {g0.arity}",
        "in_domain " + " ".join(g0.in_domain),
        "out_domain " + " ".join(g0.out_domain),
    ]
    if fpol:
        lines.append("input_weights " + " ".join(map(str, measure.input_weights)))
    for g, w in output:
        lines.append(f"map {w}")
        for args, out in g.entries:
            lines.append(" ".join(args) + " : " + out)
    return "\n".join(lines) + "\n"
