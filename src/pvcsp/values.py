"""Exact rational values extended with infinities.

Finite values are `fractions.Fraction`; the infinities are singletons that
compare and add the way cost arithmetic needs them to.  No floats anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Sequence, Union


class _PlusInf:
    """The +inf cost: absorbing under addition, above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        if isinstance(other, (Fraction, int, _PlusInf)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            if other > 0:
                return self
            raise ArithmeticError("inf scaled by a non-positive weight")
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


class _MinusInf:
    """The -inf value of an unbounded program; never an input cost."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self


PLUS_INF = _PlusInf()
MINUS_INF = _MinusInf()

#: A cost table entry: finite rational or +inf.
ExtRat = Union[Fraction, _PlusInf]
#: The value of a relaxation program: may also be -inf (unbounded below).
ExtVal = Union[Fraction, _PlusInf, _MinusInf]


def is_finite(v: ExtVal) -> bool:
    return isinstance(v, Fraction)


def int_scaled(values: Sequence[Union[int, Fraction]]) -> tuple[list[int], int]:
    """The values over the lcm of their denominators: (ints, lcm), with
    ints[i] = values[i] * lcm.  The one place that rule lives; ints (lcm 1)
    come back as their numerators, the ints themselves."""
    lcm = math.lcm(*map(attrgetter("denominator"), values))
    if lcm == 1:
        return list(map(attrgetter("numerator"), values)), 1
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rendering of a rational, ``[-]digits[/digits]``
    in ASCII digits: no exponent, point, underscore or + sign, so the text
    bounds the size of the number."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def parse_value(text: str) -> ExtRat:
    """Parse the canonical rendering: ``inf`` or ``[-]digits[/digits]``."""
    text = text.strip()
    if text == "inf":
        return PLUS_INF
    if text == "-inf":
        raise ValueError("-inf is not a valid cost value")
    return parse_rational(text)


def format_value(v: ExtVal) -> str:
    if v is PLUS_INF:
        return "inf"
    if v is MINUS_INF:
        return "-inf"
    return str(v)
