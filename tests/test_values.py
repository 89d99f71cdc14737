from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvcsp.values import (
    MINUS_INF,
    PLUS_INF,
    format_value,
    parse_rational,
    parse_value,
)


def test_ordering():
    assert Fraction(5) < PLUS_INF
    assert not PLUS_INF < Fraction(10**9)
    assert PLUS_INF <= PLUS_INF
    assert MINUS_INF < Fraction(-(10**9))
    assert MINUS_INF < PLUS_INF
    assert MINUS_INF <= MINUS_INF


def test_absorbing_addition():
    assert PLUS_INF + Fraction(3) is PLUS_INF
    assert Fraction(-7, 2) + PLUS_INF is PLUS_INF
    assert PLUS_INF + PLUS_INF is PLUS_INF


def test_scaling_inf_by_positive_weight():
    assert Fraction(1, 3) * PLUS_INF is PLUS_INF
    with pytest.raises(ArithmeticError):
        Fraction(0) * PLUS_INF


def test_parse_print_basics():
    assert parse_value("inf") is PLUS_INF
    assert parse_value("-3/4") == Fraction(-3, 4)
    assert format_value(PLUS_INF) == "inf"
    assert format_value(MINUS_INF) == "-inf"
    with pytest.raises(ValueError):
        parse_value("1/0")
    with pytest.raises(ValueError):
        parse_value("-inf")


@pytest.mark.parametrize(
    "text", ["1e400", "1.5", "1_0", "+1", "1/-2", "1 / 2", "0x10", "\u0661", "", "/2"]
)
def test_parse_rejects_other_rational_literals(text):
    # only [-]digits[/digits]: an exponent would build a huge integer from
    # a short text
    with pytest.raises(ValueError, match="malformed rational"):
        parse_value(text)
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational(text)


def test_parse_rational_is_finite_only():
    assert parse_rational("-0") == 0 and parse_rational("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_rational("inf")


@given(st.fractions())
def test_parse_print_roundtrip(q):
    assert parse_value(format_value(q)) == q
