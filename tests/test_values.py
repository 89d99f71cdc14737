from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvcsp.values import (
    MINUS_INF,
    PLUS_INF,
    format_value,
    int_scaled,
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


def test_int_scaled_keeps_ints_over_one():
    ints, lcm = int_scaled([3, 0, -7, 10**30])
    assert (ints, lcm) == ([3, 0, -7, 10**30], 1)
    assert all(type(a) is int for a in ints)
    # Fractions that are integers come back as Python ints too
    ints, lcm = int_scaled([Fraction(4), Fraction(-2, 1)])
    assert (ints, lcm) == ([4, -2], 1) and all(type(a) is int for a in ints)


def test_int_scaled_mixed_denominators():
    ints, lcm = int_scaled([Fraction(1, 4), Fraction(5, 6), 2, Fraction(7, 9)])
    assert (ints, lcm) == ([9, 30, 72, 28], 36)
    assert all(type(a) is int for a in ints)


def test_int_scaled_negatives_and_zeros():
    values = [Fraction(-3, 10), 0, Fraction(0), Fraction(-1, 4), -5]
    ints, lcm = int_scaled(values)
    assert (ints, lcm) == ([-6, 0, 0, -5, -100], 20)
    assert [Fraction(a, lcm) for a in ints] == values


def test_int_scaled_empty():
    assert int_scaled([]) == ([], 1)


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
