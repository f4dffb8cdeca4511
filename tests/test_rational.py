"""Exact scalar parsing and rendering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcmass.rational import RationalParseError, format_rational, parse_rational


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/7", Fraction(3, 7)),
        ("0", Fraction(0)),
        ("6/14", Fraction(3, 7)),
        ("-9/7", Fraction(-9, 7)),
        ("2", Fraction(2)),
        ("-1", Fraction(-1)),
        ("10/4", Fraction(5, 2)),
        ("0.5", Fraction(1, 2)),
        ("-0.25", Fraction(-1, 4)),
        ("1.250", Fraction(5, 4)),
        ("007", Fraction(7)),
        ("-0", Fraction(0)),
        ("0/5", Fraction(0)),
    ],
)
def test_parse_accepts(text: str, value: Fraction) -> None:
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1/0",
        "-1/0",
        "0/0",
        "3//7",
        "+1",
        "1/2/3",
        " 1",
        "1 ",
        "1 /2",
        "abc",
        "1e3",
        "1.",
        ".5",
        "-",
        "1/-2",
        "--1",
        "-1.5/2",
        "0x10",
        "1,5",
        "nan",
        "inf",
    ],
)
def test_parse_rejects(text: str) -> None:
    with pytest.raises(RationalParseError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text",
    ["7" * 5000, "-1/" + "7" * 5000, "7" * 5000 + "/3", "0." + "7" * 5000],
    ids=["integer", "denominator", "numerator", "decimal"],
)
def test_parse_rejects_literals_too_long_to_convert(text: str) -> None:
    with pytest.raises(RationalParseError, match="too long"):
        parse_rational(text)


def test_parse_error_is_value_error() -> None:
    assert issubclass(RationalParseError, ValueError)


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(3, 7), "3/7"),
        (Fraction(0), "0"),
        (Fraction(-9, 7), "-9/7"),
        (Fraction(2), "2"),
        (Fraction(-1), "-1"),
        (Fraction(6, 14), "3/7"),
        (Fraction(1, 2), "1/2"),
    ],
)
def test_format(value: Fraction, text: str) -> None:
    assert format_rational(value) == text


@given(st.fractions())
def test_format_parse_roundtrip(x: Fraction) -> None:
    assert parse_rational(format_rational(x)) == x


@given(st.fractions())
def test_format_is_canonical(x: Fraction) -> None:
    # denominator printed only when it is not 1, always in lowest terms
    text = format_rational(x)
    if "/" in text:
        num, den = text.split("/")
        assert int(den) > 1
        assert Fraction(int(num), int(den)) == x
    else:
        assert x.denominator == 1


@given(st.fractions(), st.fractions())
def test_exact_add_sub(x: Fraction, y: Fraction) -> None:
    assert (x + y) - y == x


@given(st.fractions(), st.fractions().filter(lambda y: y != 0))
def test_exact_mul_div(x: Fraction, y: Fraction) -> None:
    assert (x * y) / y == x
