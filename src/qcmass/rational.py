"""Exact rational scalars: parsing and rendering.

Every numeric quantity in this package is a ``fractions.Fraction``.  Fractions
are arbitrary precision, always stored in lowest terms with a positive
denominator, and hash/compare consistently, so they can be used directly as
dict keys and in sorts.  This module pins down the one textual grammar used
wherever rationals cross a process boundary (command line arguments, grid
files, exported linear programs).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable

# Accepted forms: "7", "-7", "3/7", "-3/7", "0.25", "-0.25".  No whitespace,
# no exponent notation, no leading "+", sign only on the numerator.
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+|\.\d+)?")


class RationalParseError(ValueError):
    """Raised when a string is not a rational literal."""


def parse_rational(text: str) -> Fraction:
    """Parse ``text`` as an exact rational.

    The grammar is integer, fraction ``p/q`` or terminating decimal, with an
    optional leading minus.  Unreduced fractions are accepted and reduced
    ("6/14" parses to 3/7).  Anything else, including a zero denominator,
    raises :class:`RationalParseError`.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        # Fraction's own string constructor handles decimals exactly.
        return Fraction(int(num), int(den)) if den else Fraction(text)
    except ZeroDivisionError as exc:
        raise RationalParseError(f"zero denominator: {text!r}") from exc
    except ValueError as exc:
        # int() refuses literals longer than sys.get_int_max_str_digits()
        raise RationalParseError(
            f"rational literal too long: {len(text)} characters"
        ) from exc


def format_rational(value: Fraction) -> str:
    """Render ``value`` canonically: "p/q" in lowest terms, "p" when q is 1.

    ``parse_rational(format_rational(x)) == x`` for every Fraction ``x``.
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _over_one_den(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """``values`` as integers over one denominator: ``(den, ints)`` with ``v == i / den``.

    ``den`` is the lcm of the values' denominators (1 for no values).  Ints
    pass too.  Summing or comparing the integers then needs no gcd per term.
    """
    pairs = [v.as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in pairs))
    return den, [p * (den // q) for p, q in pairs]
