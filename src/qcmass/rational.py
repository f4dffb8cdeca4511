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
    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """``text`` as unreduced integers ``(p, q)``, q > 0, with :func:`parse_rational`'s errors.

    A decimal gives ``q = 10**k`` for its k digits after the point ("-0.25"
    is (-25, 100)).  As in :class:`Fraction`'s string constructor, the
    digits before and after the point are converted separately, so a
    decimal is too long to convert exactly when that constructor finds it so.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, slash, den = text.partition("/")
    try:
        if slash:
            p, q = int(num), int(den)
        else:
            whole, _, digits = num.partition(".")
            p, q = int(whole), 1
            if digits:
                q = 10 ** len(digits)
                p = p * q - int(digits) if whole[0] == "-" else p * q + int(digits)
    except ValueError as exc:
        # int() refuses literals longer than sys.get_int_max_str_digits()
        raise RationalParseError(
            f"rational literal too long: {len(text)} characters"
        ) from exc
    if not q:
        raise RationalParseError(f"zero denominator: {text!r}")
    return p, q


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
