"""What both halves share: boxes in the unit cube and the two error types.

:mod:`qcmass.lp` and :mod:`qcmass.simplex` describe their optimal box with
:class:`NBox` and sign its corners with :func:`corner_sign`; they need
nothing else of :mod:`qcmass.grid`.  Kept here, these names load without the
grid code, and :mod:`qcmass.grid` re-exports every one of them, so
``qcmass.grid.NBox`` is this class.  :class:`LPError` lives here too, beside
:class:`GridError`, and :mod:`qcmass.lp` re-exports it: the command line
maps both to exit 2 with one fixed tuple, whichever half a command loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(value: object) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


class GridError(ValueError):
    """Raised for malformed partitions, boxes, grids, or grid files."""


class LPError(ValueError):
    """Raised for malformed programs, layouts, assignments, or LP files."""


def _rational(value: object, what: str, error: type[ValueError] = GridError) -> Fraction:
    """``value`` as a :class:`Fraction`, kept if it is one; ``error`` names it if not rational."""
    try:
        return _fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} {value!r} is not a rational number") from exc


@dataclass(frozen=True)
class NBox:
    """An axis-aligned box inside [0,1]^n, given by per-axis closed intervals.

    Each endpoint may be given as anything :class:`Fraction` accepts; a
    :class:`Fraction` is kept as given.  :class:`GridError` names an
    interval that is not a ``(lo, hi)`` pair and an endpoint that is not
    rational (nan, inf, ``None``, ``"x"``).  The check
    0 <= lo <= hi <= 1 runs on the endpoints' numerators and (positive)
    denominators, cross-multiplied.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        try:
            intervals = iter(self.intervals)
        except TypeError as exc:
            raise GridError(f"box intervals {self.intervals!r} are not (lo, hi) pairs") from exc
        ivs = []
        for interval in intervals:
            try:
                lo, hi = interval
            except (TypeError, ValueError) as exc:
                raise GridError(f"box interval {interval!r} is not a (lo, hi) pair") from exc
            ivs.append((_rational(lo, "box endpoint"), _rational(hi, "box endpoint")))
        object.__setattr__(self, "intervals", tuple(ivs))
        if not ivs:
            raise GridError("box needs at least one axis")
        for lo, hi in ivs:
            lo_n, lo_d = lo.numerator, lo.denominator
            hi_n, hi_d = hi.numerator, hi.denominator
            if not (0 <= lo_n and lo_n * hi_d <= hi_n * lo_d and hi_n <= hi_d):
                raise GridError(f"interval [{lo}, {hi}] not nested in [0,1]")

    @property
    def dimension(self) -> int:
        return len(self.intervals)


def corner_sign(flags: tuple[bool, ...]) -> int:
    """+1 when the corner has an even number of lower ends (False flags), else -1.

    These are the signs of the inclusion-exclusion sum whose value is the
    mass a distribution function assigns to the box.
    """
    return -1 if (len(flags) - sum(flags)) % 2 else 1
