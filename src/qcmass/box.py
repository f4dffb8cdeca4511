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


@dataclass(frozen=True)
class NBox:
    """An axis-aligned box inside [0,1]^n, given by per-axis closed intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        ivs = tuple((_fraction(lo), _fraction(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise GridError("box needs at least one axis")
        for lo, hi in ivs:
            if not (ZERO <= lo <= hi <= ONE):
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
