"""Sparse exact-rational linear programs and the extremal box-mass program.

For a quasi-copula Q and a box B = prod [a_i, a_i + s_i] inside [0,1]^n, the
mass V_Q(B) is the signed inclusion-exclusion sum of Q over the 2^n corners
of B.  Which corner-value combinations are realizable is relaxed here to the
linear conditions every quasi-copula satisfies on those corners:

  D  per axis:    a_i + s_i <= 1                       (box stays in the cube)
  E  per edge:    0 <= q(upper) - q(lower) <= s_i      (monotone, 1-Lipschitz)
  F  per corner:  sum of coords - (n-1) <= q <= coord_i (pointwise envelope)

Extremizing the inclusion-exclusion objective over this polytope bounds
V_Q(B) over all quasi-copulas and boxes at once, and the bounds are attained
at every n (the theorem below), so each optimum is the least or greatest
mass an n-quasi-copula puts on a box.  The n = 4 optima, -9/7 and 2, have
recorded witnesses, reproduced by :func:`reference_witness`.

Theorem (the relaxation is exact).  Fix the box B, and let the corner
values q satisfy the E and F rows and q >= 0.  Write
d(t, u) = sum_i (u_i - t_i)^+ and M(u) = min_i u_i.  Then

  Q*(u) = min( M(u), min over corners t of B of q_t + d(t, u) )

is an n-quasi-copula, and Q*(t) = q_t at every corner t of B.

Proof sketch.
  * Monotone and 1-Lipschitz: each term is nondecreasing and 1-Lipschitz
    in every coordinate, so their minimum is too.
  * Grounded: where some u_i = 0, Q* <= M = 0, and every term is >= 0
    because q >= 0.
  * Uniform margins: take every coordinate but i at 1.  By the F lower row,
    q_t + d(t, u) >= sum t - (n-1) + (u_i - t_i)^+ + sum_{j != i} (1 - t_j)
    >= u_i, so Q*(u) = M(u) = u_i.
  * Corners kept: q_s <= M(s) by the F upper rows, and the E rows, chained
    along box edges, give q_s - q_t <= d(t, s); the term t = s is q_s.
  * Grounded, uniform margins, and nondecreasing and 1-Lipschitz in each
    coordinate are the n-quasi-copulas (Genest, Quesada-Molina,
    Rodríguez-Lallena and Sempi, J. Multivariate Anal. 1999; Cuculescu and
    Theodorescu, Fuzzy Sets Syst. 2001).
So every optimum of :func:`build_extremal_lp` is attained by a
quasi-copula, and ``qcmass conjecture``'s ``lp_min`` is the least box mass
at each n: a ``below`` verdict refutes the conjectured -(n-1)^2/(2n-1) at
that n (first at n = 5, where -32/13 < -16/9).

The program is unchanged when the axes are permuted, so it has an optimum
with every a_i equal, every s_i equal, and q depending only on how many
coordinates of a corner sit at the upper end.  :func:`build_symmetric_lp`
poses the program on such points alone: n + 3 variables and 5n + 2 rows
instead of 2n + 2^n and n + (2n+1) 2^n, with the same optimum (the argument
is in its docstring).  Both builders write their rows with the same D, E and
F formulas, ``_d_row``, ``_e_rows`` and ``_f_rows``, which read variable
indices through maps a(i), s(i) and q(v): axis i's box corner and edge
length, corner v's value.  :func:`lift_symmetric` turns a point of it back
into corner values of the full program.

A :class:`Row` holds its numbers once, as integers over one denominator,
and is canonical from construction, so a :class:`LinearProgram` keeps the
rows it is given and checks only that their indices are in range.  The
feasibility check and the solver read those integers; only the text export,
the report of a violated row and callers outside the package build a row's
:class:`Fraction` values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .box import ONE, ZERO, LPError, NBox, _fraction, _rational, corner_sign
from .rational import _over_one_den, format_rational

_RELATIONS = ("<=", ">=")


def _exact(value: object) -> int | Fraction:
    """``value`` as is if it is an int, else as a :class:`Fraction`; LPError names it if not rational."""
    return value if type(value) is int else _rational(value, "value", LPError)


def _canonical_terms(
    terms: Iterable[tuple[int, object]], where: str
) -> list[tuple[int, int | Fraction]]:
    """Sort sparse terms by variable index, reject negative or repeated indices, drop zeros.

    Each coefficient is made exact (:func:`_exact`) before it is tested for zero.
    """
    terms = sorted(terms, key=itemgetter(0))
    if terms and terms[0][0] < 0:
        raise LPError(f"negative variable index {terms[0][0]} in {where}")
    for (j, _), (k, _) in zip(terms, terms[1:]):
        if j == k:
            raise LPError(f"duplicate variable index {j} in {where}")
    return [(j, exact) for j, coef in terms if (exact := _exact(coef))]


@dataclass(init=False, frozen=True, slots=True)
class Row:
    """One inequality: sparse coefficients, relation, right-hand side.

    ``Row(family, coeffs, relation, rhs)`` takes ``(index, coefficient)``
    terms in any order; a coefficient or ``rhs`` may be an int, a
    :class:`Fraction` or anything :class:`Fraction` accepts.  A negative or
    repeated index, no nonzero term, or a number that is not rational
    raises :class:`LPError`.
    ``family`` is a short tag carried for reporting ("D", "E", "F" for the
    extremal program; anything, including "", for ad hoc programs).

    The row holds its numbers once, as integers over one denominator:
    ``den`` is the lcm of the reduced denominators of the right-hand side
    and every coefficient, ``terms`` the ``(index, coefficient * den)``
    pairs sorted by index with no zero coefficient, and ``num`` is
    ``rhs * den``.  An int has denominator 1, so only the other values enter
    the lcm, and a row of ints has ``den == 1`` with its ints kept as given.
    The form is unique for each row, so two rows of the same family and
    relation are equal, and hash alike, exactly when their coefficients and
    right-hand sides are equal as rationals.  ``coeffs`` and ``rhs`` are
    read-only views that build reduced :class:`Fraction` values from it.
    """

    family: str
    relation: str
    den: int
    terms: tuple[tuple[int, int], ...]
    num: int

    def __init__(
        self, family: str, coeffs: Iterable[tuple[int, object]], relation: str, rhs: object
    ) -> None:
        if relation not in _RELATIONS:
            raise LPError(f"unsupported relation {relation!r}")
        terms = _canonical_terms(coeffs, "row")
        if not terms:
            raise LPError("row references no variables")
        rhs = _exact(rhs)
        # An int is over every denominator already, so only Fractions enter the lcm.
        den = lcm(*[v.denominator for v in (rhs, *map(itemgetter(1), terms)) if type(v) is not int])
        terms = [
            (j, a * den if type(a) is int else a.numerator * (den // a.denominator))
            for j, a in terms
        ]
        num = rhs * den if type(rhs) is int else rhs.numerator * (den // rhs.denominator)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "num", num)

    @property
    def coeffs(self) -> tuple[tuple[int, Fraction], ...]:
        den = self.den
        return tuple((j, Fraction(a, den)) for j, a in self.terms)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class LinearProgram:
    """``integer_objective`` is the objective over one denominator, ``(den, terms)``, as in a Row.

    ``terms`` is the ``(index, coefficient * den)`` pairs, in ``objective``'s order.
    """

    num_vars: int
    var_names: tuple[str, ...]
    sense: str
    objective: tuple[tuple[int, Fraction], ...]
    rows: tuple[Row, ...]
    integer_objective: tuple[int, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise LPError("program needs at least one variable")
        names = tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        if len(names) != self.num_vars:
            raise LPError("var_names length must equal num_vars")
        if len(set(names)) != len(names) or any(
            (not n) or any(ch.isspace() for ch in n) for n in names
        ):
            raise LPError("variable names must be unique, nonempty, whitespace-free")
        if self.sense not in ("min", "max"):
            raise LPError(f"sense must be 'min' or 'max', got {self.sense!r}")
        objective = tuple(
            (j, _fraction(coef)) for j, coef in _canonical_terms(self.objective, "objective")
        )
        den, ints = _over_one_den(map(itemgetter(1), objective))
        object.__setattr__(self, "objective", objective)
        terms = tuple((j, a) for (j, _), a in zip(objective, ints))
        object.__setattr__(self, "integer_objective", (den, terms))
        object.__setattr__(self, "rows", tuple(self.rows))
        # Terms are sorted, so the last index is the largest.
        if objective and objective[-1][0] >= self.num_vars:
            raise LPError(f"variable index {objective[-1][0]} out of range in objective")
        for k, row in enumerate(self.rows):
            if row.terms[-1][0] >= self.num_vars:
                raise LPError(f"variable index {row.terms[-1][0]} out of range in row {k}")


@dataclass(frozen=True)
class ExtremalLayout:
    """Variable indexing of the extremal program.

    Order: n box corners a_i, then n edge lengths s_i, then the 2^n corner
    values q_v with v in lexicographic flag order (last axis fastest), for
    2n + 2^n variables in total.
    """

    dimension: int
    corner_vars: tuple[int, ...]
    length_vars: tuple[int, ...]
    vertex_vars: Mapping[tuple[bool, ...], int]

    @property
    def num_vars(self) -> int:
        return 2 * self.dimension + len(self.vertex_vars)


@dataclass(frozen=True)
class VertexAssignment:
    """A box together with a claimed quasi-copula value at each of its corners.

    Each value may be given as anything :class:`Fraction` accepts, and
    becomes a :class:`Fraction`; :class:`LPError` names one that is not
    rational.
    """

    box: NBox
    values: Mapping[tuple[bool, ...], Fraction]

    def __post_init__(self) -> None:
        n = self.box.dimension
        expected = set(product((False, True), repeat=n))
        cleaned = {tuple(k): _rational(v, "corner value", LPError) for k, v in self.values.items()}
        if set(cleaned) != expected:
            raise LPError(f"values must cover all {2**n} corner patterns")
        object.__setattr__(self, "values", cleaned)

    @property
    def dimension(self) -> int:
        return self.box.dimension


@dataclass(frozen=True)
class RowViolation:
    """``index`` is the row position, except for family "N" (a violated
    implicit nonnegativity bound), where it is the variable index."""

    index: int
    family: str
    lhs: Fraction
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    objective_value: Fraction
    violations: tuple[RowViolation, ...]


# The dimension-n program has n + (2n+1) 2^n rows; one with more than this
# many (dimension 16 and up) is refused before anything of size 2^n exists.
MAX_PROGRAM_ROWS = 2**20

_Index = Callable[..., int]  # a(i), s(i) or q(v); see the module docstring


def _d_row(i: int, a: _Index, s: _Index) -> Row:
    """Axis i's D row: a_i + s_i <= 1."""
    return Row("D", ((a(i), 1), (s(i), 1)), "<=", 1)


def _e_rows(i: int, v: tuple[bool, ...], s: _Index, q: _Index) -> tuple[Row, Row]:
    """The E rows of the edge up axis i from corner v (v[i] is False): monotone, then Lipschitz."""
    rise = ((q(v[:i] + (True,) + v[i + 1 :]), 1), (q(v), -1))  # q(upper) - q(lower)
    return Row("E", rise, ">=", 0), Row("E", (*rise, (s(i), -1)), "<=", 0)


def _f_rows(
    v: tuple[bool, ...], axes: Iterable[int], a: _Index, s: _Index, q: _Index
) -> list[Row]:
    """Corner v's F rows: the lower envelope row, then the upper row of each axis in ``axes``."""
    n, qv = len(v), q(v)
    lower = {qv: 1}  # the one row whose terms can land on one index, so they are summed
    for j in [a(i) for i in range(n)] + [s(i) for i in range(n) if v[i]]:
        lower[j] = lower.get(j, 0) - 1
    rows = [Row("F", lower.items(), ">=", 1 - n)]
    for i in axes:
        upper = [(qv, 1), (a(i), -1)]
        if v[i]:
            upper.append((s(i), -1))
        rows.append(Row("F", upper, "<=", 0))
    return rows


def build_extremal_lp(
    n: int, sense: str
) -> tuple[LinearProgram, ExtremalLayout]:
    """The dimension-n extremal program and its variable layout.

    Row order is fixed (and is the exported order): the n D rows; then for
    each axis, for each lower corner in flag order, the monotone row followed
    by the Lipschitz row; then for each corner in flag order, the lower
    envelope row followed by its n upper envelope rows.
    """
    if n < 2:
        raise LPError("extremal program needs dimension >= 2")
    # 2^n alone passes the limit once n reaches the limit's bit length, so
    # n is compared first and 2^n is only formed for small n.
    if n >= MAX_PROGRAM_ROWS.bit_length() or n + (2 * n + 1) * 2**n > MAX_PROGRAM_ROWS:
        raise LPError(
            f"extremal program at dimension {n} would have more than "
            f"{MAX_PROGRAM_ROWS} rows"
        )
    if n > 8:
        warnings.warn(
            f"extremal program at dimension {n} has {2 * n + 2**n} variables "
            f"and {n + (2 * n + 1) * 2**n} rows; expect it to be slow",
            stacklevel=2,
        )
    flags_list = list(product((False, True), repeat=n))
    corner_vars = tuple(range(n))
    length_vars = tuple(range(n, 2 * n))
    vertex_vars = {v: 2 * n + k for k, v in enumerate(flags_list)}
    names = (
        [f"a{i + 1}" for i in range(n)]
        + [f"s{i + 1}" for i in range(n)]
        + ["q_" + "".join("u" if f else "l" for f in v) for v in flags_list]
    )

    a, s, q = corner_vars.__getitem__, length_vars.__getitem__, vertex_vars.__getitem__
    rows = [_d_row(i, a, s) for i in range(n)]
    for i in range(n):
        for v in flags_list:
            if not v[i]:
                rows += _e_rows(i, v, s, q)
    for v in flags_list:
        rows += _f_rows(v, range(n), a, s, q)

    objective = tuple(
        (vertex_vars[v], Fraction(corner_sign(v))) for v in flags_list
    )
    lp = LinearProgram(2 * n + len(flags_list), tuple(names), sense, objective, tuple(rows))
    return lp, ExtremalLayout(n, corner_vars, length_vars, vertex_vars)


def build_symmetric_lp(n: int, sense: str) -> LinearProgram:
    """The axis-symmetric form of the dimension-n extremal program.

    Variables, in order: the common box corner ``a``, the common edge length
    ``s``, and ``q_0 .. q_n``, where q_k stands for the value at every corner
    with k upper ends; n + 3 in all.  Its rows are the full program's
    representative rows, merged: for each orbit under the axis permutations,
    the full row at the corner with its k upper ends last, read with every
    a_i as a, s_i as s and q_v as q_k, terms on one variable summed.  In
    order: D; E up axis 0 for k < n; then for each k the F lower row and
    the F upper rows on axis 0 if k < n and on axis n-1 if k > 0; 5n + 2
    rows.  The objective sum_k (-1)^(n-k) C(n,k) q_k gathers each level.

    Its optimum is that of ``build_extremal_lp(n, sense)``.  A full row at a
    lift (:func:`lift_symmetric`) takes its orbit row's value, so a reduced
    point is feasible exactly when its lift is, with the same objective.
    Conversely, permuting the axes maps the full program onto itself, so the
    average of the n! permuted copies of a full optimum is feasible (the
    feasible set is convex), has the same objective, and is symmetric: the
    lift of a feasible reduced point.  The two optima are therefore equal
    (Bödi, Herr & Joswig, "Algorithms for highly symmetric linear and
    integer programs", Math. Program. 2013).
    """
    if n < 2:
        raise LPError("extremal program needs dimension >= 2")
    names = ["a", "s"] + [f"q_{k}" for k in range(n + 1)]
    a, s, q = (lambda i: 0), (lambda i: 1), (lambda v: 2 + sum(v))
    corners = [(False,) * (n - k) + (True,) * k for k in range(n + 1)]
    rows = [_d_row(0, a, s)]
    for v in corners[:-1]:
        rows += _e_rows(0, v, s, q)
    for k, v in enumerate(corners):
        rows += _f_rows(v, [0] * (k < n) + [n - 1] * (k > 0), a, s, q)
    objective = []
    binomial = 1  # C(n, k)
    for k in range(n + 1):
        objective.append((k + 2, Fraction((-1) ** (n - k) * binomial)))
        binomial = binomial * (n - k) // (k + 1)
    return LinearProgram(n + 3, tuple(names), sense, tuple(objective), tuple(rows))


def lift_symmetric(n: int, x: Sequence[Fraction]) -> VertexAssignment:
    """The symmetric full-program point of a point of :func:`build_symmetric_lp`.

    ``x`` is ``(a, s, q_0 .. q_n)``, as a sequence or as a solution's
    assignment; the box is [a, a + s]^n and every corner with k upper ends
    takes q_k.  It has 2^n corner values, so it is meant for small n.
    """
    try:
        size = len(x)
    except TypeError as exc:
        raise LPError(f"symmetric point {x!r} is not a sequence of values") from exc
    if size != n + 3:
        raise LPError(f"symmetric point at dimension {n} needs {n + 3} values, got {size}")
    a, s = _rational(x[0], "box corner", LPError), _rational(x[1], "box side", LPError)
    values = {flags: x[2 + sum(flags)] for flags in product((False, True), repeat=n)}
    return VertexAssignment(NBox(((a, a + s),) * n), values)


def assignment_vector(
    layout: ExtremalLayout, assignment: VertexAssignment
) -> list[Fraction]:
    """The full variable vector (corners, lengths, corner values) of an assignment."""
    if assignment.dimension != layout.dimension:
        raise LPError(
            f"assignment has dimension {assignment.dimension}, "
            f"layout has {layout.dimension}"
        )
    x = [ZERO] * layout.num_vars
    for i, (lo, hi) in enumerate(assignment.box.intervals):
        x[layout.corner_vars[i]] = lo
        x[layout.length_vars[i]] = hi - lo
    for flags, value in assignment.values.items():
        x[layout.vertex_vars[flags]] = value
    return x


def check_assignment(
    lp: LinearProgram, layout: ExtremalLayout, assignment: VertexAssignment
) -> FeasibilityReport:
    """Exactly test an assignment against every row and the implicit bounds x >= 0."""
    return check_point(lp, assignment_vector(layout, assignment))


def check_point(lp: LinearProgram, x: Sequence[Fraction]) -> FeasibilityReport:
    """Exactly test a variable vector against every row and the implicit bounds x >= 0.

    ``x`` is put over one common denominator, so the bounds are tested on
    its integers, each row's slack is one integer sum over the row's
    integers, and the objective is one integer sum over
    :attr:`LinearProgram.integer_objective`, made a :class:`Fraction` once;
    no row is converted here.  A row's :class:`Fraction` values are built
    only for the report of a violated row, and a negative value is reported
    as it was given.
    """
    return _point_slacks(lp, x)[0]


def _point_slacks(
    lp: LinearProgram, x: Sequence[Fraction]
) -> tuple[FeasibilityReport, int, list[int], list[int]]:
    """:func:`check_point`'s one pass, with the integers it sums: ``(report, den, xs, slacks)``.

    ``x`` is ``xs / den``, and ``slacks[k]`` is row k's slack at ``x`` over
    ``rows[k].den * den``: ``lhs - rhs`` for ">=" and ``rhs - lhs`` for
    "<=", so it is >= 0 exactly when the row holds.
    """
    try:
        size = len(x)
        den, xs = _over_one_den(x)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise LPError(f"point {x!r} is not a sequence of rational numbers") from exc
    if size != lp.num_vars:
        raise LPError(f"point has {size} values, program has {lp.num_vars} variables")
    violations = [RowViolation(j, "N", x[j], ">=", ZERO) for j, v in enumerate(xs) if v < 0]
    slacks = []
    for k, row in enumerate(lp.rows):
        lhs_minus_rhs = sum([a * xs[j] for j, a in row.terms]) - row.num * den
        slack = lhs_minus_rhs if row.relation == ">=" else -lhs_minus_rhs
        slacks.append(slack)
        if slack < 0:
            rhs = row.rhs
            lhs = rhs + Fraction(lhs_minus_rhs, row.den * den)
            violations.append(RowViolation(k, row.family, lhs, row.relation, rhs))
    oden, oterms = lp.integer_objective
    total = sum([a * xs[j] for j, a in oterms])
    report = FeasibilityReport(not violations, Fraction(total, oden * den), tuple(violations))
    return report, den, xs, slacks


def reference_witness(n: int, sense: str) -> VertexAssignment:
    """The known optimal assignments at dimension 4.

    Minimizing: the lift of :func:`symmetric_candidate` at n = 4, the box
    [3/7, 6/7]^4 with corner value 3/7 wherever at least three coordinates
    sit at the upper end, 0 elsewhere; the box mass is -9/7.
    Maximizing: box [1/2, 1]^4 with value 1 at the top corner, 1/2 at corners
    with two or three upper ends, 0 below; the box mass is 2.
    """
    if n != 4:
        raise LPError("reference witnesses are recorded for dimension 4 only")
    if sense == "min":
        return lift_symmetric(4, symmetric_candidate(4))
    if sense != "max":
        raise LPError(f"sense must be 'min' or 'max', got {sense!r}")
    half = Fraction(1, 2)
    return lift_symmetric(4, (half, half, ZERO, ZERO, half, half, ONE))


def conjectured_bound(n: int) -> Fraction:
    """-(n-1)^2 / (2n-1), the conjectured minimum box mass at dimension n."""
    if n < 2:
        raise LPError("bound is defined for dimension >= 2")
    return Fraction(-((n - 1) ** 2), 2 * n - 1)


def symmetric_candidate(n: int) -> list[Fraction]:
    """The point conjectured to attain :func:`conjectured_bound`, as ``(a, s, q_0 .. q_n)``.

    a = s = (n-1)/(2n-1), so the box is [(n-1)/(2n-1), (2n-2)/(2n-1)]^n, and
    q_k = a for k >= n-1, 0 below.  Its lift (:func:`lift_symmetric`) is
    feasible in the full program for every n >= 2, and at n = 4 it is the
    recorded minimizing witness.
    """
    if n < 2:
        raise LPError("box is defined for dimension >= 2")
    lo = Fraction(n - 1, 2 * n - 1)
    return [lo, lo] + [lo if k >= n - 1 else ZERO for k in range(n + 1)]


def export_lp(lp: LinearProgram) -> str:
    """Serialize to the LP text format, for other solvers; qcmass reads none back.

    Line oriented: a header ``qclp 1 <num_vars> <sense>``, one ``var <index>
    <name>`` line per variable in index order, one ``row <family> <relation>
    <rhs> <k> <index:coef>...`` line per row in program order (``-`` stands
    for an empty family tag), and a final ``obj <k> <index:coef>...`` line.
    All numbers are exact rationals; terms are sorted by variable index.
    """
    lines = [f"qclp 1 {lp.num_vars} {lp.sense}"]
    for j, name in enumerate(lp.var_names):
        lines.append(f"var {j} {name}")
    for row in lp.rows:
        terms = " ".join(f"{j}:{format_rational(c)}" for j, c in row.coeffs)
        family = row.family if row.family else "-"
        lines.append(
            f"row {family} {row.relation} {format_rational(row.rhs)} "
            f"{len(row.terms)} {terms}".rstrip()
        )
    terms = " ".join(f"{j}:{format_rational(c)}" for j, c in lp.objective)
    lines.append(f"obj {len(lp.objective)} {terms}".rstrip())
    return "\n".join(lines) + "\n"
