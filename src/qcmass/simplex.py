"""Exact two-phase simplex over the rationals, with an independent certificate.

Tableau rows, objective row included, are sparse integer rows: each row
stores one positive integer denominator, its nonzero integer cells as a
``{column: cell}`` dict, and an integer right-hand side.  A row over a
denominator above 1 has no common factor; one over denominator 1 may keep
one, as ``(1, {0: 2, 1: 4}, 6)`` does.  Program rows are read off the
integers a :class:`qcmass.lp.Row` holds (``den``, ``terms``, ``num``), and
the cost row off :attr:`qcmass.lp.LinearProgram.integer_objective`, so the
solver converts no rational coefficient.  One routine, :func:`_clear`,
does every exact elimination in the module.  It sweeps a dict of rows once
and clears the pivot column of each row that meets it, by integer
cross-multiplication over the nonzeros of the reduced pivot row, then a gcd
reduction, and stores each result back under its key; a pivot sweeps all the
held rows in one call.  When the reduced pivot cell is 1 (the common case on
the extremal programs: 3,808 of 4,171 row updates of the n=5 min solve), a
row just loses a multiple of the pivot row with its cells updated in place
and no scaling pass.  Its denominator can then only shrink, so the peak is
not read, and normalizing it reads its cells only when its denominator and
right-hand side share a factor.  :func:`_clear` counts the cells it writes
as it sweeps (see :class:`SolveStats`).  This is exact arithmetic
throughout; no floating point enters anywhere.  The entering column is
always chosen by Bland's rule (lowest index with a negative reduced cost),
which terminates on every input.

The basis is one list, ``basis`` (position -> column), and its inverse,
``where`` (basic column -> position).  Position i starts as program row i
with its logical column basic: its slack, column ``num_vars + i``, or its
artificial, column ``ncols + i``, if it has one (see below).  So columns run
structural, then slacks by row, then artificials by row.

The solver holds a tableau row only where the basic column is structural, so
at most ``num_vars`` rows however many rows the program has (at n=5 the
extremal program has 357 rows and 42 variables).  Every other basic column is
the logical column l of its own program row i, whose coefficient a_il there
is +-1.  Since the tableau is B^-1 A and row i of B
meets only the structural basics and l, that row of the tableau is

    T_l = (a_i - sum over basic structural j of a_ij * T_j) / a_il,

with T_j the held row of j.  It is rebuilt by :func:`_clear` only when it is
needed whole: as the pivot row, in the reduced-cost set-up, or to pivot an
artificial out after phase 1.

The ratio test looks for a zero ratio first.  Every right-hand side is >= 0,
so a zero ratio, where one exists, is the least, and the leaving row is the
one with the lowest basic column among the rows at value 0 with a positive
cell in the entering column.  The right-hand side of T_l is the gap
(b_i - a_i . x) / a_il of program row i at the vertex, x holding the
structural basics' values, so the solver keeps the vertex's tight rows, the
program rows with a_i . x = b_i.  A pivot moves the vertex only when its
leaving row's right-hand side is nonzero; only such a pivot marks the tight
rows stale, and the next ratio test rebuilds them, with every row's gap.  The
extremal programs are highly degenerate (at n=6, 966 of the 982 ratio tests
of the min solve end at 0), so most ratio tests compute the entering cell of
a few tight rows, one row at a time, and stop.  Only when no zero ratio
exists is every logical row's entering cell computed, with its right-hand
side read off the kept gaps; only such a test can move the vertex, so the
gaps are rebuilt at most once more often than it runs.  A gap or an entering
cell is one weighted sum over a program row (:func:`_dot`), so the program
is kept once, by rows.  The held rows are exactly the rows a full tableau
would have at those positions, and the ratios and the tie-break are exact
and the same, so the pivots, basis and every reported number are those of
the full-tableau simplex.

Standard form and index conventions, shared by :func:`solve` and
:func:`certify`:

* every row is first normalized to a nonnegative right-hand side ("" >= ""
  rows with rhs <= 0 and "<=" rows with rhs < 0 are negated, swapping the
  relation), then column ``num_vars + i`` holds the slack of row i, with
  coefficient +1 when the normalized relation is "<=" and -1 when it is ">=";
* phase 1 introduces an artificial variable, column ``ncols + i`` with
  ``ncols = num_vars + len(rows)``, only for a normalized ">=" row i (its
  slack starts negative at the origin), and ends with every artificial
  pivoted out of the basis, so every row is kept and no artificial column
  appears in a reported basis;
* ``basis`` and ``reduced_costs`` use these column indices; maximization is
  solved by negating the objective, and reduced costs are reported for the
  problem as posed, so at an optimum they are >= 0 for "min" programs and
  <= 0 for "max" programs on nonbasic columns.

:func:`certify` checks a claimed optimum as a primal-dual pair: the
assignment must be feasible, the row duals read off the slack columns'
reduced costs must be dual feasible, and the two must meet complementary
slackness.  It reads neither the basis nor the kept rows.  Like the solver
it works in integers: every reduced cost it recomputes is one integer over a
common denominator, and a :class:`Fraction` is built only for the text of a
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping

from .box import ZERO, LPError, NBox, _rational
from .lp import ExtremalLayout, LinearProgram, VertexAssignment, _point_slacks


@dataclass(frozen=True)
class SolveStats:
    """What a solve did, as counts that do not depend on the machine.

    ``phase1_pivots`` includes the pivots that move artificials out of the
    basis, so ``phase1_pivots + phase2_pivots`` is the solution's ``pivots``.
    ``cells_touched`` counts the cells, right-hand sides included, that
    :func:`_clear` writes in the constraint rows the solver holds: the held
    rows other than the pivot row at each pivot, and each logical row as it
    is rebuilt.  :func:`_clear` returns the count of its sweep.  Each cell
    counts once per row update: when the reduced pivot cell is 1, the pivot
    row's nonzeros, taken once per sweep as the number of rows met times one
    plus the pivot row's length; when the row is scaled first, the union of
    both rows' nonzeros, taken row by row.  The objective row's update is not
    counted.
    ``column_gathers`` counts the ratio tests that found no row at value 0
    with a positive cell in the entering column, and so gathered the whole
    entering column and compared every ratio; the others stopped at a zero
    ratio after scanning the held rows and the vertex's tight rows.
    The solution's ``peak_denominator_bits`` is the largest denominator, in
    bits, of the rows the solver holds: the program rows, the held rows,
    rebuilt rows, pivot rows and the objective row.  Logical rows that are
    never rebuilt are not seen, so a full tableau can peak higher.
    """

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    cells_touched: int = 0
    column_gathers: int = 0


@dataclass(frozen=True)
class SimplexSolution:
    """Outcome of a solve.

    For non-optimal statuses only ``status``, ``pivots``,
    ``peak_denominator_bits`` and ``stats`` are meaningful.  ``assignment``
    covers every structural variable (nonbasic ones at 0).  ``basis`` is
    reported data: :func:`certify` does not read it.  ``kept_rows`` is the
    row index paired with each basis entry; the solver keeps every row, so it
    is ``0 .. len(rows) - 1``.  No package code reads it.
    """

    status: str
    objective: Fraction | None
    assignment: Mapping[int, Fraction]
    basis: tuple[int, ...]
    kept_rows: tuple[int, ...]
    reduced_costs: Mapping[int, Fraction]
    pivots: int
    peak_denominator_bits: int
    stats: SolveStats = SolveStats()


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    failures: tuple[str, ...]


# A tableau row: (denominator > 0, {column: nonzero cell}, right-hand side).
_Row = tuple[int, dict[int, int], int]


def _normalize(den: int, cells: dict[int, int], rhs: int) -> _Row:
    """Divide a row by the gcd of its denominator, cells and right-hand side.

    A row over denominator 1 is returned as it is, common factor and all:
    its cells are already the exact integer values, so dividing them would
    only cost a gcd pass.  Every other row it returns is primitive.  The gcd
    of the denominator and right-hand side is taken first, and the cells are
    read only when it is not 1.
    """
    if den == 1:
        return den, cells, rhs
    g = gcd(den, rhs)
    if g != 1:
        g = gcd(g, *cells.values())
    if g == 1:
        return den, cells, rhs
    return den // g, {j: x // g for j, x in cells.items()}, rhs // g


def _reduce(row: _Row, col: int) -> _Row:
    """``row`` divided by its cell in ``col``, so that cell equals the denominator."""
    _, cells, rhs = row
    if cells[col] < 0:
        cells = {j: -x for j, x in cells.items()}
        rhs = -rhs
    return _normalize(cells[col], cells, rhs)


def _clear(rows: dict[int, _Row], col: int, pivot_row: _Row) -> int:
    """Clear column ``col`` of every row in ``rows``; return the cells written.

    ``pivot_row`` is reduced: its denominator equals its pivot cell.  Each
    row with a nonzero cell c in ``col`` loses c times the pivot row, which
    zeroes that cell and keeps the row's exact value otherwise, and is
    stored back in ``rows`` under its key.  When the pivot cell is 1 the
    row's cells are updated in place and only the pivot row's cells and the
    right-hand side are written; otherwise the row is first scaled by the
    pivot cell, which writes the union of both rows' nonzeros.  Both counts
    include the right-hand side.
    """
    pivot, pcells, prhs = pivot_row
    pitems = pcells.items()
    met = written = 0
    for k, (den, cells, rhs) in rows.items():
        c = cells.get(col)
        if not c:
            continue
        if pivot == 1:
            met += 1
        else:
            written += 1 + len(cells.keys() | pcells.keys())
            cells = {j: a * pivot for j, a in cells.items()}
            rhs *= pivot
            den *= pivot
        get = cells.get
        for j, b in pitems:
            x = get(j, 0) - c * b
            if x:
                cells[j] = x
            else:
                del cells[j]
        rows[k] = _normalize(den, cells, rhs - c * prhs)
    return written + met * (1 + len(pcells))


def _dot(cells: dict[int, int], weight: Callable[[int], int | None]) -> int:
    """The sum of ``cells[j] * weight(j)`` over a row's cells; a weight of None counts as 0."""
    total = 0
    for j, x in cells.items():
        w = weight(j)
        if w:
            total += x * w
    return total


class _Solver:
    """One solve in progress.

    ``basis`` (position -> column) and its inverse ``where`` are the whole
    basis, laid out as the module docstring says; positions never reorder or
    drop.  ``rows`` holds the tableau row of each position whose basic
    column is structural, so never more than ``num_vars`` rows.  A position
    whose basic column is the logical column of program row i holds nothing:
    its row is rebuilt from ``originals[i]`` when it is needed whole, and the
    ratio test computes only its entering cell, reading its right-hand side
    off ``gaps[i]``.  ``gaps`` and ``tight`` describe the vertex as of the
    last :meth:`_refresh`; ``stale`` says the vertex has moved since.
    ``originals`` is the only copy of the program the solver keeps.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.pivots = 0
        self.phase1_pivots = 0
        self.cells_touched = 0
        nv = self.num_vars = lp.num_vars
        ncols = self.ncols = nv + len(lp.rows)

        # Program row i in standard form with its slack and artificial cells.
        self.originals: list[_Row] = []
        self.basis: list[int] = []  # position -> basic column
        for i, row in enumerate(lp.rows):
            den, num = row.den, row.num
            geq = row.relation == ">="
            sign = -1 if num < 0 or (num == 0 and geq) else 1  # to a right-hand side >= 0
            cells = {j: sign * a for j, a in row.terms}
            if geq == (sign == 1):  # ">=" once the sign is applied
                cells[nv + i], cells[ncols + i] = -den, den  # a cell equal to den is a 1
                self.basis.append(ncols + i)
            else:
                cells[nv + i] = den
                self.basis.append(nv + i)
            self.originals.append((den, cells, sign * num))
        self.where = {b: r for r, b in enumerate(self.basis)}  # basic column -> position
        self.num_art = sum(b >= ncols for b in self.basis)
        self.rows: dict[int, _Row] = {}  # position -> tableau row, for structural basics
        self.peak_bits = max((den.bit_length() for den, _, _ in self.originals), default=1)
        self.column_gathers = 0  # ratio tests that gathered the whole entering column
        self.stale = True  # the vertex moved since the gaps were computed
        self.gaps: list[int] = []  # program row -> its gap at the vertex, see _refresh
        self.gaps_den = 1
        self.tight: list[int] = []  # program rows at gap 0, ascending

    def _owner(self, col: int) -> int:
        """The program row of a logical column."""
        return col - self.num_vars if col < self.ncols else col - self.ncols

    def _tableau_row(self, r: int) -> _Row:
        """The tableau row at position ``r``, reduced on its basic column.

        A held row is returned as it is.  Otherwise the basic column is the
        logical column of program row i, whose coefficient there is +-1, and the
        row is program row i less, for each structural basic j, its cell in j
        times the held row of j: that clears every basic column but its own.
        """
        row = self.rows.get(r)
        if row is not None:
            return row
        b = self.basis[r]
        den, cells, rhs = self.originals[self._owner(b)]
        built = {r: (den, dict(cells), rhs)}  # a copy: _clear updates its cells in place
        nv, where, held = self.num_vars, self.where, self.rows
        for j in cells:
            if j < nv and j in where:
                self.cells_touched += _clear(built, j, held[where[j]])
        row = _reduce(built[r], b)
        self.peak_bits = max(self.peak_bits, row[0].bit_length())
        return row

    def _reduced_cost_row(self, objrow: _Row) -> _Row:
        """Objective row c - sum over rows of c_basic * row; its right-hand side is -objective.

        ``objrow`` is the cost row c; its cells may be updated in place.  A basic
        column's cell equals its row's denominator, so clearing it takes
        c_basic * row.
        """
        built = {-1: objrow}
        for r, b in enumerate(self.basis):
            if built[-1][1].get(b):
                _clear(built, b, self._tableau_row(r))
        return built[-1]

    def _refresh(self) -> None:
        """Recompute every program row's gap at the current vertex, and the tight rows.

        Row i's gap is b_i - a_i . x, with x the structural basics' values.
        Over the row's integer form (den_i, a_ij, rhs_i) it is kept times
        den_i * L, as the integer rhs_i * L - sum over structural basics j of
        a_ij * X_j, where x_j = X_j / L and L (``gaps_den``) is the lcm of the
        held denominators of the nonzero x_j.  One :func:`_dot` per program
        row, with the X_j as the weights.
        """
        nonzero = [(self.basis[r], den, rhs) for r, (den, _, rhs) in self.rows.items() if rhs]
        big = lcm(*(den for _, den, _ in nonzero))
        x = {j: rhs * (big // den) for j, den, rhs in nonzero}.get
        gaps = [rhs * big - _dot(cells, x) for _, cells, rhs in self.originals]
        self.gaps, self.gaps_den = gaps, big
        self.tight = [i for i, gap in enumerate(gaps) if not gap]
        self.stale = False

    def _leaving(self, enter: int) -> int:
        """The position that leaves when ``enter`` enters, or -1 if none bounds it.

        The least ratio rhs / cell over the rows with a positive cell in
        ``enter``, ties going to the lowest basic column.  Every right-hand
        side is >= 0, so if some row at value 0 has a positive cell, the least
        ratio is 0 and the answer is the lowest basic column among those rows.
        That is looked for first, in two steps:

        * a held row at value 0 with a positive cell wins at once, since
          structural columns come before every logical column;
        * otherwise the tight rows whose logical column is basic (their
          logical row's right-hand side is 0) are scanned in basic-column
          order, and the first whose cell is positive wins: one pass over
          ``tight`` at the slacks, then, if any, one at the artificials.

        The logical row of program row i has the cell a_ie - sum over held
        rows j of a_ij * T_j[e], times +-1: over L = lcm of the denominators
        of the held rows that meet ``enter``, it is the :func:`_dot` of
        program row i with the weights L at ``enter`` and -T_j[e] * L at each
        such held row's basic column j.  Only when no zero ratio exists is
        that cell computed for every logical row, with its right-hand side
        read off the gaps that :meth:`_refresh` keeps, which only a pivot
        that moves the vertex makes stale.
        """
        basis, where = self.basis, self.where
        meets = [
            (r, den, cells[enter], rhs)
            for r, (den, cells, rhs) in self.rows.items()
            if enter in cells
        ]
        zero = [r for r, _, c, rhs in meets if c > 0 and not rhs]
        if zero:
            return min(zero, key=basis.__getitem__)

        if self.stale:
            self._refresh()
        big = lcm(*(den for _, den, _, _ in meets))
        weight = {basis[r]: -c * (big // den) for r, den, c, _ in meets}
        weight[enter] = big
        get, originals, nv, ncols = weight.get, self.originals, self.num_vars, self.ncols
        for base in (nv, ncols) if self.num_art else (nv,):
            for i in self.tight:
                r = where.get(base + i)
                if r is not None:
                    cells = originals[i][1]
                    a = _dot(cells, get)
                    if a and (a > 0) == (cells[base + i] > 0):
                        return r

        self.column_gathers += 1
        # Compare ratios num / den > 0 by cross-multiplication; a held row's is rhs / c.
        leave, best_num, best_den = -1, 0, 1
        for r, _, c, rhs in meets:
            if c > 0:
                diff = rhs * best_den - best_num * c
                if leave < 0 or diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                    leave, best_num, best_den = r, rhs, c
        # A logical row's ratio is (gap / gaps_den) / (cell / big), both times +-1.
        gaps, gaps_den = self.gaps, self.gaps_den
        for b, r in where.items():
            if b < nv:
                continue
            i = self._owner(b)
            cells = originals[i][1]
            sign = 1 if cells[b] > 0 else -1
            a = sign * _dot(cells, get)
            if a <= 0:
                continue
            num, den = sign * gaps[i] * big, a * gaps_den
            diff = num * best_den - best_num * den
            if leave < 0 or diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                leave, best_num, best_den = r, num, den
        return leave

    def _kernel(self, objrow: _Row) -> tuple[str, _Row]:
        """Pivot by Bland's rule until optimal or unbounded; any column of ``objrow`` may enter."""
        while True:
            enter = min((j for j, x in objrow[1].items() if x < 0), default=-1)
            if enter < 0:
                return "optimal", objrow
            leave = self._leaving(enter)
            if leave < 0:
                return "unbounded", objrow
            objrow = self._pivot(leave, enter, objrow, self._tableau_row(leave))

    def _pivot(
        self, leave: int, enter: int, objrow: _Row | None, leave_row: _Row
    ) -> _Row | None:
        """Make ``enter`` basic at position ``leave``; update the held rows and the objective row.

        ``leave_row`` is the tableau row at ``leave``, as :meth:`_tableau_row` gives it.
        """
        self.pivots += 1
        if leave_row[2]:  # a nonzero step moves the vertex
            self.stale = True
        pivot_row = _reduce(leave_row, enter)
        rows = self.rows
        rows.pop(leave, None)
        self.cells_touched += _clear(rows, enter, pivot_row)
        dens = [pivot_row[0]]
        if pivot_row[0] != 1:
            # Only a scaled pivot can raise a held row's denominator; a unit
            # pivot can only divide it, and it was counted when it was written.
            dens += [den for den, _, _ in rows.values()]
        if objrow is not None:
            built = {-1: objrow}
            _clear(built, enter, pivot_row)
            objrow = built[-1]
            dens.append(objrow[0])
        self.peak_bits = max(self.peak_bits, max(dens).bit_length())

        del self.where[self.basis[leave]]
        self.where[enter], self.basis[leave] = leave, enter
        if enter < self.num_vars:
            rows[leave] = pivot_row
        return objrow

    def _phase_one(self) -> bool:
        """Drive artificials to zero; False means the program is infeasible."""
        costs = {b: 1 for b in self.basis if b >= self.ncols}
        status, (_, _, orhs) = self._kernel(self._reduced_cost_row((1, costs, 0)))
        assert status == "optimal"  # phase-1 objective is bounded below by 0
        if orhs:
            return False
        for r, b in enumerate(self.basis):
            if b < self.ncols:
                continue
            # An artificial still basic, at value 0.  Every row owns its own
            # slack column, so [A | +-I] has full row rank and this row has a
            # nonzero structural or slack cell; pivoting on any nonzero cell
            # keeps the basis feasible because the row's value is 0.
            row = self._tableau_row(r)
            self._pivot(r, min(j for j in row[1] if j < self.ncols), None, row)
        return True

    def _truncate(self) -> None:
        """Cut every held and program row back to the structural and slack columns."""
        ncols = self.ncols
        self.rows = {
            r: _normalize(den, {j: a for j, a in cells.items() if j < ncols}, rhs)
            for r, (den, cells, rhs) in self.rows.items()
        }
        # The artificial cell equals the denominator, so the program rows stay primitive.
        for i, (_, cells, _) in enumerate(self.originals):
            cells.pop(ncols + i, None)

    def _stats(self) -> SolveStats:
        return SolveStats(
            self.phase1_pivots,
            self.pivots - self.phase1_pivots,
            self.cells_touched,
            self.column_gathers,
        )

    def run(self) -> SimplexSolution:
        feasible = not self.num_art or self._phase_one()
        self.phase1_pivots = self.pivots
        if not feasible:
            return SimplexSolution(
                "infeasible", None, {}, (), (), {}, self.pivots, self.peak_bits, self._stats()
            )
        self._truncate()  # so no artificial column can enter in phase 2
        oden, oterms = self.lp.integer_objective
        flip = 1 if self.lp.sense == "min" else -1
        costs = {j: flip * a for j, a in oterms}
        status, (oden, ocells, orhs) = self._kernel(self._reduced_cost_row((oden, costs, 0)))
        if status == "unbounded":
            return SimplexSolution(
                "unbounded", None, {}, (), (), {}, self.pivots, self.peak_bits, self._stats()
            )
        internal = Fraction(-orhs, oden)
        assignment = {j: ZERO for j in range(self.num_vars)}
        for r, (den, _, rhs) in self.rows.items():
            assignment[self.basis[r]] = Fraction(rhs, den)
        reduced = dict.fromkeys(range(self.ncols), ZERO)
        for j, a in ocells.items():  # every artificial column was cut
            reduced[j] = Fraction(flip * a, oden)
        return SimplexSolution(
            "optimal",
            flip * internal,
            assignment,
            tuple(self.basis),
            tuple(range(len(self.basis))),
            reduced,
            self.pivots,
            self.peak_bits,
            self._stats(),
        )


def solve(lp: LinearProgram) -> SimplexSolution:
    """Solve ``lp`` exactly.

    The entering column is the lowest index with a negative reduced cost
    (Bland's rule); the leaving row is the smallest exact ratio, ties broken
    by the lowest basic variable index.  Bland's rule cannot cycle, so every
    input ends optimal, infeasible or unbounded.
    """
    return _Solver(lp).run()


def certify(lp: LinearProgram, solution: SimplexSolution) -> CertificateReport:
    """Check a claimed optimum as a primal-dual pair, from first principles.

    Reads only ``status``, ``objective``, ``assignment`` and
    ``reduced_costs``; ``basis`` and ``kept_rows`` play no part.  In the
    internal minimization convention, with each row as posed written as the
    equality ``a_i x + sigma_i s_i = b_i`` over nonnegative structural and
    slack columns (``sigma_i`` is +1 for "<=" and -1 for ">=", and ``s_i``
    is the row's gap), the claim passes when:

    1. the assignment covers every variable, satisfies every row and bound
       exactly (:func:`qcmass.lp.check_point`) and gives the claimed
       objective;
    2. the dual vector read off the slack columns' claimed reduced costs,
       ``y_i = -sigma_i * flip * reduced_costs[num_vars + i]`` (``flip`` is
       +1 for "min" and -1 for "max"), has reduced costs
       ``d = c - sum of y_i a_i``, recomputed here over every structural and
       slack column, that are all >= 0 (dual feasibility) and vanish on every
       column with a nonzero value (complementary slackness).

    Negating a row, as the solver does to make its right-hand side
    nonnegative, negates its dual and leaves every reduced cost as it is, so
    the solver's reduced costs apply to the rows as posed.

    The check runs in integers.  Each nonzero dual is read once, as
    ``y_i = p_i / q_i``, and every reduced cost is held as the integer
    ``d_j * big``, ``big`` the lcm of the objective's denominator and every
    ``q_i * den_i`` (row i holds its coefficients as integer ``terms`` over
    ``den_i``).  A structural column starts at its integer cost times
    ``big`` over the objective's denominator and loses
    ``p_i * big / (q_i * den_i)`` times each integer term of row i; the
    slack column of row i is ``-sigma_i * p_i * big / q_i``.  Each is
    compared with 0 as an int, and a value, a slack's included, is read off
    the integers that the feasibility pass of :func:`qcmass.lp.check_point`
    summed, so no row is converted or summed again here.  A
    :class:`Fraction` is built only for the text of a failure.

    Then for every feasible point ``(x', s')``, ``c x' = y b + d (x', s') >=
    y b``, and for the claimed point the last term is 0, so ``c x = y b`` is
    the least objective: a pass is a weak-duality proof of optimality.  Every
    number of ``y`` and ``d`` is checked rather than trusted, so where ``y``
    came from does not matter; a wrong one can only fail a claim.
    """
    if solution.status != "optimal":
        raise LPError("only optimal solutions can be certified")
    nv = lp.num_vars
    if set(solution.assignment) != set(range(nv)):
        return CertificateReport(False, ("assignment must cover every variable",))
    try:
        x = [_rational(solution.assignment[j], "value", LPError) for j in range(nv)]
    except LPError as exc:
        raise LPError(f"assignment {solution.assignment!r} has a non-rational value") from exc
    report, den, xs, slacks = _point_slacks(lp, x)
    failures = [
        f"variable {lp.var_names[v.index]} is negative: {v.lhs}"
        if v.family == "N"
        else f"row {v.index} violated: {v.lhs} {v.relation} {v.rhs}"
        for v in report.violations
    ]
    if report.objective_value != solution.objective:
        failures.append(
            f"objective mismatch: assignment gives {report.objective_value}, "
            f"solution claims {solution.objective}"
        )
    ncols = nv + len(lp.rows)
    if set(solution.reduced_costs) != set(range(ncols)):
        failures.append("reduced costs must cover every column")
        return CertificateReport(False, tuple(failures))

    flip = 1 if lp.sense == "min" else -1
    oden, oterms = lp.integer_objective
    duals = []  # (i, row, sigma_i, p, q) with the dual y_i = p / q
    for i, row in enumerate(lp.rows):
        reduced = solution.reduced_costs[nv + i]
        if reduced:
            p, q = _rational(reduced, "slack reduced cost", LPError).as_integer_ratio()
            sigma = 1 if row.relation == "<=" else -1
            duals.append((i, row, sigma, -sigma * flip * p, q))
    # Each reduced cost is held times ``big``, a multiple of every denominator met.
    big = lcm(oden, *[q * row.den for _, row, _, _, q in duals])
    d = [0] * ncols  # starting from the internal (minimized) costs
    scale = big // oden
    for j, a in oterms:
        d[j] = flip * a * scale
    for i, row, sigma, p, q in duals:
        per_unit = p * (big // (q * row.den))
        for j, a in row.terms:
            d[j] -= per_unit * a
        d[nv + i] = -sigma * p * (big // q)
    values = xs + slacks  # over den, and a slack over den * row.den too
    for j, dj in enumerate(d):
        if dj < 0:
            failures.append(f"column {j} has negative reduced cost {Fraction(dj, big)}")
        elif dj and values[j]:
            value = x[j] if j < nv else Fraction(values[j], lp.rows[j - nv].den * den)
            failures.append(
                f"complementary slackness fails on column {j}: "
                f"value {value}, reduced cost {Fraction(dj, big)}"
            )
    return CertificateReport(not failures, tuple(failures))


def solution_to_assignment(
    layout: ExtremalLayout, solution: SimplexSolution
) -> VertexAssignment:
    """Read a solved extremal program back as a box plus corner values."""
    if solution.status != "optimal":
        raise LPError("only optimal solutions carry an assignment")
    get = solution.assignment.__getitem__
    intervals = tuple(
        (get(layout.corner_vars[i]), get(layout.corner_vars[i]) + get(layout.length_vars[i]))
        for i in range(layout.dimension)
    )
    values = {flags: get(j) for flags, j in layout.vertex_vars.items()}
    return VertexAssignment(NBox(intervals), values)
