"""Exact simplex: small programs, the extremal family, and certificates."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from qcmass import simplex
from qcmass.lp import (
    LinearProgram,
    LPError,
    Row,
    build_extremal_lp,
    build_symmetric_lp,
    check_assignment,
    check_point,
)
from qcmass.simplex import SolveStats, certify, solution_to_assignment, solve

from support import (
    dense_certify,
    dense_solve,
    random_small_lp,
    ref_integer_row,
    ref_prepared_rows,
    reference_certify,
)

F = Fraction


def single_var(relation: str, rhs: Fraction, sense: str) -> LinearProgram:
    return LinearProgram(
        1, ("x",), sense, ((0, F(1)),), (Row("", ((0, F(1)),), relation, rhs),)
    )


# ------------------------------------------------------------ tiny programs


def test_min_above_floor() -> None:
    solution = solve(single_var(">=", F(1, 3), "min"))
    assert solution.status == "optimal"
    assert solution.objective == F(1, 3)
    assert solution.assignment[0] == F(1, 3)
    assert certify(single_var(">=", F(1, 3), "min"), solution).ok


def test_negative_cap_is_infeasible() -> None:
    solution = solve(single_var("<=", F(-1), "min"))
    assert solution.status == "infeasible"
    assert solution.objective is None


def test_max_unbounded() -> None:
    solution = solve(single_var(">=", F(0), "max"))
    assert solution.status == "unbounded"
    assert solution.objective is None


def test_max_against_cap() -> None:
    solution = solve(single_var("<=", F(5), "max"))
    assert solution.status == "optimal"
    assert solution.objective == F(5)


def test_zero_objective_extremal_program() -> None:
    lp, layout = build_extremal_lp(2, "min")
    flat = LinearProgram(lp.num_vars, lp.var_names, "min", ((0, F(0)),), lp.rows)
    solution = solve(flat)
    assert solution.status == "optimal"
    assert solution.objective == F(0)
    # with nothing to optimize the all-zero corner is already optimal
    assert all(v == 0 for v in solution.assignment.values())


def test_negative_rhs_geq_row_feasible() -> None:
    # a >= row with negative rhs is slack at the origin; no artificial needed
    lp = LinearProgram(
        1, ("x",), "min", ((0, F(1)),), (Row("", ((0, F(1)),), ">=", F(-2)),)
    )
    solution = solve(lp)
    assert solution.status == "optimal"
    assert solution.objective == F(0)


# ----------------------------------------------------------- row arithmetic


def row_value(row) -> tuple[dict, Fraction]:
    """A tableau row ``(den, cells, rhs)`` as Fractions: its cells and right-hand side."""
    den, cells, rhs = row
    return {j: F(x, den) for j, x in cells.items()}, F(rhs, den)


def assert_normal(before, after) -> None:
    """``after`` is ``before`` normalized: same value, no zero cell, primitive unless over 1."""
    den, cells, rhs = after
    assert den > 0 and all(cells.values())
    assert row_value(after) == row_value(before)
    if before[0] == 1:
        assert after == before  # a den-1 row keeps any common factor
    else:
        assert gcd(den, rhs, *cells.values()) == 1


def test_normalize_matches_fraction_reference() -> None:
    # Four kinds of row, each then scaled by a random factor:
    # gcd(den, rhs) == 1; gcd(den, rhs) > 1 with the cells coprime to it, so
    # only the second gcd, over the cells, shows the row is primitive; rhs
    # == 0; and a den-1 row that keeps a common factor.
    rng = random.Random("normalize")
    cases = [(6, {0: 4, 1: 9}, 3), (4, {0: 2, 1: 6}, 0), (1, {0: 2, 1: 4}, 6), (5, {2: 10}, 3)]
    for _ in range(200):
        kind = rng.randrange(4)
        den = 1 if kind == 3 else rng.randint(2, 30)
        cells = {j: rng.choice((-1, 1)) * rng.randint(1, 40) for j in rng.sample(range(12), 4)}
        rhs = 0 if kind == 2 else rng.randint(0, 60)
        if kind == 0:
            rhs = rhs * den + 1
        elif kind == 1:
            p = rng.choice((2, 3, 5, 7))
            den, rhs = den * p, rhs * p
            cells[12] = p * rng.randint(1, 5) + 1  # coprime to p
        factor = rng.randint(1, 6)
        scaled = {j: x * factor for j, x in cells.items()}
        cases.append((den * factor if den > 1 else 1, scaled, rhs * factor))
    kinds = set()
    for den, cells, rhs in cases:
        kinds.add(
            "den 1" if den == 1 else "rhs 0" if not rhs else "coprime" if gcd(den, rhs) == 1
            else "cells coprime" if gcd(gcd(den, rhs), *cells.values()) == 1 else "divided"
        )
        assert_normal((den, dict(cells), rhs), simplex._normalize(den, dict(cells), rhs))
    assert kinds == {"den 1", "rhs 0", "coprime", "cells coprime", "divided"}
    assert simplex._normalize(6, {0: 4, 1: 9}, 3) == (6, {0: 4, 1: 9}, 3)
    assert simplex._normalize(4, {0: 2, 1: 6}, 0) == (2, {0: 1, 1: 3}, 0)


@pytest.mark.parametrize("unit", [True, False])
def test_clear_matches_fraction_reference(unit: bool) -> None:
    # _clear against Fraction row operations on a dict of held rows, over a
    # unit pivot row (reduced pivot cell 1) and scaled ones, with the count of
    # cells written: the pivot row's cells plus the right-hand side for a
    # unit pivot, the union of both rows' cells plus it for a scaled one.
    rng = random.Random(f"clear-{unit}")
    col = 3
    for _ in range(100):
        pden = 1 if unit else rng.randint(2, 9)
        pcells = {j: rng.randint(-20, 20) for j in rng.sample(range(10), 5)}
        pcells = {j: x for j, x in pcells.items() if x and j != col}
        pcells[col] = pden
        pivot_row = simplex._normalize(pden, pcells, rng.randint(0, 30))
        if pivot_row[0] != pden:
            continue  # normalized to a smaller pivot cell: not a reduced row
        rows = {}
        for k in range(8):
            den = rng.choice((1, 1, 2, 3, 4, 6))
            cells = {j: rng.randint(-9, 9) for j in rng.sample(range(10), 6)}
            cells = {j: x for j, x in cells.items() if x}
            rows[k] = simplex._normalize(den, cells, rng.randint(0, 20))
        before = {k: (den, dict(cells), rhs) for k, (den, cells, rhs) in rows.items()}
        expected_written = 0
        expected = {}
        pvalue, prhs = row_value(pivot_row)
        for k, row in before.items():
            value, rhs = row_value(row)
            c = value.get(col, 0)
            if c:
                written = pivot_row[1] if unit else row[1].keys() | pivot_row[1].keys()
                expected_written += 1 + len(written)
                for j, b in pvalue.items():
                    value[j] = value.get(j, 0) - c * b
                value = {j: x for j, x in value.items() if x}
                rhs -= c * prhs
            expected[k] = (value, rhs)
        cells_of = {k: rows[k][1] for k in rows}
        assert simplex._clear(rows, col, pivot_row) == expected_written
        for k, row in rows.items():
            assert row_value(row) == expected[k]
            assert col not in row[1]
            if before[k][1].get(col) is None:
                assert row == before[k]
            elif before[k][0] > 1:
                assert gcd(row[0], row[2], *row[1].values()) == 1
            elif unit:
                assert row[1] is cells_of[k]  # a unit pivot updates the cells in place


# --------------------------------------------------------- extremal family

KNOWN = {
    (2, "min"): (F(-1, 3), 7),
    (2, "max"): (F(1), 4),
    (3, "min"): (F(-4, 5), 13),
    (3, "max"): (F(1), 14),
    (4, "min"): (F(-9, 7), 67),
    (4, "max"): (F(2), 38),
}


@pytest.mark.parametrize("n,sense", sorted(KNOWN))
def test_extremal_optima(n: int, sense: str) -> None:
    lp, layout = build_extremal_lp(n, sense)
    solution = solve(lp)
    objective, pivots = KNOWN[(n, sense)]
    assert solution.status == "optimal"
    assert solution.objective == objective
    # pivot counts are regression data for the deterministic pivot rule
    assert solution.pivots == pivots
    assert solution.kept_rows == tuple(range(len(lp.rows)))
    assert certify(lp, solution).ok

    witness = solution_to_assignment(layout, solution)
    report = check_assignment(lp, layout, witness)
    assert report.feasible
    assert report.objective_value == objective


# (phase1_pivots, phase2_pivots, cells_touched, peak_denominator_bits): all
# four are machine-independent, so a change to the row arithmetic that keeps
# the pivots but writes more cells or grows denominators shows here.
KNOWN_STATS = {
    (2, "min"): (0, 7, 195, 2),
    (2, "max"): (0, 4, 35, 1),
    (3, "min"): (0, 13, 633, 3),
    (3, "max"): (0, 14, 807, 2),
    (4, "min"): (0, 67, 13975, 4),
    (4, "max"): (0, 38, 4966, 3),
    (5, "min"): (0, 140, 59354, 4),
    (5, "max"): (0, 170, 59274, 4),
}


@pytest.mark.parametrize("n,sense", sorted(KNOWN_STATS))
def test_extremal_solve_stats(n: int, sense: str) -> None:
    solution = solve(build_extremal_lp(n, sense)[0])
    stats = solution.stats
    assert (
        stats.phase1_pivots,
        stats.phase2_pivots,
        stats.cells_touched,
        solution.peak_denominator_bits,
    ) == KNOWN_STATS[(n, sense)]


# Ratio tests that found no zero ratio and gathered the whole entering column
# (SolveStats.column_gathers); every other one ended at a zero ratio.
KNOWN_GATHERS = {
    (2, "min"): 1,
    (2, "max"): 1,
    (3, "min"): 1,
    (3, "max"): 1,
    (4, "min"): 7,
    (4, "max"): 2,
    (5, "min"): 6,
    (5, "max"): 5,
}


@pytest.mark.parametrize("n,sense", sorted(KNOWN_GATHERS))
def test_extremal_column_gathers(n: int, sense: str) -> None:
    assert solve(build_extremal_lp(n, sense)[0]).stats.column_gathers == KNOWN_GATHERS[(n, sense)]


def test_extremal_optima_n6() -> None:
    # (phase1, phase2, cells_touched, peak bits) and column gathers, as in
    # KNOWN_STATS and KNOWN_GATHERS.  Of the pinned solves, these and n=7 min
    # make the most scaled row updates (2,515, 1,925 and 21,579), so they
    # guard the cell count and the peak of both kinds of pivot.
    known = (
        ("min", F(-75, 16), 982, (0, 982, 1013373, 6), 16),
        ("max", F(11, 2), 874, (0, 874, 861821, 4), 6),
    )
    for sense, objective, pivots, stats, gathers in known:
        lp, layout = build_extremal_lp(6, sense)
        solution = solve(lp)
        assert solution.status == "optimal"
        assert solution.objective == objective
        # both counts were confirmed once against the dense oracle
        assert solution.pivots == pivots
        s = solution.stats
        assert (
            s.phase1_pivots,
            s.phase2_pivots,
            s.cells_touched,
            solution.peak_denominator_bits,
        ) == stats
        assert s.column_gathers == gathers
        assert certify(lp, solution).ok
        report = check_assignment(lp, layout, solution_to_assignment(layout, solution))
        assert report.feasible
        assert report.objective_value == objective


def test_extremal_optimum_n7() -> None:
    # 1927 rows and 142 variables: the full program agrees with the
    # axis-symmetric relaxation, and its certificate passes
    lp, layout = build_extremal_lp(7, "min")
    solution = solve(lp)
    assert solution.status == "optimal"
    assert solution.objective == F(-19, 2)
    assert solution.pivots == 3062
    s = solution.stats
    assert (
        s.phase1_pivots,
        s.phase2_pivots,
        s.cells_touched,
        solution.peak_denominator_bits,
    ) == (0, 3062, 9557098, 6)
    assert s.column_gathers == 26
    assert solution.objective == solve(build_symmetric_lp(7, "min")).objective
    assert certify(lp, solution).ok
    assert check_assignment(lp, layout, solution_to_assignment(layout, solution)).feasible


def test_denominators_stay_small() -> None:
    # exact pivoting keeps every tableau entry's denominator far below the
    # 64-bit line on the whole family up to dimension 5
    for n in (2, 3, 4, 5):
        solution = solve(build_extremal_lp(n, "min")[0])
        assert solution.status == "optimal"
        assert solution.peak_denominator_bits <= 64
        if n <= 4:
            assert solution.peak_denominator_bits <= 8


def test_n5_minimum_recorded() -> None:
    lp, _ = build_extremal_lp(5, "min")
    solution = solve(lp)
    assert solution.objective == F(-32, 13)
    assert solution.pivots == 140
    assert certify(lp, solution).ok


def test_reduced_cost_signs() -> None:
    for sense, good in (("min", lambda d: d >= 0), ("max", lambda d: d <= 0)):
        solution = solve(build_extremal_lp(2, sense)[0])
        assert all(good(d) for d in solution.reduced_costs.values())


@pytest.mark.parametrize("seed", range(4))
def test_row_shuffle_dimension_four(seed: int) -> None:
    rng = random.Random(seed)
    lp, _ = build_extremal_lp(4, "min")
    rows = list(lp.rows)
    rng.shuffle(rows)
    shuffled = LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, tuple(rows))
    solution = solve(shuffled)
    assert solution.objective == F(-9, 7)
    assert certify(shuffled, solution).ok


# ---------------------------------------------------- dense oracle agreement


class WatchedSolver(simplex._Solver):
    """The solver, checking after every pivot which tableau rows it holds.

    It must hold exactly the rows of the structural basic columns, each
    reduced on its basic column, so never more than ``num_vars`` of them.
    """

    most_held = 0

    def _pivot(self, leave, enter, objrow, leave_row):
        objrow = super()._pivot(leave, enter, objrow, leave_row)
        assert {self.basis[r] for r in self.rows} == {j for j in self.basis if j < self.num_vars}
        assert all(row[1][self.basis[r]] == row[0] for r, row in self.rows.items())
        assert len(self.rows) <= self.num_vars
        self.most_held = max(self.most_held, len(self.rows))
        return objrow


def solve_checked(lp: LinearProgram):
    """``solve`` by hand, watching the held rows; every final held row is primitive with no zero cell.

    The program rows the solver rebuilds logical rows from must come out of
    the solve unchanged (artificial cells aside): rebuilding updates a copy.
    """
    solver = WatchedSolver(lp)
    solution = solver.run()
    for den, cells, rhs in solver.rows.values():
        assert den > 0 and all(cells.values())
        assert gcd(den, rhs, *cells.values()) == 1
    fresh = simplex._Solver(lp)
    for (den, cells, rhs), (fden, fcells, frhs) in zip(solver.originals, fresh.originals):
        assert (den, rhs) == (fden, frhs)
        assert {j: x for j, x in cells.items() if j < fresh.ncols} == {
            j: x for j, x in fcells.items() if j < fresh.ncols
        }
    return solution


def assert_matches_dense(lp: LinearProgram):
    """Every field equal to the dense oracle's; the held rows touch no more cells and peak no higher.

    The oracle still drops rows whose artificial it cannot pivot out, so the
    equal ``kept_rows`` also shows that the sparse solver never needs to.
    Every row the solver holds is a row of the oracle's full tableau, so its
    peak denominator is at most the oracle's.
    """
    sparse, dense = solve_checked(lp), dense_solve(lp)
    assert sparse.stats.cells_touched <= dense.stats.cells_touched
    assert sparse.peak_denominator_bits <= dense.peak_denominator_bits
    unmeasured = {"stats": SolveStats(), "peak_denominator_bits": 0}
    assert replace(sparse, **unmeasured) == replace(dense, **unmeasured)
    assert (sparse.stats.phase1_pivots, sparse.stats.phase2_pivots) == (
        dense.stats.phase1_pivots,
        dense.stats.phase2_pivots,
    )
    assert sparse.stats.phase1_pivots + sparse.stats.phase2_pivots == sparse.pivots
    return sparse


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extremal_solve_matches_dense_oracle(n: int, sense: str) -> None:
    lp, _ = build_extremal_lp(n, sense)
    assert assert_matches_dense(lp).status == "optimal"
    rows = list(lp.rows)
    random.Random(f"shuffle-{n}-{sense}-bland").shuffle(rows)
    shuffled = LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, tuple(rows))
    assert assert_matches_dense(shuffled).status == "optimal"


def test_integer_row_matches_fraction_reference() -> None:
    # Each row's stored integer form and objective, and each program row the
    # solver holds, against rows converted one Fraction at a time.
    rng = random.Random("integer-row")
    programs = [random_small_lp(rng) for _ in range(200)]
    programs += [build_extremal_lp(n, "min")[0] for n in range(2, 7)]
    rows = 0
    for lp in programs:
        solver = simplex._Solver(lp)
        for row, (den, cells, num), prepared in zip(
            lp.rows, solver.originals, ref_prepared_rows(lp)
        ):
            stored = row.den, dict(row.terms), row.num
            assert stored == ref_integer_row(dict(row.coeffs), row.rhs)
            held = den, {j: a for j, a in cells.items() if j < solver.ncols}, num
            assert held == ref_integer_row(*prepared)
            rows += 1
        oden, oterms = lp.integer_objective
        assert [j for j, _ in oterms] == [j for j, _ in lp.objective]
        objective = oden, dict(oterms), 0
        assert objective == ref_integer_row(dict(lp.objective), F(0))
    assert rows > 1000


@pytest.mark.parametrize("sense", ["min", "max"])
def test_held_rows_at_dimension_five(sense: str) -> None:
    # 357 program rows and 42 variables; 41 rows held at most, pinned in both senses
    lp, _ = build_extremal_lp(5, sense)
    solver = WatchedSolver(lp)
    assert solver.run().status == "optimal"
    assert (len(lp.rows), lp.num_vars, solver.most_held) == (357, 42, 41)


def test_repeat_solves_are_identical() -> None:
    # The solver must leave nothing behind: a second solve, and a solve after
    # certify, give the same solution, stats included.
    rng = random.Random("repeat-solves")
    programs = [build_extremal_lp(4, "min")[0]] + [random_small_lp(rng) for _ in range(40)]
    for lp in programs:
        first = solve(lp)
        assert solve(lp) == first
        if first.status == "optimal":
            assert certify(lp, first).ok
            assert solve(lp) == first


def test_random_solve_matches_dense_oracle(monkeypatch: pytest.MonkeyPatch) -> None:
    rng = random.Random("random-lp-bland")
    pivot_outs = []
    pivot = simplex._Solver._pivot

    def counting_pivot(self, leave, enter, objrow, leave_row):
        if objrow is None:  # an artificial left basic at zero after phase 1
            pivot_outs.append(leave)
        return pivot(self, leave, enter, objrow, leave_row)

    monkeypatch.setattr(simplex._Solver, "_pivot", counting_pivot)
    statuses = [assert_matches_dense(random_small_lp(rng)).status for _ in range(300)]
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 30
    assert pivot_outs


class RatioCheckedSolver(simplex._Solver):
    """The solver, checking every ratio test against a plain one.

    The reference rebuilds every position's tableau row, takes the least
    ``Fraction`` ratio rhs / cell over the positive cells and breaks ties by
    the lowest basic column.  Whenever the tight rows are not marked stale,
    they must be the program rows i with a_i . x = b_i, where x holds the
    structural basics' values, recomputed in ``Fraction``s from the rows as
    posed.  After each refresh every program row's gap, tight or not, must
    be b_i - a_i . x so recomputed, negated with the row when the solver
    negates it, times den_i * ``gaps_den``: the gather reads the gaps of
    rows that are not tight.  The reference's rebuilds are left out of the
    solver's stats.
    ``slack_first`` counts the zero-ratio tests won by a slack column over an
    artificial one of a lower program row, where basic-column order and row
    order disagree.  A test must gather the whole entering column exactly
    when its least ratio is not 0.
    """

    tests = 0
    tight_checks = 0
    refreshes = 0
    zero_ratios = 0
    slack_first = 0
    pivot_outs = 0
    vertex = None

    def _reference_leaving(self, enter: int) -> int:
        touched, peak = self.cells_touched, self.peak_bits
        best = None
        at_zero = []  # basic columns of the rows at value 0 with a positive cell
        for r, basic in enumerate(self.basis):
            den, cells, rhs = self._tableau_row(r)
            cell = F(cells.get(enter, 0), den)
            if cell > 0:
                key = (F(rhs, den) / cell, basic)
                if best is None or key < best[0]:
                    best = key, r
                if not rhs:
                    at_zero.append(basic)
        self.cells_touched, self.peak_bits = touched, peak
        if best is None:
            return -1
        (ratio, winner), leave = best
        if ratio == 0:
            self.zero_ratios += 1
            if self.num_vars <= winner < self.ncols and any(
                b >= self.ncols and self._owner(b) < self._owner(winner) for b in at_zero
            ):
                self.slack_first += 1
        return leave

    def _leaving(self, enter):
        zeros, gathers = self.zero_ratios, self.column_gathers
        expected = self._reference_leaving(enter)
        leave = super()._leaving(enter)
        assert leave == expected, (enter, leave, expected)
        # a zero ratio, and only a zero ratio, is found without the gather
        assert (self.zero_ratios > zeros) == (self.column_gathers == gathers)
        self.tests += 1
        if not self.stale:
            assert self.tight == self._reference_tight()
            self.tight_checks += 1
        return leave

    def _reference_x(self) -> dict[int, F]:
        """The structural basics' nonzero values, as ``Fraction``s."""
        return {self.basis[r]: F(rhs, den) for r, (den, _, rhs) in self.rows.items() if rhs}

    def _reference_tight(self) -> list[int]:
        x = self._reference_x()
        vertex = tuple(sorted(x.items()))
        if vertex != self.vertex:  # the tight rows depend on x alone
            self.vertex = vertex
            self.tight_rows = [
                i
                for i, row in enumerate(self.lp.rows)
                if sum((c * x.get(j, 0) for j, c in row.coeffs), F(0)) == row.rhs
            ]
        return self.tight_rows

    def _refresh(self):
        super()._refresh()
        self.refreshes += 1
        x = self._reference_x()
        for row, gap in zip(self.lp.rows, self.gaps, strict=True):
            negated = row.rhs < 0 or (row.rhs == 0 and row.relation == ">=")
            expected = row.rhs - sum((c * x.get(j, 0) for j, c in row.coeffs), F(0))
            scale = row.den * self.gaps_den
            assert F(gap, scale) == (-expected if negated else expected)

    def _pivot(self, leave, enter, objrow, leave_row):
        if objrow is None:  # an artificial left basic at zero after phase 1
            self.pivot_outs += 1
        return super()._pivot(leave, enter, objrow, leave_row)


def ratio_checked(lp: LinearProgram):
    """Solve ``lp`` checking every ratio test; the solution must equal ``solve``'s, stats too."""
    solver = RatioCheckedSolver(lp)
    solution = solver.run()
    assert solution == solve(lp)
    assert solver.tight_checks or not solver.tests
    assert solver.refreshes <= solver.column_gathers + 1
    return solver, solution


def with_upper_twins(rng: random.Random, lp: LinearProgram) -> LinearProgram:
    """``lp`` with a "<=" twin appended for most ">=" rows with a positive right-hand side.

    The twin is the row scaled, on the same hyperplane or one unit above.
    Once phase 1 reaches that hyperplane, the ">=" row's artificial and the
    twin's slack can both be basic at value 0, the artificial on the lower
    program row, so the ratio test's basic-column order is not row order.
    """
    rows = list(lp.rows)
    for row in lp.rows:
        if row.relation == ">=" and row.rhs > 0 and rng.random() < 0.7:
            k = F(rng.randint(1, 3), rng.randint(1, 2))
            twin = tuple((j, k * c) for j, c in row.coeffs)
            rows.append(Row("", twin, "<=", k * row.rhs + rng.choice((0, 0, 1))))
    return LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, tuple(rows))


def test_ratio_tests_match_reference_on_random_programs() -> None:
    rng = random.Random("ratio-test-reference")
    statuses, zero, slack_first, gathers, pivot_outs = [], 0, 0, 0, 0
    for k in range(600):
        lp = random_small_lp(rng)
        solver, solution = ratio_checked(with_upper_twins(rng, lp) if k % 2 else lp)
        statuses.append(solution.status)
        zero += solver.zero_ratios
        slack_first += solver.slack_first
        gathers += solver.column_gathers
        pivot_outs += solver.pivot_outs
    # degenerate and nondegenerate ratio tests, every status, and pivot-outs
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 30
    assert zero >= 100 and gathers >= 100 and pivot_outs and slack_first


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ratio_tests_match_reference_on_extremal_programs(n: int, sense: str) -> None:
    lp, _ = build_extremal_lp(n, sense)
    rows = list(lp.rows)
    random.Random(f"ratio-shuffle-{n}-{sense}").shuffle(rows)
    shuffled = LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, tuple(rows))
    for program in (lp, shuffled):
        solver, solution = ratio_checked(program)
        assert solution.status == "optimal"
        assert solver.tests == solver.pivots
        assert solver.zero_ratios == solver.tests - solver.column_gathers


class RefreshCountingSolver(simplex._Solver):
    """The solver, counting how often it recomputes the gaps and tight rows."""

    refreshes = 0

    def _refresh(self):
        self.refreshes += 1
        super()._refresh()


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_refreshes_at_most_one_more_than_column_gathers(n: int, sense: str) -> None:
    # Only a ratio test that gathers can pick a leaving row at a nonzero
    # value, so only its pivot moves the vertex: the pass over every program
    # row that rebuilds the gaps runs at most once more than a gather does.
    solver = RefreshCountingSolver(build_extremal_lp(n, sense)[0])
    solution = solver.run()
    assert solution.status == "optimal"
    assert 1 <= solver.refreshes <= solution.stats.column_gathers + 1


class PivotOutSolver(simplex._Solver):
    """The solver, counting logical-row rebuilds while phase 1 pivots artificials out.

    That is after the first kernel, the phase-1 one when there are
    artificials, and before the artificial columns are cut.
    """

    kernels = 0
    pivoting_out = False
    rebuilds = 0
    pivot_outs = 0

    def _kernel(self, objrow):
        result = super()._kernel(objrow)
        self.kernels += 1
        self.pivoting_out = self.num_art > 0 and self.kernels == 1
        return result

    def _truncate(self):
        self.pivoting_out = False
        super()._truncate()

    def _tableau_row(self, r):
        if self.pivoting_out and r not in self.rows:
            self.rebuilds += 1
        return super()._tableau_row(r)

    def _pivot(self, leave, enter, objrow, leave_row):
        if objrow is None:
            self.pivot_outs += 1
        return super()._pivot(leave, enter, objrow, leave_row)


def test_pivot_out_rebuilds_each_artificial_row_once() -> None:
    # Each artificial left basic at zero after phase 1 has its logical row
    # built once, to pick the entering column, and that row is the pivot row.
    rng = random.Random("pivot-out-rebuilds")
    reached = 0
    for _ in range(2000):
        lp = random_small_lp(rng)
        solver = PivotOutSolver(lp)
        solution = solver.run()
        assert solver.rebuilds == solver.pivot_outs
        if not solver.pivot_outs:
            continue
        reached += 1
        assert solution == assert_matches_dense(lp)
        if reached == 8:
            break
    assert reached == 8


# ------------------------------------------------------------- certificates


def test_certify_requires_optimal() -> None:
    lp = single_var("<=", F(-1), "min")
    with pytest.raises(LPError):
        certify(lp, solve(lp))


def test_certify_rejects_tampered_value() -> None:
    lp, _ = build_extremal_lp(2, "min")
    solution = solve(lp)
    assignment = dict(solution.assignment)
    assignment[0] += F(1, 9)
    report = certify(lp, replace(solution, assignment=assignment))
    assert not report.ok
    assert any("objective mismatch" in f or "violated" in f for f in report.failures)


def test_certify_rejects_wrong_objective() -> None:
    lp, _ = build_extremal_lp(2, "min")
    solution = solve(lp)
    report = certify(lp, replace(solution, objective=F(-1, 2)))
    assert not report.ok
    assert any("objective mismatch" in f for f in report.failures)


def test_certify_rejects_incomplete_assignment() -> None:
    lp, _ = build_extremal_lp(2, "min")
    solution = solve(lp)
    assignment = dict(solution.assignment)
    assignment.pop(0)
    report = certify(lp, replace(solution, assignment=assignment))
    assert not report.ok
    assert "assignment must cover every variable" in report.failures


@pytest.mark.parametrize("value", [None, "x", float("nan")], ids=repr)
def test_certify_refuses_an_assignment_value_that_is_not_rational(value: object) -> None:
    lp, _ = build_extremal_lp(2, "min")
    solution = solve(lp)
    assignment = dict(solution.assignment)
    assignment[1] = value
    message = f"assignment {assignment!r} has a non-rational value"
    with pytest.raises(LPError, match=re.escape(message)):
        certify(lp, replace(solution, assignment=assignment))


def test_certify_rejects_incomplete_reduced_costs() -> None:
    lp, _ = build_extremal_lp(2, "min")
    solution = solve(lp)
    reduced = dict(solution.reduced_costs)
    reduced.pop(lp.num_vars)
    for report in (
        certify(lp, replace(solution, reduced_costs=reduced)),
        dense_certify(lp, replace(solution, reduced_costs=reduced)),
    ):
        assert report.failures == ("reduced costs must cover every column",)


def test_certify_reads_no_basis_and_no_kept_rows() -> None:
    rng = random.Random("certify-no-basis")
    programs = [build_extremal_lp(n, sense)[0] for n in (2, 3) for sense in ("min", "max")]
    programs += [random_small_lp(rng) for _ in range(30)]
    for lp in programs:
        solution = solve(lp)
        if solution.status != "optimal":
            continue
        claim = replace(solution, basis=(), kept_rows=())
        assert certify(lp, claim).ok
        assert dense_certify(lp, claim).ok


TAMPER_KINDS = ("slack", "sign", "missing", "assignment", "objective")


def _tamper(rng: random.Random, lp: LinearProgram, solution):
    """One to three random edits of an optimal claim, each of a kind a faulty solver could make.

    The reduced-cost edits touch only slack columns, since those carry the
    row duals that :func:`certify` reads.  Returns the claim and its edit kinds.
    """
    nv = lp.num_vars
    reduced = dict(solution.reduced_costs)
    assignment = dict(solution.assignment)
    objective = solution.objective
    kinds = [rng.choice(TAMPER_KINDS) for _ in range(rng.randint(1, 3))]
    for kind in kinds:
        slack = nv + rng.randrange(len(lp.rows))
        if kind == "slack":
            if slack in reduced:
                reduced[slack] += F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 7))
        elif kind == "sign":
            if slack in reduced:
                reduced[slack] = -reduced[slack]
        elif kind == "missing":
            reduced.pop(slack, None)
        elif kind == "assignment":
            assignment[rng.randrange(nv)] += F(rng.randint(-3, 3), rng.randint(1, 7))
        else:
            objective += F(rng.choice((-1, 1)), rng.randint(1, 9))
    claim = replace(solution, reduced_costs=reduced, assignment=assignment, objective=objective)
    return claim, kinds


@pytest.mark.parametrize("n,sense", [(2, "min"), (2, "max"), (3, "min"), (3, "max")])
def test_certify_matches_dense_oracle(n: int, sense: str) -> None:
    # seeded per case, so a failing draw replays from the test id alone
    rng = random.Random(f"certify-{n}-{sense}")
    lp, _ = build_extremal_lp(n, sense)
    solution = solve(lp)
    claims = [solution] + [_tamper(rng, lp, solution)[0] for _ in range(60)]
    verdicts = []
    for claim in claims:
        fast, dense = certify(lp, claim), dense_certify(lp, claim)
        assert (fast.ok, fast.failures) == (dense.ok, dense.failures)
        verdicts.append(fast.ok)
    assert verdicts[0] and not all(verdicts)


def _edited_claims(rng: random.Random, lp: LinearProgram, solution) -> list:
    """The solver's claim and six edits of it, each of one kind a faulty solver could make."""
    nv = lp.num_vars
    duals = [k for k in range(nv, nv + len(lp.rows)) if solution.reduced_costs[k]]
    claims = [solution]
    scaled = dict(solution.reduced_costs)
    for k in duals:
        scaled[k] *= F(3, 2)
    claims.append(replace(solution, reduced_costs=scaled))
    if duals:
        flipped = dict(solution.reduced_costs)
        k = rng.choice(duals)
        flipped[k] = -flipped[k]
        claims.append(replace(solution, reduced_costs=flipped))
    for value in (lambda v: v + F(1, 7), lambda v: F(-1, 3)):
        assignment = dict(solution.assignment)
        j = rng.randrange(nv)
        assignment[j] = value(assignment[j])
        claims.append(replace(solution, assignment=assignment))
    claims.append(replace(solution, objective=solution.objective + 1))
    dropped = dict(solution.reduced_costs)
    dropped.pop(rng.choice(sorted(dropped)))
    claims.append(replace(solution, reduced_costs=dropped))
    return claims


def test_certify_matches_fraction_reference() -> None:
    # The integer certificate and its Fraction-arithmetic reference agree on
    # every claim: the same verdict, and the same failures in the same order.
    rng = random.Random("certify-reference")
    programs = [build_extremal_lp(n, sense)[0] for n in range(2, 6) for sense in ("min", "max")]
    programs += [build_symmetric_lp(n, sense) for n in range(2, 13) for sense in ("min", "max")]
    fractional = 0
    while fractional < 40:
        lp = random_small_lp(rng)
        if any(row.den > 1 for row in lp.rows):
            programs.append(lp)
            fractional += 1
    verdicts = []
    for lp in programs:
        solution = solve(lp)
        if solution.status != "optimal":
            continue
        for claim in _edited_claims(rng, lp, solution):
            fast, ref = certify(lp, claim), reference_certify(lp, claim)
            assert (fast.ok, fast.failures) == (ref.ok, ref.failures)
            verdicts.append(fast.ok)
    assert verdicts.count(False) > len(programs)


def test_certify_passes_only_true_optima() -> None:
    """A passing claim, however tampered, has the true optimum at a feasible point."""
    rng = random.Random("certify-soundness")
    claims = 0
    failed_kinds: set[str] = set()
    passed_tampered = 0
    while claims < 2000:
        lp = random_small_lp(rng)
        solution = solve(lp)
        if solution.status != "optimal":
            continue
        assert certify(lp, solution).ok
        optimum = dense_solve(lp).objective
        for _ in range(20):
            claim, kinds = _tamper(rng, lp, solution)
            claims += 1
            fast, dense = certify(lp, claim), dense_certify(lp, claim)
            assert (fast.ok, fast.failures) == (dense.ok, dense.failures)
            if fast.ok:
                passed_tampered += 1
                x = [claim.assignment[j] for j in range(lp.num_vars)]
                assert claim.objective == optimum
                assert check_point(lp, x).feasible
            elif len(set(kinds)) == 1:
                failed_kinds.add(kinds[0])
    assert failed_kinds == set(TAMPER_KINDS)
    # some edits leave a valid certificate (a degenerate dual, a zero sign flip)
    assert passed_tampered > 0


# ------------------------------------------------------------- extraction


def test_solution_to_assignment_shapes() -> None:
    lp, layout = build_extremal_lp(3, "max")
    solution = solve(lp)
    witness = solution_to_assignment(layout, solution)
    assert witness.box.dimension == 3
    assert len(witness.values) == 8
    assert check_assignment(lp, layout, witness).objective_value == F(1)


def test_solution_to_assignment_requires_optimal() -> None:
    _, layout = build_extremal_lp(2, "min")
    bad = solve(single_var("<=", F(-1), "min"))
    with pytest.raises(LPError):
        solution_to_assignment(layout, bad)
