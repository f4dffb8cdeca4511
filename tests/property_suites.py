"""Randomized invariant suites, shared between pytest and the acceptance gate.

Each suite runs a fixed number of seeded cases and returns that count; the
first failing case raises AssertionError with enough context to replay it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from qcmass.grid import NBox, make_grid_qc, marginalize
from qcmass.lp import LinearProgram, build_extremal_lp, check_assignment
from qcmass.simplex import solution_to_assignment, solve

import support

ZERO = Fraction(0)


def suite_evaluation_oracle(cases: int = 200, seed: int = 0xE1) -> int:
    """``evaluate`` (the orthant's mass, read through ``box_volume``) equals a direct cell sum."""
    rng = random.Random(seed)
    for case in range(cases):
        grid = support.random_mass_grid(rng)
        qc = make_grid_qc(grid)
        point = support.random_point(rng, grid)
        got = qc.evaluate(point)
        want = support.orthant_mass_direct(grid, point)
        assert got == want, f"case {case}: evaluate gave {got}, direct sum {want}"
    return cases


def suite_volume_additivity(cases: int = 200, seed: int = 0xADD) -> int:
    """Splitting a box along any axis splits its mass."""
    rng = random.Random(seed)
    for case in range(cases):
        grid = support.random_mass_grid(rng)
        qc = make_grid_qc(grid)
        box = support.random_box(rng, grid)
        axes = [i for i, (lo, hi) in enumerate(box.intervals) if lo < hi]
        if not axes:
            assert qc.box_volume(box) == ZERO, f"case {case}: degenerate box has mass"
            continue
        axis = rng.choice(axes)
        lo, hi = box.intervals[axis]
        t = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
        left = NBox(box.intervals[:axis] + ((lo, t),) + box.intervals[axis + 1 :])
        right = NBox(box.intervals[:axis] + ((t, hi),) + box.intervals[axis + 1 :])
        whole = qc.box_volume(box)
        parts = qc.box_volume(left) + qc.box_volume(right)
        assert whole == parts, f"case {case}: {whole} != {parts} split at {t}"
    return cases


def suite_cell_mass_roundtrip(cases: int = 200, seed: int = 0xCE11) -> int:
    """box_volume over a cell's own box returns exactly the stored mass."""
    rng = random.Random(seed)
    for case in range(cases):
        grid = support.random_mass_grid(rng)
        qc = make_grid_qc(grid)
        cells = list(support.iter_cells(grid))
        cell, mass = cells[rng.randrange(len(cells))]
        got = qc.box_volume(support.cell_box(grid, cell))
        assert got == mass, f"case {case}: cell {cell} gave {got}, stored {mass}"
    return cases


def suite_margin_closure(cases: int = 200, seed: int = 0x3A6) -> int:
    """Marginalizing a valid grid yields a valid grid of one less dimension."""
    rng = random.Random(seed)
    for case in range(cases):
        qc = support.random_valid_qc(rng)
        axis = rng.randrange(qc.dimension)
        marg = make_grid_qc(marginalize(qc.grid, axis))
        assert marg.dimension == qc.dimension - 1, f"case {case}"
        total = marg.grid.box_volume(support.unit_cube(marg.dimension))
        assert total == Fraction(1), f"case {case}: total mass off"
        report = marg.verify_axioms()
        assert report.all_ok, f"case {case}: axis {axis} margin fails {report.violations[:3]}"
        assert marg.frechet_envelope_check() == (), f"case {case}: margin leaves envelope"
    return cases


def suite_envelope_on_valid(cases: int = 200, seed: int = 0xF4) -> int:
    """Grids passing the axioms never escape the two-sided envelope."""
    rng = random.Random(seed)
    for case in range(cases):
        qc = support.random_valid_qc(rng)
        report = qc.verify_axioms()
        assert report.all_ok, f"case {case}: constructed grid fails axioms"
        assert qc.frechet_envelope_check() == (), f"case {case}: envelope violated"
    return cases


def suite_lipschitz_pairs(cases: int = 200, seed: int = 0x715) -> int:
    """|Q(u) - Q(v)| <= |u_i - v_i| for points differing in one coordinate."""
    rng = random.Random(seed)
    for case in range(cases):
        qc = support.random_valid_qc(rng)
        grid = qc.grid
        u = list(support.random_point(rng, grid))
        v = list(u)
        axis = rng.randrange(qc.dimension)
        v[axis] = Fraction(rng.randint(0, 24), 24)
        diff = qc.evaluate(tuple(u)) - qc.evaluate(tuple(v))
        bound = abs(u[axis] - v[axis])
        assert abs(diff) <= bound, f"case {case}: |{diff}| > {bound} on axis {axis}"
    return cases


def suite_lp_sign_balance(cases: int = 200, seed: int = 0x51) -> int:
    """The objective has 2^n terms, half of each sign, summing to zero."""
    rng = random.Random(seed)
    for case in range(cases):
        n = 2 + case % 5
        sense = rng.choice(["min", "max"])
        lp, layout = build_extremal_lp(n, sense)
        assert len(lp.objective) == 2**n, f"case {case}: term count"
        coefs = [c for _, c in lp.objective]
        assert sum(coefs) == ZERO, f"case {case}: objective does not cancel"
        assert sum(1 for c in coefs if c > 0) == 2 ** (n - 1), f"case {case}"
        assert sum(1 for c in coefs if c < 0) == 2 ** (n - 1), f"case {case}"
        for flags, index in layout.vertex_vars.items():
            expected = 1 if (n - sum(flags)) % 2 == 0 else -1
            coef = dict(lp.objective)[index]
            assert coef == expected, f"case {case}: sign at {flags}"
    return cases


def _shuffled(lp: LinearProgram, rng: random.Random) -> LinearProgram:
    rows = list(lp.rows)
    rng.shuffle(rows)
    return LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, tuple(rows))


_OPTIMA = {
    (2, "min"): Fraction(-1, 3),
    (2, "max"): Fraction(1),
    (3, "min"): Fraction(-4, 5),
    (3, "max"): Fraction(1),
}


def suite_row_permutation(cases: int = 200, seed: int = 0x0DD) -> int:
    """The optimum is independent of row order."""
    rng = random.Random(seed)
    for case in range(cases):
        n = 3 if case % 10 == 0 else 2
        sense = rng.choice(["min", "max"])
        lp, _ = build_extremal_lp(n, sense)
        solution = solve(_shuffled(lp, rng))
        assert solution.status == "optimal", f"case {case}: n={n} {sense}"
        want = _OPTIMA[(n, sense)]
        assert solution.objective == want, (
            f"case {case}: n={n} {sense} gave {solution.objective}, expected {want}"
        )
    return cases


def suite_witness_roundtrip(cases: int = 200, seed: int = 0x217) -> int:
    """Extracted witnesses check out feasible on the canonical program."""
    rng = random.Random(seed)
    canonical = {(n, s): build_extremal_lp(n, s) for (n, s) in _OPTIMA}
    for case in range(cases):
        n = 3 if case % 10 == 5 else 2
        sense = rng.choice(["min", "max"])
        lp, layout = canonical[(n, sense)]
        solution = solve(_shuffled(lp, rng))
        assert solution.status == "optimal", f"case {case}"
        assignment = solution_to_assignment(layout, solution)
        report = check_assignment(lp, layout, assignment)
        assert report.feasible, f"case {case}: witness violates {report.violations[:3]}"
        assert report.objective_value == _OPTIMA[(n, sense)], f"case {case}"
        assert report.objective_value == support.corner_sum(assignment.values), f"case {case}"
    return cases


ALL_SUITES = (
    suite_evaluation_oracle,
    suite_volume_additivity,
    suite_cell_mass_roundtrip,
    suite_margin_closure,
    suite_envelope_on_valid,
    suite_lipschitz_pairs,
    suite_lp_sign_balance,
    suite_row_permutation,
    suite_witness_roundtrip,
)
