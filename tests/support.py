"""Shared oracles and random generators for the test suite.

The oracles recompute grid quantities by direct summation over cells. They
share no code with the prefix-sum node route in qcmass.grid, so agreement
between the two is a real check rather than a tautology.  Likewise
``dense_certify`` recomputes a certificate's dual by dense elimination over
every kept row, the route ``qcmass.simplex.certify`` avoids.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from qcmass.grid import AxisPartition, MassGrid, NBox, make_grid_qc
from qcmass.lp import LinearProgram, LPError
from qcmass.simplex import (
    CertificateReport,
    SimplexSolution,
    _internal_costs,
    _prepared_rows,
)

ZERO = Fraction(0)
ONE = Fraction(1)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, ok: bool, description: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def orthant_mass_direct(grid: MassGrid, point: tuple[Fraction, ...]) -> Fraction:
    """Mass of [0, p_1] x ... x [0, p_n], cell by cell.

    Each cell contributes its mass times the product over axes of the covered
    fraction of that cell's slab.
    """
    total = ZERO
    for cell, mass in grid.cell_masses.items():
        factor = ONE
        for axis, j in enumerate(cell):
            lo = grid.partitions[axis].breakpoints[j]
            hi = grid.partitions[axis].breakpoints[j + 1]
            covered = min(point[axis], hi) - lo
            if covered <= ZERO:
                factor = ZERO
                break
            factor *= covered / (hi - lo)
        total += mass * factor
    return total


def box_mass_direct(grid: MassGrid, box: NBox) -> Fraction:
    """Mass inside an arbitrary box, again by per-axis overlap fractions."""
    total = ZERO
    for cell, mass in grid.cell_masses.items():
        factor = ONE
        for axis, j in enumerate(cell):
            lo = grid.partitions[axis].breakpoints[j]
            hi = grid.partitions[axis].breakpoints[j + 1]
            blo, bhi = box.intervals[axis]
            covered = min(hi, bhi) - max(lo, blo)
            if covered <= ZERO:
                factor = ZERO
                break
            factor *= covered / (hi - lo)
        total += mass * factor
    return total


def random_partition(rng: random.Random, max_cells: int = 3, denom: int = 12) -> AxisPartition:
    k = rng.randint(1, max_cells)
    cuts = sorted(rng.sample(range(1, denom), k - 1))
    points = [ZERO] + [Fraction(c, denom) for c in cuts] + [ONE]
    return AxisPartition(tuple(points))


def random_mass_grid(
    rng: random.Random, min_dim: int = 1, max_dim: int = 3, max_cells: int = 3
) -> MassGrid:
    """An arbitrary signed grid; no validity is intended."""
    n = rng.randint(min_dim, max_dim)
    parts = tuple(random_partition(rng, max_cells) for _ in range(n))
    masses: dict[tuple[int, ...], Fraction] = {}
    for cell in product(*(range(p.num_cells) for p in parts)):
        if rng.random() < 0.7:
            masses[cell] = Fraction(rng.randint(-24, 24), rng.randint(1, 9))
    return MassGrid(parts, masses)


def random_valid_qc(rng: random.Random, min_dim: int = 2, max_dim: int = 3, max_cells: int = 3):
    """A grid that satisfies all the axioms by construction.

    Takes a random convex combination of the lower envelope, the upper
    envelope, and the product function, and reads its masses off a shared
    random partition by inclusion-exclusion. Convexity of the class keeps
    every combination inside it.
    """
    n = rng.randint(min_dim, max_dim)
    part = random_partition(rng, max_cells)
    weights = [Fraction(rng.randint(0, 4)) for _ in range(3)]
    if sum(weights) == 0:
        weights = [ONE, ZERO, ZERO]
    total = sum(weights)
    weights = [w / total for w in weights]

    def node_value(coords: tuple[Fraction, ...]) -> Fraction:
        w_val = max(sum(coords) - (n - 1), ZERO)
        m_val = min(coords)
        p_val = ONE
        for c in coords:
            p_val *= c
        return weights[0] * w_val + weights[1] * m_val + weights[2] * p_val

    masses = {}
    for cell in product(range(part.num_cells), repeat=n):
        acc = ZERO
        for flags in product((0, 1), repeat=n):
            corner = tuple(part.breakpoints[j + f] for j, f in zip(cell, flags))
            sign = 1 if (n - sum(flags)) % 2 == 0 else -1
            acc += sign * node_value(corner)
        masses[cell] = acc
    return make_grid_qc(MassGrid((part,) * n, masses))


def random_point(rng: random.Random, grid: MassGrid, denom: int = 24) -> tuple[Fraction, ...]:
    # mix interior points with exact breakpoints to hit the slab boundaries
    point = []
    for p in grid.partitions:
        if rng.random() < 0.3:
            point.append(rng.choice(p.breakpoints))
        else:
            point.append(Fraction(rng.randint(0, denom), denom))
    return tuple(point)


def random_box(rng: random.Random, grid: MassGrid, denom: int = 24) -> NBox:
    intervals = []
    for _ in grid.partitions:
        a, b = sorted(Fraction(rng.randint(0, denom), denom) for _ in range(2))
        intervals.append((a, b))
    return NBox(tuple(intervals))


def dense_certify(lp: LinearProgram, solution: SimplexSolution) -> CertificateReport:
    """Reference certificate: the dual from a dense Gaussian solve of ``G y = c_B``.

    ``G`` is the full m x m matrix of basic columns over kept rows, and the
    reduced costs are formed over every column and kept row.  Slow, but it
    shares no reduction with :func:`qcmass.simplex.certify`, which must
    return the same ``ok`` and ``failures`` on every claim.
    """
    if solution.status != "optimal":
        raise LPError("only optimal solutions can be certified")
    failures: list[str] = []
    nv = lp.num_vars
    if set(solution.assignment) != set(range(nv)):
        return CertificateReport(False, ("assignment must cover every variable",))
    x = [Fraction(solution.assignment[j]) for j in range(nv)]
    for j, value in enumerate(x):
        if value < ZERO:
            failures.append(f"variable {lp.var_names[j]} is negative: {value}")
    for k, row in enumerate(lp.rows):
        lhs = sum((coef * x[j] for j, coef in row.coeffs), ZERO)
        ok = lhs <= row.rhs if row.relation == "<=" else lhs >= row.rhs
        if not ok:
            failures.append(f"row {k} violated: {lhs} {row.relation} {row.rhs}")
    claimed = lp.evaluate_objective(x)
    if claimed != solution.objective:
        failures.append(
            f"objective mismatch: assignment gives {claimed}, "
            f"solution claims {solution.objective}"
        )

    prepared = _prepared_rows(lp)
    ncols = nv + len(lp.rows)
    values = list(x) + [ZERO] * len(lp.rows)
    for i, (coeffs, rhs) in enumerate(prepared):
        sigma = coeffs[nv + i]
        residual = rhs - sum((coeffs.get(j, ZERO) * x[j] for j in range(nv)), ZERO)
        values[nv + i] = residual / sigma

    basis = solution.basis
    kept = solution.kept_rows
    if len(basis) != len(kept) or len(set(basis)) != len(basis):
        failures.append("basis and kept rows must pair up without repeats")
        return CertificateReport(False, tuple(failures))
    if any(not 0 <= j < ncols for j in basis) or any(
        not 0 <= i < len(lp.rows) for i in kept
    ):
        failures.append("basis or kept row index out of range")
        return CertificateReport(False, tuple(failures))

    costs = _internal_costs(lp, ncols)
    # Solve G y = c_B where G[k][r] = column basis[k] in kept row r.
    m = len(kept)
    G = [[prepared[i][0].get(basis[k], ZERO) for i in kept] for k in range(m)]
    rhs_vec = [costs[j] for j in basis]
    y = _gaussian_solve(G, rhs_vec)
    if y is None:
        failures.append("claimed basis matrix is singular")
        return CertificateReport(False, tuple(failures))

    basic = set(basis)
    for j in range(ncols):
        d = costs[j] - sum(
            (y[r] * prepared[i][0].get(j, ZERO) for r, i in enumerate(kept)), ZERO
        )
        if j in basic:
            if d != ZERO:
                failures.append(f"basic column {j} has nonzero reduced cost {d}")
        else:
            if d < ZERO:
                failures.append(f"nonbasic column {j} has negative reduced cost {d}")
            elif d != ZERO and values[j] != ZERO:
                failures.append(
                    f"complementary slackness fails on column {j}: "
                    f"value {values[j]}, reduced cost {d}"
                )
    return CertificateReport(not failures, tuple(failures))


def _gaussian_solve(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square exact system; None when the matrix is singular."""
    m = len(matrix)
    aug = [list(row) + [rhs[k]] for k, row in enumerate(matrix)]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != ZERO), -1)
        if pivot_row < 0:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [a / pivot for a in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != ZERO:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]
