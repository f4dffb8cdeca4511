"""Shared oracles and random generators for the test suite.

The oracles recompute grid quantities by direct summation over cells. They
share no code with the prefix-sum node route in qcmass.grid, so agreement
between the two is a real check rather than a tautology.  The ``ref_*``
functions are the node-lattice consumers written plainly over a dict of
``Fraction`` node values, the reference for the integer lattice in
qcmass.grid.  Likewise ``dense_certify`` checks a claimed optimum's
primal-dual pair on the dense matrix of every row and column, the reference
for the sparse pass of ``qcmass.simplex.certify``; ``reference_certify``
does that sparse pass in ``Fraction`` arithmetic, the reference for its sums
over one integer denominator.  ``dense_solve`` runs
the simplex on dense integer rows, the reference for the sparse rows of
``qcmass.simplex.solve``.  ``ref_box_volume``
reads a box's mass off the node lattice, the reference for the cell sum of
``MassGrid.box_volume``, and ``ref_grid_from_json`` parses every literal of
a grid file afresh, the reference for ``qcmass.grid.grid_from_json``.
``ref_marginalize``, ``ref_margin_csv``, ``ref_check_point``,
``ref_prepared_rows`` and ``ref_integer_row`` work one ``Fraction`` (or one
formatted field) at a time, the references for the integer sums of
``marginalize`` and ``check_point``, the preformatted slabs of the ``margin``
csv, and the integer form each ``Row`` stores and the solver's program rows
read.  The dense oracles take their standard form from ``ref_prepared_rows``
and ``ref_internal_costs``, not from the solver.  ``mass_literal``,
``grid_text_in_other_forms`` and ``spread_over_new_axis`` make the same grid
by other routes (a file of unreduced, decimal and zero literals, a grid
whose margin it is) with string and ``Fraction`` operations only, never with
the integer parser or integer form of ``qcmass``.  ``ref_symmetric_lp``
writes the axis-symmetric program's rows by hand, the reference for
``build_symmetric_lp``.  ``read_lp`` reads well-formed ``export_lp`` text
back, the round-trip oracle for the LP text format, which the package only
writes.  ``unit_cube``, ``slab_index``, ``box_vertex``, ``cell_box``,
``iter_cells``, ``corner_sum`` and ``ref_objective`` are the suite's own
small helpers (the whole cube as a box, a slab lookup, a box's corner, a
cell's box, every cell in order, the mass corner values give a box, an
objective value), so no oracle calls the package code it checks.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm

from qcmass.grid import (
    AxiomReport,
    AxisPartition,
    GridError,
    MassGrid,
    NBox,
    Violation,
    corner_sign,
    grid_from_json,
    make_grid_qc,
)
from qcmass.lp import FeasibilityReport, LinearProgram, LPError, Row, RowViolation
from qcmass.rational import format_rational, parse_rational
from qcmass.simplex import (
    CertificateReport,
    SimplexSolution,
    SolveStats,
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


def unit_cube(n: int) -> NBox:
    return NBox(((ZERO, ONE),) * n)


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
    return make_grid_qc(MassGrid((part,) * n, mixture_masses((part,) * n, weights)))


def mixture_masses(
    parts: tuple[AxisPartition, ...], weights: list[Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Cell masses of ``weights`` . (lower envelope, upper envelope, product) on ``parts``.

    Each cell's mass is the inclusion-exclusion sum of the mixture over the
    cell's corners.
    """
    n = len(parts)

    @cache  # a node is a corner of up to 2^n cells
    def node_value(coords: tuple[Fraction, ...]) -> Fraction:
        w_val = max(sum(coords) - (n - 1), ZERO)
        m_val = min(coords)
        p_val = ONE
        for c in coords:
            p_val *= c
        return weights[0] * w_val + weights[1] * m_val + weights[2] * p_val

    masses = {}
    for cell in product(*(range(p.num_cells) for p in parts)):
        acc = ZERO
        for flags in product((0, 1), repeat=n):
            corner = tuple(p.breakpoints[j + f] for p, j, f in zip(parts, cell, flags))
            sign = 1 if (n - sum(flags)) % 2 == 0 else -1
            acc += sign * node_value(corner)
        masses[cell] = acc
    return masses


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


def ref_node_values(grid: MassGrid) -> dict[tuple[int, ...], Fraction]:
    """Node values as a dict of Fractions, by per-axis prefix sums in lexicographic order."""
    node_ranges = [range(s + 1) for s in grid.shape]
    values = {node: ZERO for node in product(*node_ranges)}
    for cell, mass in grid.cell_masses.items():
        values[tuple(c + 1 for c in cell)] += mass
    for axis in range(grid.dimension):
        # the predecessor along `axis` comes first in lexicographic order
        for node in product(*node_ranges):
            if node[axis] > 0:
                prev = node[:axis] + (node[axis] - 1,) + node[axis + 1 :]
                values[node] += values[prev]
    return values


def slab_index(part: AxisPartition, u: Fraction) -> int:
    """Index j of a slab with t_j <= u <= t_(j+1): the last one that starts at or below u."""
    assert ZERO <= u <= ONE, u
    return max(j for j in range(part.num_cells) if part.breakpoints[j] <= u)


def box_vertex(box: NBox, flags: tuple[bool, ...]) -> tuple[Fraction, ...]:
    """The corner of ``box`` picking, per axis, the upper end where ``flags`` is True."""
    return tuple(hi if up else lo for (lo, hi), up in zip(box.intervals, flags))


def cell_box(grid: MassGrid, cell: tuple[int, ...]) -> NBox:
    """The box a cell of ``grid`` covers."""
    return NBox(
        tuple((p.breakpoints[c], p.breakpoints[c + 1]) for p, c in zip(grid.partitions, cell))
    )


def iter_cells(grid: MassGrid):
    """Every cell of ``grid`` with its mass (zeros included), in lexicographic order."""
    for cell in product(*(range(s) for s in grid.shape)):
        yield cell, grid.cell_masses.get(cell, ZERO)


def corner_sum(values) -> Fraction:
    """The inclusion-exclusion sum of corner values ``{flags: value}``: the mass they give a box."""
    return sum((corner_sign(flags) * value for flags, value in values.items()), ZERO)


def ref_objective(lp: LinearProgram, x) -> Fraction:
    """``lp``'s objective at ``x``, one ``Fraction`` product per term."""
    return sum((coef * x[j] for j, coef in lp.objective), ZERO)


def ref_evaluate(grid: MassGrid, values, point) -> Fraction:
    """Q at ``point`` by multilinear interpolation with Fraction weights."""
    axis_weights = []
    for part, u in zip(grid.partitions, point):
        u = Fraction(u)
        j = slab_index(part, u)
        frac = (u - part.breakpoints[j]) / part.width(j)
        weights = []
        if frac != ONE:
            weights.append((j, ONE - frac))
        if frac != ZERO:
            weights.append((j + 1, frac))
        axis_weights.append(weights)
    total = ZERO
    for combo in product(*axis_weights):
        w = ONE
        for _, wi in combo:
            w *= wi
        total += w * values[tuple(j for j, _ in combo)]
    return total


def ref_box_volume(grid: MassGrid, values, box: NBox) -> Fraction:
    total = ZERO
    for flags in product((False, True), repeat=grid.dimension):
        total += corner_sign(flags) * ref_evaluate(grid, values, box_vertex(box, flags))
    return total


def ref_verify_axioms(grid: MassGrid, values) -> AxiomReport:
    """The node and edge checks of ``GridQuasiCopula.verify_axioms``, node by node.

    A node with a zero coordinate that is not 0 is listed as a ``grounded``
    violation, which the module under test never reports, so a lattice that
    is not grounded makes this report differ from the one under test.
    """
    sizes = grid.shape
    bad: list[Violation] = []
    for node in product(*(range(s + 1) for s in sizes)):
        if any(c == 0 for c in node) and values[node] != ZERO:
            bad.append(Violation("grounded", node, values[node], ZERO))
    for axis in range(grid.dimension):
        slab_sums = [ZERO] * sizes[axis]
        for cell, mass in grid.cell_masses.items():
            slab_sums[cell[axis]] += mass
        for j, total in enumerate(slab_sums):
            width = grid.partitions[axis].width(j)
            if total != width:
                bad.append(Violation("margin", (axis, j), total, width))
    for axis in range(grid.dimension):
        lower_ranges = [
            range(s + 1) if i != axis else range(s) for i, s in enumerate(sizes)
        ]
        for node in product(*lower_ranges):
            upper = node[:axis] + (node[axis] + 1,) + node[axis + 1 :]
            rise = values[upper] - values[node]
            if rise < ZERO:
                bad.append(Violation("monotone", (axis,) + node, rise, ZERO))
            w = grid.partitions[axis].width(node[axis])
            if rise > w:
                bad.append(Violation("lipschitz", (axis,) + node, rise, w))
    return AxiomReport(tuple(bad))


def ref_frechet_envelope_check(grid: MassGrid, values) -> tuple[Violation, ...]:
    n = grid.dimension
    bad: list[Violation] = []
    for node in product(*(range(s + 1) for s in grid.shape)):
        coords = [p.breakpoints[c] for p, c in zip(grid.partitions, node)]
        v = values[node]
        lower = max(sum(coords) - (n - 1), ZERO)
        upper = min(coords)
        if v < lower:
            bad.append(Violation("frechet-lower", node, v, lower))
        if v > upper:
            bad.append(Violation("frechet-upper", node, v, upper))
    return tuple(bad)


def _is_json_int(value: object) -> bool:
    """A JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def ref_grid_from_json(text: str) -> MassGrid:
    """The grid file loader, parsing every literal and checking every entry afresh."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise GridError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GridError("grid file must be a JSON object")
    extra = set(payload) - {"dimension", "partitions", "masses", "schema"}
    if extra:
        raise GridError(f"unknown grid file keys: {sorted(extra)}")
    for key in ("dimension", "partitions", "masses"):
        if key not in payload:
            raise GridError(f"grid file missing key {key!r}")
    dim = payload["dimension"]
    parts_raw = payload["partitions"]
    if not _is_json_int(dim) or not isinstance(parts_raw, list):
        raise GridError("malformed dimension or partitions")
    if len(parts_raw) != dim:
        raise GridError(f"dimension is {dim} but {len(parts_raw)} partitions given")
    if not all(isinstance(axis, list) for axis in parts_raw):
        raise GridError("each partition must be a list of breakpoints")
    try:
        partitions = tuple(
            AxisPartition(tuple(parse_rational(t) for t in axis)) for axis in parts_raw
        )
    except (TypeError, ValueError) as exc:
        raise GridError(f"malformed partition: {exc}") from exc
    masses: dict[tuple[int, ...], Fraction] = {}
    if not isinstance(payload["masses"], list):
        raise GridError("masses must be a list")
    for entry in payload["masses"]:
        if not isinstance(entry, dict) or set(entry) != {"cell", "mass"}:
            raise GridError(f"malformed mass entry: {entry!r}")
        cell_raw = entry["cell"]
        if not isinstance(cell_raw, list) or not all(_is_json_int(c) for c in cell_raw):
            raise GridError(f"malformed cell index: {cell_raw!r}")
        cell = tuple(cell_raw)
        if cell in masses:
            raise GridError(f"duplicate cell {cell}")
        try:
            masses[cell] = parse_rational(entry["mass"])
        except ValueError as exc:
            raise GridError(f"malformed mass for cell {cell}: {exc}") from exc
    return MassGrid(partitions, masses)


def assert_loaders_agree(text: str) -> MassGrid | None:
    """``grid_from_json`` and :func:`ref_grid_from_json` return equal grids or refuse with one message.

    Returns the grid, or None when both raised :class:`GridError` with the
    same text.  Any other exception propagates from either loader.
    """
    try:
        want = ref_grid_from_json(text)
    except GridError as exc:
        want = str(exc)
    try:
        got = grid_from_json(text)
    except GridError as exc:
        got = str(exc)
    assert got == want, text[:300]
    return None if isinstance(got, str) else got


def random_mixed_partition(rng: random.Random, max_cells: int) -> AxisPartition:
    """Breakpoints whose denominators are drawn from a mixed set."""
    return mixed_partition(rng, rng.randint(1, max_cells))


def mixed_partition(rng: random.Random, k: int) -> AxisPartition:
    """``k`` cells whose breakpoints' denominators are drawn from a mixed set."""
    cuts: set[Fraction] = set()
    while len(cuts) < k - 1:
        q = rng.choice((2, 3, 5, 7, 12, 60))
        cuts.add(Fraction(rng.randint(1, q - 1), q))
    return AxisPartition((ZERO, *sorted(cuts), ONE))


def random_signed_grid(rng: random.Random, n: int, max_cells: int = 3) -> MassGrid:
    """A valid grid on per-axis mixed partitions, then some cells pushed off.

    The valid part is :func:`mixture_masses` of random weights; with no
    pushed cells the grid passes every check, with a few it fails some, with
    many it fails most.  Pushes range from large to a fraction of the
    smallest width, so that some checks fail by a hair.
    """
    return signed_grid(rng, tuple(random_mixed_partition(rng, max_cells) for _ in range(n)))


def signed_grid(rng: random.Random, parts: tuple[AxisPartition, ...]) -> MassGrid:
    """:func:`random_signed_grid` on the given partitions."""
    masses = random_mixture_masses(rng, parts)
    cells = list(masses)
    pushed = min(len(cells), rng.choice((0, 0, 1, 2, len(cells))))
    for cell in rng.sample(cells, pushed):
        masses[cell] += Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 11, 420, 840)))
    return MassGrid(parts, masses)


def random_mixture_masses(
    rng: random.Random, parts: tuple[AxisPartition, ...]
) -> dict[tuple[int, ...], Fraction]:
    """:func:`mixture_masses` of random weights: a valid grid's cells."""
    weights = [Fraction(rng.randint(0, 3)) for _ in range(3)]
    if not any(weights):
        weights[2] = ONE
    return mixture_masses(parts, [w / sum(weights) for w in weights])


def corner_pushed_grid(rng: random.Random, parts: tuple[AxisPartition, ...]) -> MassGrid:
    """A valid grid with 3 added to its first cell and 5 taken from its last.

    On a valid grid every edge rises by between 0 and its slab's width (at
    most 1).  The first cell adds 3 to the axis-i edges leaving coordinate 0
    whose other coordinates are all >= 1, so Lipschitz fails on every axis;
    the last cell takes 5 from the axis-i edge into the top node, and with
    at most 3 added back there, monotone fails on every axis.  The one
    exception is a grid of a single cell, where both pushes are the same
    cell.
    """
    masses = random_mixture_masses(rng, parts)
    masses[(0,) * len(parts)] += 3
    masses[tuple(p.num_cells - 1 for p in parts)] -= 5
    return MassGrid(parts, masses)


# Shapes whose lattices take every slice layout of the per-axis passes in
# qcmass.grid: on an axis of stride s in b blocks the nodes of one coordinate
# are b contiguous runs when b <= s, else s extended slices.  n = 5 and 6,
# uneven shapes, one-cell axes, and axis 2 of (2, 2, 2, 2, 2), (2, 1, 3, 1, 2)
# and (3, 1, 2, 1, 1, 1), whose block count equals its stride (9, 6 and 8).
SLICE_LAYOUT_SHAPES = (
    (1, 5, 2, 4, 3),
    (2, 2, 2, 2, 2),
    (2, 1, 3, 1, 2),
    (1, 1, 4, 1, 1),
    (3, 1, 2, 1, 1, 1),
    (2, 2, 2, 2, 2, 2),
    (4, 3, 1, 1, 2, 1),
    (1, 1, 1, 1, 1, 1),
)


def slice_layout_grids(rng: random.Random) -> list[tuple[MassGrid, bool]]:
    """Seeded grids on every shape of ``SLICE_LAYOUT_SHAPES``, each with a pushed flag.

    Two :func:`signed_grid` cases per shape (False), and on every shape of
    more than one cell a :func:`corner_pushed_grid` (True).
    """
    cases = []
    for shape in SLICE_LAYOUT_SHAPES:
        for _ in range(2):
            cases.append((signed_grid(rng, tuple(mixed_partition(rng, k) for k in shape)), False))
        if max(shape) > 1:
            parts = tuple(mixed_partition(rng, k) for k in shape)
            cases.append((corner_pushed_grid(rng, parts), True))
    return cases


def cancelling_grid(rng: random.Random, n: int, axis: int) -> MassGrid:
    """A :func:`random_signed_grid` in which one fibre along ``axis`` sums to 0.

    The axis gets at least two slabs, and the cells of one random fibre
    (every slab of ``axis``, the other indices fixed) get random masses with
    the first set to minus the sum of the rest, so that the margin over
    ``axis`` has a cell that cancels to 0.
    """
    grid = random_signed_grid(rng, n)
    parts = list(grid.partitions)
    if parts[axis].num_cells < 2:
        parts[axis] = AxisPartition((ZERO, Fraction(rng.randint(1, 6), 7), ONE))
    masses = dict(grid.cell_masses)
    fixed = [rng.randrange(p.num_cells) for p in parts]
    fibre = [tuple(fixed[:axis] + [j] + fixed[axis + 1 :]) for j in range(parts[axis].num_cells)]
    for cell in fibre[1:]:
        masses[cell] = Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice((1, 3, 7, 60)))
    masses[fibre[0]] = -sum((masses[cell] for cell in fibre[1:]), ZERO)
    return MassGrid(tuple(parts), masses)


def ref_marginalize(grid: MassGrid, axis: int) -> MassGrid:
    """Reference for ``qcmass.grid.marginalize``: one ``Fraction`` add per cell."""
    masses: dict[tuple[int, ...], Fraction] = {}
    for cell, mass in grid.cell_masses.items():
        reduced = cell[:axis] + cell[axis + 1 :]
        masses[reduced] = masses.get(reduced, ZERO) + mass
    parts = grid.partitions[:axis] + grid.partitions[axis + 1 :]
    return MassGrid(parts, {cell: m for cell, m in masses.items() if m})


def ref_margin_csv(margin: MassGrid) -> str:
    """Reference for ``margin`` csv: every cell of ``iter_cells``, each field formatted afresh."""
    m = margin.dimension
    lines = [",".join(f"cell_lo_{i + 1},cell_hi_{i + 1}" for i in range(m)) + ",mass"]
    for cell, mass in iter_cells(margin):
        fields = []
        for part, c in zip(margin.partitions, cell):
            fields += [format_rational(part.breakpoints[c]), format_rational(part.breakpoints[c + 1])]
        lines.append(",".join(fields + [format_rational(mass)]))
    return "\n".join(lines) + "\n"


ZERO_LITERALS = ("0", "-0", "0/7", "-0/3", "0.0", "-0.0", "0.000")


def mass_literal(rng: random.Random, mass: Fraction) -> str:
    """``mass`` as a grid file literal in a random one of its forms.

    The canonical "p/q", an unreduced "(kp)/(kq)", or, when q has no prime
    factor but 2 and 5, a decimal with up to two trailing zeros ("0.25",
    "-0.50", "3.0").  Written with string and integer operations only.
    """
    p, q = mass.numerator, mass.denominator
    forms = [f"{p}/{q}" if q > 1 else str(p)]
    k = rng.randint(2, 9)
    forms.append(f"{p * k}/{q * k}")
    places = next((d for d in range(1, 40) if 10**d % q == 0), None)
    if places is not None:
        places += rng.randint(0, 2)
        digits = str(abs(p) * (10**places // q)).rjust(places + 1, "0")
        sign = "-" if p < 0 else ""
        forms.append(f"{sign}{digits[:-places]}.{digits[-places:]}")
    return rng.choice(forms)


def grid_text_in_other_forms(rng: random.Random, grid: MassGrid, zeros: int) -> str:
    """A grid file for ``grid`` whose literals are drawn by :func:`mass_literal`.

    Up to ``zeros`` cells outside the support get an explicit zero literal,
    and the entries are shuffled.
    """
    entries = [
        {"cell": list(cell), "mass": mass_literal(rng, mass)}
        for cell, mass in grid.cell_masses.items()
    ]
    empty = [
        cell
        for cell in product(*(range(p.num_cells) for p in grid.partitions))
        if cell not in grid.cell_masses
    ]
    for cell in rng.sample(empty, min(zeros, len(empty))):
        entries.append({"cell": list(cell), "mass": rng.choice(ZERO_LITERALS)})
    rng.shuffle(entries)
    partitions = [[format_rational(t) for t in p.breakpoints] for p in grid.partitions]
    return json.dumps({"dimension": grid.dimension, "partitions": partitions, "masses": entries})


def spread_over_new_axis(
    rng: random.Random, grid: MassGrid, axis: int, part: AxisPartition
) -> MassGrid:
    """A grid with ``part`` inserted as axis ``axis`` whose margin over that axis is ``grid``.

    Each cell's mass is split into random signed pieces along the new axis,
    and one fibre over a cell outside the support (if any) gets pieces that
    sum to 0, so the margin has a cell that cancels.
    """
    k = part.num_cells
    masses: dict[tuple[int, ...], Fraction] = {}

    def spread(cell: tuple[int, ...], mass: Fraction) -> None:
        pieces = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 8, 10))) for _ in range(k - 1)]
        pieces.append(mass - sum(pieces, ZERO))
        for j, piece in enumerate(pieces):
            masses[cell[:axis] + (j,) + cell[axis:]] = piece

    for cell, mass in grid.cell_masses.items():
        spread(cell, mass)
    empty = [
        cell
        for cell in product(*(range(p.num_cells) for p in grid.partitions))
        if cell not in grid.cell_masses
    ]
    if empty and k > 1:
        spread(rng.choice(empty), ZERO)
    parts = grid.partitions[:axis] + (part,) + grid.partitions[axis:]
    return MassGrid(parts, masses)


def ref_check_point(lp: LinearProgram, x) -> FeasibilityReport:
    """Reference for ``qcmass.lp.check_point``: each row a sum of ``Fraction`` products."""
    violations = [RowViolation(j, "N", v, ">=", ZERO) for j, v in enumerate(x) if v < ZERO]
    for k, row in enumerate(lp.rows):
        lhs = sum((coef * x[j] for j, coef in row.coeffs), ZERO)
        if not (lhs <= row.rhs if row.relation == "<=" else lhs >= row.rhs):
            violations.append(RowViolation(k, row.family, lhs, row.relation, row.rhs))
    objective = sum((coef * x[j] for j, coef in lp.objective), ZERO)
    return FeasibilityReport(not violations, objective, tuple(violations))


def ref_prepared_rows(lp: LinearProgram) -> list[tuple[dict[int, Fraction], Fraction]]:
    """Every row in the solver's standard form, one ``Fraction`` at a time.

    A row is negated when its right-hand side is negative, or zero on a
    ">=" row, which swaps its relation; column ``num_vars + i`` then holds
    the slack of row i, +1 for "<=" and -1 for ">=".
    """
    out = []
    for i, row in enumerate(lp.rows):
        coeffs = dict(row.coeffs)
        rhs = row.rhs
        relation = row.relation
        if (relation == ">=" and rhs <= ZERO) or (relation == "<=" and rhs < ZERO):
            coeffs = {j: -c for j, c in coeffs.items()}
            rhs = -rhs
            relation = "<=" if relation == ">=" else ">="
        coeffs[lp.num_vars + i] = Fraction(1 if relation == "<=" else -1)
        out.append((coeffs, rhs))
    return out


def ref_internal_costs(lp: LinearProgram, ncols: int) -> list[Fraction]:
    """The dense cost vector of the minimized objective: negated for "max" programs."""
    costs = [ZERO] * ncols
    for j, coef in lp.objective:
        costs[j] = coef if lp.sense == "min" else -coef
    return costs


def ref_integer_row(coeffs: dict[int, Fraction], rhs: Fraction) -> tuple[int, dict[int, int], int]:
    """A rational row as a primitive integer row: one ``Fraction`` product per cell.

    Each coefficient and the right-hand side are multiplied by the lcm of
    their denominators, and the row is divided by its gcd.  The reference
    for the integers a row holds and the program rows of the solver.
    """
    den = lcm(rhs.denominator, *(coef.denominator for coef in coeffs.values()))
    cells = {j: int(coef * den) for j, coef in coeffs.items()}
    g = gcd(den, int(rhs * den), *cells.values())
    return den // g, {j: x // g for j, x in cells.items()}, int(rhs * den) // g


def dense_certify(lp: LinearProgram, solution: SimplexSolution) -> CertificateReport:
    """Reference certificate: the primal-dual pair check on the dense matrix.

    The standard form of every row is stored across every structural and
    slack column, zeros included.  Each row is summed in full, the duals are
    read off the slack columns' claimed reduced costs, a slack's value is its
    row's residual over its slack cell, and each reduced cost is formed down
    its whole column.  Slow, but it shares neither ``check_point`` nor the
    sparse pass of :func:`qcmass.simplex.certify`, which must return the same
    ``ok`` and ``failures`` on every claim.
    """
    if solution.status != "optimal":
        raise LPError("only optimal solutions can be certified")
    nv, m = lp.num_vars, len(lp.rows)
    ncols = nv + m
    if set(solution.assignment) != set(range(nv)):
        return CertificateReport(False, ("assignment must cover every variable",))
    x = [Fraction(solution.assignment[j]) for j in range(nv)]
    failures: list[str] = []
    for j, value in enumerate(x):
        if value < ZERO:
            failures.append(f"variable {lp.var_names[j]} is negative: {value}")
    for k, row in enumerate(lp.rows):
        lhs = sum((coef * x[j] for j, coef in row.coeffs), ZERO)
        ok = lhs <= row.rhs if row.relation == "<=" else lhs >= row.rhs
        if not ok:
            failures.append(f"row {k} violated: {lhs} {row.relation} {row.rhs}")
    claimed = ref_objective(lp, x)
    if claimed != solution.objective:
        failures.append(
            f"objective mismatch: assignment gives {claimed}, "
            f"solution claims {solution.objective}"
        )
    if set(solution.reduced_costs) != set(range(ncols)):
        failures.append("reduced costs must cover every column")
        return CertificateReport(False, tuple(failures))

    prepared = ref_prepared_rows(lp)
    matrix = [[coeffs.get(j, ZERO) for j in range(ncols)] for coeffs, _ in prepared]
    flip = ONE if lp.sense == "min" else -ONE
    y = [
        -matrix[i][nv + i] * flip * Fraction(solution.reduced_costs[nv + i])
        for i in range(m)
    ]
    values = x + [
        (rhs - sum((matrix[i][j] * x[j] for j in range(nv)), ZERO)) / matrix[i][nv + i]
        for i, (_, rhs) in enumerate(prepared)
    ]
    costs = ref_internal_costs(lp, ncols)
    for j in range(ncols):
        d = costs[j] - sum((y[i] * matrix[i][j] for i in range(m)), ZERO)
        if d < ZERO:
            failures.append(f"column {j} has negative reduced cost {d}")
        elif d != ZERO and values[j] != ZERO:
            failures.append(
                f"complementary slackness fails on column {j}: "
                f"value {values[j]}, reduced cost {d}"
            )
    return CertificateReport(not failures, tuple(failures))


def reference_certify(lp: LinearProgram, solution: SimplexSolution) -> CertificateReport:
    """Reference certificate: the sparse primal-dual pair check in ``Fraction`` arithmetic.

    The primal half is :func:`ref_check_point`, one ``Fraction`` product per
    term, objective included.  Each dual ``y_i`` is a ``Fraction``, and every
    reduced cost is built one ``Fraction`` multiply and subtract per row term,
    then compared with zero; a slack's value is its row's ``Fraction``
    residual.  ``qcmass.simplex.certify`` does the same over integers on one
    denominator and must return the same ``ok`` and ``failures`` on every claim.
    """
    if solution.status != "optimal":
        raise LPError("only optimal solutions can be certified")
    nv = lp.num_vars
    if set(solution.assignment) != set(range(nv)):
        return CertificateReport(False, ("assignment must cover every variable",))
    x = [Fraction(solution.assignment[j]) for j in range(nv)]
    report = ref_check_point(lp, x)
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
    d = [ZERO] * ncols
    for j, coef in lp.objective:
        d[j] = flip * coef
    for i, row in enumerate(lp.rows):
        reduced = solution.reduced_costs[nv + i]
        if reduced:
            sigma = 1 if row.relation == "<=" else -1
            y = -sigma * flip * Fraction(reduced)
            for j, coef in row.coeffs:
                d[j] -= y * coef
            d[nv + i] -= y * sigma

    def slack(row: Row) -> Fraction:
        lhs = sum((coef * x[j] for j, coef in row.coeffs), ZERO)
        return lhs - row.rhs if row.relation == ">=" else row.rhs - lhs

    for j, dj in enumerate(d):
        if dj < ZERO:
            failures.append(f"column {j} has negative reduced cost {dj}")
        elif dj != ZERO:
            value = x[j] if j < nv else slack(lp.rows[j - nv])
            if value != ZERO:
                failures.append(
                    f"complementary slackness fails on column {j}: "
                    f"value {value}, reduced cost {dj}"
                )
    return CertificateReport(not failures, tuple(failures))


def random_small_lp(rng: random.Random) -> LinearProgram:
    """A small program of any status: optimal, infeasible or unbounded.

    Coefficients are nonzero small integers, halves and thirds; right-hand
    sides may be negative.  Most programs also repeat a ">=" row, repeat it
    scaled, or add the sum of two ">=" rows, so that phase 1 often ends with
    an artificial still basic at value zero and must pivot it out.
    """
    nv = rng.randint(1, 4)

    def coef() -> Fraction:
        return Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 1, 2, 3)))

    rows = []
    for _ in range(rng.randint(1, 5)):
        support_vars = sorted(rng.sample(range(nv), rng.randint(1, nv)))
        rhs = Fraction(rng.randint(-4, 6), rng.choice((1, 1, 2, 3)))
        rows.append(Row("", tuple((j, coef()) for j in support_vars), rng.choice(("<=", ">=", ">=")), rhs))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        geq = [row for row in rows if row.relation == ">="]
        if not geq:
            break
        a = rng.choice(geq)
        kind = rng.choice(("copy", "scale", "sum"))
        if kind == "copy":
            extra = a
        elif kind == "scale":
            k = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            extra = Row("", tuple((j, k * c) for j, c in a.coeffs), ">=", k * a.rhs)
        else:
            b = rng.choice(geq)
            summed = dict(a.coeffs)
            for j, c in b.coeffs:
                summed[j] = summed.get(j, ZERO) + c
            if not any(summed.values()):
                continue
            extra = Row("", tuple(sorted(summed.items())), ">=", a.rhs + b.rhs)
        rows.insert(rng.randrange(len(rows) + 1), extra)
    objective = tuple((j, coef()) for j in range(nv) if rng.random() < 0.8)
    return LinearProgram(
        nv, tuple(f"x{j}" for j in range(nv)), rng.choice(("min", "max")), objective, tuple(rows)
    )


def ref_symmetric_lp(n: int, sense: str) -> LinearProgram:
    """The axis-symmetric program with its rows written out by hand, per level k.

    The reference for ``build_symmetric_lp``, which builds the same rows from
    the full program's row formulas: variables ``a, s, q_0 .. q_n``, and
    rows D, then E for k = 0 .. n-1, then F for k = 0 .. n, in that order.
    """
    a, s = 0, 1
    names = ["a", "s"] + [f"q_{k}" for k in range(n + 1)]
    rows = [Row("D", ((a, 1), (s, 1)), "<=", 1)]
    for k in range(n):
        lower, upper = k + 2, k + 3
        rows.append(Row("E", ((upper, 1), (lower, -1)), ">=", 0))
        rows.append(Row("E", ((s, -1), (upper, 1), (lower, -1)), "<=", 0))
    for k in range(n + 1):
        q = k + 2
        rows.append(Row("F", ((a, -n), (s, -k), (q, 1)), ">=", 1 - n))
        if k < n:
            rows.append(Row("F", ((a, -1), (q, 1)), "<=", 0))
        if k > 0:
            rows.append(Row("F", ((a, -1), (s, -1), (q, 1)), "<=", 0))
    objective = tuple((k + 2, Fraction((-1) ** (n - k) * comb(n, k))) for k in range(n + 1))
    return LinearProgram(n + 3, tuple(names), sense, objective, tuple(rows))


def _lp_terms(items: list[str]) -> tuple[tuple[int, Fraction], ...]:
    return tuple((int(j), parse_rational(c)) for j, c in (item.split(":") for item in items))


def read_lp(text: str) -> LinearProgram:
    """The program that well-formed ``export_lp`` text describes.

    The round-trip oracle for the write-only LP text format: it trusts the
    layout (header, ``var`` lines, ``row`` lines, one ``obj`` line) and
    leaves every check on the numbers to ``Row`` and ``LinearProgram``.
    """
    header, *lines = text.splitlines()
    _, _, num_vars, sense = header.split()
    names: list[str] = []
    rows: list[Row] = []
    objective: tuple[tuple[int, Fraction], ...] = ()
    for line in lines:
        kind, *fields = line.split()
        if kind == "var":
            names.append(fields[1])
        elif kind == "row":
            family, relation, rhs, _, *items = fields
            family = "" if family == "-" else family
            rows.append(Row(family, _lp_terms(items), relation, parse_rational(rhs)))
        else:
            objective = _lp_terms(fields[1:])
    return LinearProgram(int(num_vars), tuple(names), sense, objective, tuple(rows))


# ------------------------------------------------------- dense simplex oracle


def dense_solve(lp: LinearProgram) -> SimplexSolution:
    """Reference solve: the two-phase simplex on dense integer rows.

    Every row stores all its cells, zeros included, and each pivot rebuilds
    every row with a nonzero in the entering column across the full width.
    The pivots, arithmetic and tie-breaks are those :func:`qcmass.simplex.solve`
    promises, so every field of the two solutions must be equal, except two
    measures of the rows each holds: ``stats.cells_touched`` here counts the
    full width of each updated row, and ``peak_denominator_bits`` covers the
    whole tableau, where the solver sees only the rows it holds.
    Unlike the solver, the oracle still drops a row whose artificial has no
    nonzero cell to pivot on after phase 1; equal ``kept_rows`` show that this
    never happens.
    """
    return _DenseSolver(lp).run()


def _normalize_dense(den: int, cells: list[int]) -> tuple[int, list[int]]:
    g = den
    for x in cells:
        if x:
            g = gcd(g, x)
            if g == 1:
                return den, cells
    if g > 1:
        return den // g, [x // g for x in cells]
    return den, cells


class _DenseSolver:
    """One dense solve in progress; rows never reorder, so positions track rowids."""

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.pivots = 0
        self.phase1_pivots = 0
        self.cells_touched = 0
        self.peak_bits = 1
        self.num_vars = lp.num_vars
        self.ncols = lp.num_vars + len(lp.rows)
        self.rowids = list(range(len(lp.rows)))

        prepared = ref_prepared_rows(lp)
        artificial_rows = [
            i for i, (coeffs, _) in enumerate(prepared) if coeffs[lp.num_vars + i] < 0
        ]
        self.num_art = len(artificial_rows)
        total = self.ncols + self.num_art + 1
        self.rows: list[tuple[int, list[int]]] = []
        self.basis: list[int] = []
        next_art = 0
        for i, (coeffs, rhs) in enumerate(prepared):
            den = rhs.denominator
            for coef in coeffs.values():
                den = den * coef.denominator // gcd(den, coef.denominator)
            cells = [0] * total
            for j, coef in coeffs.items():
                cells[j] = int(coef * den)
            cells[-1] = int(rhs * den)
            if coeffs[lp.num_vars + i] > 0:
                self.basis.append(lp.num_vars + i)
            else:
                cells[self.ncols + next_art] = den
                self.basis.append(self.ncols + next_art)
                next_art += 1
            self.rows.append(_normalize_dense(den, cells))
        self._note_bits()

    def _note_bits(self) -> None:
        for den, _ in self.rows:
            if den.bit_length() > self.peak_bits:
                self.peak_bits = den.bit_length()

    def _reduced_cost_row(self, costs: list[Fraction], width: int) -> tuple[int, list[int]]:
        acc = [Fraction(c) for c in costs] + [ZERO]
        for r, (den, cells) in enumerate(self.rows):
            cb = costs[self.basis[r]] if self.basis[r] < len(costs) else ZERO
            if cb:
                for j in range(width + 1):
                    cell = cells[j] if j < width else cells[-1]
                    if cell:
                        acc[j] -= cb * Fraction(cell, den)
        den = 1
        for f in acc:
            den = lcm(den, f.denominator)
        return den, [int(f * den) for f in acc]

    def _kernel(self, objrow: tuple[int, list[int]], width: int) -> tuple[str, tuple[int, list[int]]]:
        oden, ocells = objrow
        while True:
            enter = -1
            for j in range(width):
                if ocells[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", (oden, ocells)
            leave = -1
            best: tuple[int, int] | None = None
            for r, (den, cells) in enumerate(self.rows):
                a = cells[enter]
                if a > 0:
                    if best is None:
                        best, leave = (cells[-1], a), r
                    else:
                        diff = cells[-1] * best[1] - best[0] * a
                        if diff < 0 or (diff == 0 and self.basis[r] < self.basis[leave]):
                            best, leave = (cells[-1], a), r
            if leave < 0:
                return "unbounded", (oden, ocells)
            oden, ocells = self._pivot(leave, enter, (oden, ocells))

    def _pivot(
        self, leave: int, enter: int, objrow: tuple[int, list[int]]
    ) -> tuple[int, list[int]]:
        self.pivots += 1
        _, pcells = self.rows[leave]
        pivot = pcells[enter]
        if pivot < 0:
            pcells = [-x for x in pcells]
            pivot = -pivot
        self.rows[leave] = _normalize_dense(pivot, pcells)
        for r, (den, cells) in enumerate(self.rows):
            if r == leave:
                continue
            c = cells[enter]
            if c:
                self.cells_touched += len(cells)
                self.rows[r] = _normalize_dense(
                    den * pivot, [a * pivot - c * b for a, b in zip(cells, pcells)]
                )
        oden, ocells = objrow
        c = ocells[enter]
        if c:
            oden, ocells = _normalize_dense(
                oden * pivot, [a * pivot - c * b for a, b in zip(ocells, pcells)]
            )
        self.basis[leave] = enter
        self._note_bits()
        if oden.bit_length() > self.peak_bits:
            self.peak_bits = oden.bit_length()
        return oden, ocells

    def _phase_one(self) -> bool:
        total = self.ncols + self.num_art
        costs = [ZERO] * self.ncols + [Fraction(1)] * self.num_art
        status, (oden, ocells) = self._kernel(self._reduced_cost_row(costs, total), total)
        assert status == "optimal"
        if Fraction(-ocells[-1], oden) != ZERO:
            return False
        for r in range(len(self.rows)):
            if self.basis[r] < self.ncols:
                continue
            den, cells = self.rows[r]
            enter = next((j for j in range(self.ncols) if cells[j] != 0), -1)
            if enter >= 0:
                self._pivot(r, enter, (1, [0] * (total + 1)))
        keep = [r for r in range(len(self.rows)) if self.basis[r] < self.ncols]
        self.rows = [self.rows[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        self.rowids = [self.rowids[r] for r in keep]
        self.rows = [
            _normalize_dense(den, cells[: self.ncols] + [cells[-1]]) for den, cells in self.rows
        ]
        return True

    def _stats(self) -> SolveStats:
        return SolveStats(
            self.phase1_pivots, self.pivots - self.phase1_pivots, self.cells_touched
        )

    def run(self) -> SimplexSolution:
        feasible = not self.num_art or self._phase_one()
        self.phase1_pivots = self.pivots
        if not feasible:
            return SimplexSolution(
                "infeasible", None, {}, (), (), {}, self.pivots, self.peak_bits, self._stats()
            )
        if not self.num_art:
            self.rows = [
                _normalize_dense(den, cells[: self.ncols] + [cells[-1]])
                for den, cells in self.rows
            ]
        costs = ref_internal_costs(self.lp, self.ncols)
        status, (oden, ocells) = self._kernel(
            self._reduced_cost_row(costs, self.ncols), self.ncols
        )
        if status == "unbounded":
            return SimplexSolution(
                "unbounded", None, {}, (), (), {}, self.pivots, self.peak_bits, self._stats()
            )
        internal = Fraction(-ocells[-1], oden)
        flip = Fraction(1 if self.lp.sense == "min" else -1)
        assignment = {j: ZERO for j in range(self.num_vars)}
        for r, (den, cells) in enumerate(self.rows):
            if self.basis[r] < self.num_vars:
                assignment[self.basis[r]] = Fraction(cells[-1], den)
        reduced = {j: flip * Fraction(ocells[j], oden) for j in range(self.ncols)}
        return SimplexSolution(
            "optimal",
            flip * internal,
            assignment,
            tuple(self.basis),
            tuple(self.rowids),
            reduced,
            self.pivots,
            self.peak_bits,
            self._stats(),
        )
