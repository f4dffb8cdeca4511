"""Piecewise-uniform signed mass grids on the unit cube and the functions they induce.

A mass grid places a rational amount of (possibly negative) mass, spread
uniformly, on each cell of a rectilinear partition of [0,1]^n.  Summing the
mass on the lower-left orthant of a point gives a function Q on [0,1]^n; on
each cell Q is the multilinear interpolation of its values at the 2^n
surrounding lattice nodes.  Grids whose induced Q is grounded, has uniform
margins, and is coordinatewise nondecreasing and 1-Lipschitz are exactly the
piecewise-uniform n-quasi-copulas, which may charge boxes with negative mass.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from .rational import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


class GridError(ValueError):
    """Raised for malformed partitions, boxes, grids, or grid files."""


@dataclass(frozen=True)
class AxisPartition:
    """Strictly increasing breakpoints 0 = t_0 < t_1 < ... < t_k = 1."""

    breakpoints: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pts = tuple(Fraction(p) for p in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise GridError("partition needs at least two breakpoints")
        if pts[0] != ZERO or pts[-1] != ONE:
            raise GridError("partition must start at 0 and end at 1")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise GridError("breakpoints must be strictly increasing")

    @property
    def num_cells(self) -> int:
        return len(self.breakpoints) - 1

    def width(self, j: int) -> Fraction:
        return self.breakpoints[j + 1] - self.breakpoints[j]

    def locate(self, u: Fraction) -> int:
        """Index j of a slab with t_j <= u <= t_(j+1), for u in [0,1]."""
        if not ZERO <= u <= ONE:
            raise GridError(f"coordinate {u} outside [0,1]")
        if u == ONE:
            return self.num_cells - 1
        return bisect_right(self.breakpoints, u) - 1


@dataclass(frozen=True)
class NBox:
    """An axis-aligned box inside [0,1]^n, given by per-axis closed intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        ivs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise GridError("box needs at least one axis")
        for lo, hi in ivs:
            if not (ZERO <= lo <= hi <= ONE):
                raise GridError(f"interval [{lo}, {hi}] not nested in [0,1]")

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    def vertex(self, pattern: "VertexPattern") -> tuple[Fraction, ...]:
        return tuple(
            iv[1] if up else iv[0]
            for iv, up in zip(self.intervals, pattern.upper_flags)
        )


@dataclass(frozen=True)
class VertexPattern:
    """One corner of a box: per axis, False picks the lower end, True the upper."""

    upper_flags: tuple[bool, ...]

    @property
    def sign(self) -> int:
        """+1 when the number of lower ends is even, else -1.

        These are the signs of the inclusion-exclusion sum whose value is the
        mass a distribution function assigns to the box.
        """
        lowers = len(self.upper_flags) - sum(self.upper_flags)
        return 1 if lowers % 2 == 0 else -1


def vertex_patterns(n: int) -> Iterator[VertexPattern]:
    """All 2^n corner patterns, in lexicographic flag order (last axis fastest)."""
    for flags in product((False, True), repeat=n):
        yield VertexPattern(flags)


@dataclass(frozen=True)
class MassGrid:
    """Signed rational mass per cell of a rectilinear partition of [0,1]^n.

    Cells are indexed by tuples of per-axis slab indices.  Zero masses are
    dropped on construction, so equality of grids is equality of the support.
    """

    partitions: tuple[AxisPartition, ...]
    cell_masses: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parts = tuple(self.partitions)
        object.__setattr__(self, "partitions", parts)
        if not parts:
            raise GridError("grid needs at least one axis")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for cell, mass in self.cell_masses.items():
            cell = tuple(cell)
            if len(cell) != len(parts):
                raise GridError(f"cell {cell} has wrong arity")
            for i, c in enumerate(cell):
                if not 0 <= c < parts[i].num_cells:
                    raise GridError(f"cell {cell} out of range on axis {i}")
            mass = Fraction(mass)
            if mass != ZERO:
                cleaned[cell] = mass
        object.__setattr__(self, "cell_masses", cleaned)

    @property
    def dimension(self) -> int:
        return len(self.partitions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(p.num_cells for p in self.partitions)

    def total_mass(self) -> Fraction:
        return sum(self.cell_masses.values(), ZERO)

    def cell_box(self, cell: tuple[int, ...]) -> NBox:
        return NBox(
            tuple(
                (p.breakpoints[c], p.breakpoints[c + 1])
                for p, c in zip(self.partitions, cell)
            )
        )

    def iter_cells(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Every cell with its mass (zeros included), in lexicographic order."""
        for cell in product(*(range(s) for s in self.shape)):
            yield cell, self.cell_masses.get(cell, ZERO)


@dataclass(frozen=True)
class Violation:
    """A single failed check.

    ``location`` depends on ``kind``:
      grounded, frechet-lower, frechet-upper: the lattice node index tuple;
      margin: (axis, slab index), comparing slab mass against slab width;
      monotone, lipschitz: (axis,) + the lower node index tuple of the edge.
    All indices are 0-based.
    """

    kind: str
    location: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class AxiomReport:
    grounded_ok: bool
    uniform_margins_ok: bool
    monotone_ok: bool
    lipschitz_ok: bool
    violations: tuple[Violation, ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.grounded_ok
            and self.uniform_margins_ok
            and self.monotone_ok
            and self.lipschitz_ok
        )


@dataclass(frozen=True)
class GridQuasiCopula:
    """A mass grid together with the induced function's values at lattice nodes.

    ``node_values[v]`` is the total mass of the orthant below lattice node v,
    so it equals Q at that node.  Between nodes Q is multilinear per cell.
    Build instances with :func:`make_grid_qc`.
    """

    grid: MassGrid
    node_values: Mapping[tuple[int, ...], Fraction]

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Q at an arbitrary point of [0,1]^n, by per-cell multilinear interpolation."""
        if len(point) != self.dimension:
            raise GridError(f"point has arity {len(point)}, expected {self.dimension}")
        axis_weights: list[list[tuple[int, Fraction]]] = []
        for part, u in zip(self.grid.partitions, point):
            u = Fraction(u)
            j = part.locate(u)
            frac = (u - part.breakpoints[j]) / part.width(j)
            weights = []
            if frac != ONE:
                weights.append((j, ONE - frac))
            if frac != ZERO:
                weights.append((j + 1, frac))
            axis_weights.append(weights)
        total = ZERO
        for combo in product(*axis_weights):
            node = tuple(j for j, _ in combo)
            w = ONE
            for _, wi in combo:
                w *= wi
            total += w * self.node_values[node]
        return total

    def box_volume(self, box: NBox) -> Fraction:
        """Signed mass Q places on ``box``: the inclusion-exclusion sum over corners."""
        if box.dimension != self.dimension:
            raise GridError(f"box has arity {box.dimension}, expected {self.dimension}")
        total = ZERO
        for pattern in vertex_patterns(self.dimension):
            total += pattern.sign * self.evaluate(box.vertex(pattern))
        return total

    def verify_axioms(self) -> AxiomReport:
        """Decide whether the induced function is an n-quasi-copula.

        All four axioms quantify over the whole cube but are decided here by
        finitely many node and edge checks.  This reduction is exact because Q
        is multilinear on each cell:

        * along any segment parallel to axis i inside a cell, Q is affine, and
          its slope is a convex combination (with nonnegative product weights
          from the other coordinates) of the slopes of that cell's 2^(n-1)
          axis-i lattice edges.  Hence Q is nondecreasing in each coordinate
          everywhere iff every lattice edge rises by >= 0, and is 1-Lipschitz
          in each coordinate iff every lattice edge rises by at most the slab
          width.  Coordinatewise 1-Lipschitz gives the quasi-copula Lipschitz
          axiom |Q(u)-Q(v)| <= sum_i |u_i - v_i| by the triangle inequality.
        * restricted to one coordinate with the others held at 1, Q is
          piecewise linear with nodes at the breakpoints, and the identity is
          linear, so the margin equals the identity on all of [0,1] iff it
          does at every breakpoint.  The margin starts at 0 (grounded), so
          node agreement is in turn equivalent to every increment matching:
          the mass of each axis slab (all cells with that slab index) must
          equal the slab's width.  The check below uses this mass form,
          summing cells directly rather than reading the node-value cache.
          The same piecewise-linearity argument grounds Q: on the face
          u_i = 0 the function vanishes everywhere iff it vanishes at nodes.
        """
        n = self.dimension
        sizes = self.grid.shape
        bad: list[Violation] = []
        grounded_ok = margins_ok = monotone_ok = lipschitz_ok = True

        node_ranges = [range(s + 1) for s in sizes]
        for node in product(*node_ranges):
            if any(c == 0 for c in node):
                v = self.node_values[node]
                if v != ZERO:
                    grounded_ok = False
                    bad.append(Violation("grounded", node, v, ZERO))

        for axis in range(n):
            slab_sums = [ZERO] * sizes[axis]
            for cell, mass in self.grid.cell_masses.items():
                slab_sums[cell[axis]] += mass
            for j, total in enumerate(slab_sums):
                width = self.grid.partitions[axis].width(j)
                if total != width:
                    margins_ok = False
                    bad.append(Violation("margin", (axis, j), total, width))

        for axis in range(n):
            width = self.grid.partitions[axis].width
            lower_ranges = [
                range(s + 1) if i != axis else range(s) for i, s in enumerate(sizes)
            ]
            for node in product(*lower_ranges):
                upper = node[:axis] + (node[axis] + 1,) + node[axis + 1 :]
                rise = self.node_values[upper] - self.node_values[node]
                if rise < ZERO:
                    monotone_ok = False
                    bad.append(Violation("monotone", (axis,) + node, rise, ZERO))
                w = width(node[axis])
                if rise > w:
                    lipschitz_ok = False
                    bad.append(Violation("lipschitz", (axis,) + node, rise, w))

        return AxiomReport(grounded_ok, margins_ok, monotone_ok, lipschitz_ok, tuple(bad))

    def frechet_envelope_check(self) -> tuple[Violation, ...]:
        """Where Q leaves the pointwise envelope max(sum u - n + 1, 0) <= Q <= min(u).

        Checking lattice nodes decides the whole cube: within a cell Q(u) is a
        convex combination of its node values, the upper envelope min(u) is
        concave, and the lower envelope is convex, so node inequalities push
        through the combination in both directions.
        """
        n = self.dimension
        bad: list[Violation] = []
        node_ranges = [range(s + 1) for s in self.grid.shape]
        for node in product(*node_ranges):
            coords = tuple(
                p.breakpoints[c] for p, c in zip(self.grid.partitions, node)
            )
            v = self.node_values[node]
            lower = max(sum(coords) - (n - 1), ZERO)
            upper = min(coords)
            if v < lower:
                bad.append(Violation("frechet-lower", node, v, lower))
            if v > upper:
                bad.append(Violation("frechet-upper", node, v, upper))
        return tuple(bad)

    def marginalize(self, axis: int) -> "GridQuasiCopula":
        return make_grid_qc(marginalize(self.grid, axis))


def make_grid_qc(grid: MassGrid) -> GridQuasiCopula:
    """Accumulate orthant masses into node values via per-axis prefix sums."""
    sizes = grid.shape
    node_ranges = [range(s + 1) for s in sizes]
    values: dict[tuple[int, ...], Fraction] = {
        node: ZERO for node in product(*node_ranges)
    }
    for cell, mass in grid.cell_masses.items():
        upper = tuple(c + 1 for c in cell)
        values[upper] += mass
    for axis in range(grid.dimension):
        # product() yields nodes in lexicographic order, so the predecessor
        # along `axis` is always already accumulated for this pass.
        for node in product(*node_ranges):
            if node[axis] > 0:
                prev = node[:axis] + (node[axis] - 1,) + node[axis + 1 :]
                values[node] += values[prev]
    return GridQuasiCopula(grid, values)


def marginalize(grid: MassGrid, axis: int) -> MassGrid:
    """Sum the mass over one axis, yielding an (n-1)-dimensional grid.

    The induced function of the result is Q with coordinate ``axis`` pinned
    to 1: collapsing a cell index sums exactly the masses that the orthant
    count of any surviving node picks up along the dropped axis.
    """
    if grid.dimension < 2:
        raise GridError("cannot marginalize a one-dimensional grid")
    if not 0 <= axis < grid.dimension:
        raise GridError(f"axis {axis} out of range for dimension {grid.dimension}")
    parts = grid.partitions[:axis] + grid.partitions[axis + 1 :]
    masses: dict[tuple[int, ...], Fraction] = {}
    for cell, mass in grid.cell_masses.items():
        reduced = cell[:axis] + cell[axis + 1 :]
        masses[reduced] = masses.get(reduced, ZERO) + mass
    return MassGrid(parts, masses)


def builtin_example(name: str) -> GridQuasiCopula:
    """Bundled 4-dimensional quasi-copulas exhibiting extreme box masses.

    ``q1`` places mass -9/7 on the box [3/7, 6/7]^4 (breakpoints {0, 3/7,
    6/7, 1} on every axis); ``q2`` places mass 2 on [1/2, 1]^4 (breakpoints
    {0, 1/2, 1}).
    """
    if name == "q1":
        part = AxisPartition((ZERO, Fraction(3, 7), Fraction(6, 7), ONE))
        masses: dict[tuple[int, ...], Fraction] = {}
        for axis in range(4):
            low = tuple(0 if i == axis else 1 for i in range(4))
            mid = tuple(2 if i == axis else 1 for i in range(4))
            masses[low] = Fraction(3, 7)
            masses[mid] = Fraction(1, 7)
        masses[(1, 1, 1, 1)] = Fraction(-9, 7)
        return make_grid_qc(MassGrid((part,) * 4, masses))
    if name == "q2":
        part = AxisPartition((ZERO, Fraction(1, 2), ONE))
        masses = {(1, 1, 1, 1): Fraction(2)}
        for axes in combinations(range(4), 2):
            cell = tuple(0 if i in axes else 1 for i in range(4))
            masses[cell] = Fraction(1, 2)
        for axis in range(4):
            cell = tuple(0 if i == axis else 1 for i in range(4))
            masses[cell] = Fraction(-1)
        return make_grid_qc(MassGrid((part,) * 4, masses))
    raise GridError(f"unknown example {name!r} (expected 'q1' or 'q2')")


def grid_payload(grid: MassGrid) -> dict:
    """The grid file structure as plain JSON types (sorted cells, zeros omitted)."""
    return {
        "dimension": grid.dimension,
        "partitions": [
            [format_rational(t) for t in p.breakpoints] for p in grid.partitions
        ],
        "masses": [
            {"cell": list(cell), "mass": format_rational(mass)}
            for cell, mass in sorted(grid.cell_masses.items())
        ],
    }


def grid_to_json(grid: MassGrid) -> str:
    """Serialize to the grid file format."""
    return json.dumps(grid_payload(grid), indent=2) + "\n"


def _is_int(value: object) -> bool:
    """A JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def grid_from_json(text: str) -> MassGrid:
    """Parse the grid file format, validating shape, ranges, and rationals."""
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
    if not _is_int(dim) or not isinstance(parts_raw, list):
        raise GridError("malformed dimension or partitions")
    if len(parts_raw) != dim:
        raise GridError(f"dimension is {dim} but {len(parts_raw)} partitions given")
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
        if not isinstance(cell_raw, list) or not all(_is_int(c) for c in cell_raw):
            raise GridError(f"malformed cell index: {cell_raw!r}")
        cell = tuple(cell_raw)
        if cell in masses:
            raise GridError(f"duplicate cell {cell}")
        try:
            masses[cell] = parse_rational(entry["mass"])
        except ValueError as exc:
            raise GridError(f"malformed mass for cell {cell}: {exc}") from exc
    return MassGrid(partitions, masses)
