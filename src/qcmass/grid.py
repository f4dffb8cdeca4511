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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import add, itemgetter, lt, mul, sub
from types import MappingProxyType
from typing import Iterator, Mapping, NoReturn, Sequence

# Re-exported: qcmass.grid.NBox, GridError and corner_sign are the box module's.
from .box import ONE, ZERO, GridError, NBox, _rational, corner_sign
from .rational import _over_one_den, _parse_ratio, format_rational, parse_rational


@dataclass(frozen=True)
class AxisPartition:
    """Strictly increasing breakpoints 0 = t_0 < t_1 < ... < t_k = 1.

    ``breakpoints`` is the public :class:`Fraction` tuple, and partitions
    compare and hash by it.  Each breakpoint may be given as anything
    :class:`Fraction` accepts; a :class:`Fraction` is kept as given.  The
    integer form is built once, on construction: ``den`` is the lcm of the
    breakpoints' denominators and ``ints`` holds each breakpoint times
    ``den``, so ``ints`` runs from 0 to ``den``.  The checks run on ``ints``,
    and so does every reader in this module: a slab's width is
    ``ints[j + 1] - ints[j]`` over ``den``.
    """

    breakpoints: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    ints: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(_rational(t, "breakpoint") for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise GridError("partition needs at least two breakpoints")
        den, ints = _over_one_den(pts)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(ints))
        if ints[0] != 0 or ints[-1] != den:
            raise GridError("partition must start at 0 and end at 1")
        if not all(map(lt, ints, ints[1:])):
            raise GridError("breakpoints must be strictly increasing")

    @property
    def num_cells(self) -> int:
        return len(self.breakpoints) - 1

    def width(self, j: int) -> Fraction:
        return self.breakpoints[j + 1] - self.breakpoints[j]


def _least_den(den: int, scaled: dict) -> tuple[int, dict]:
    """The values ``scaled[k] / den`` over their least denominator: both divided by their gcd.

    Every denominator that turns the values into integers is a multiple of
    the least one, so the gcd of ``den`` and the values is ``den`` over it.
    """
    g = gcd(den, *scaled.values())
    if g == 1:
        return den, scaled
    return den // g, {k: m // g for k, m in scaled.items()}


def _checked_masses(
    masses: Mapping[tuple[int, ...], object], shape: tuple[int, ...]
) -> dict[tuple[int, ...], Fraction]:
    """``masses`` with tuple cells and :class:`Fraction` masses, walking the cells in order.

    Raises :class:`GridError` for the first cell that is not a tuple, of
    wrong arity, with an index that is not an int, or out of range, or whose
    mass is not a rational number (``None``, ``"x"``, nan, ``1j``).
    ``type(i) is int``, as in :func:`grid_from_json`: a bool or a float is no
    cell index, and a string such as ``"01"`` is no cell.  Zero masses are
    kept; :class:`MassGrid` drops them.
    """
    checked: dict[tuple[int, ...], Fraction] = {}
    for cell, mass in masses.items():
        if not isinstance(cell, tuple):
            raise GridError(f"cell {cell!r} is not a tuple of indices")
        cell = tuple(cell)
        if len(cell) != len(shape):
            raise GridError(f"cell {cell} has wrong arity")
        if not all(type(i) is int for i in cell):
            raise GridError(f"cell {cell} has an index that is not an int")
        if min(cell) < 0 or not all(map(lt, cell, shape)):
            i = next(i for i, c in enumerate(cell) if not 0 <= c < shape[i])
            raise GridError(f"cell {cell} out of range on axis {i}")
        checked[cell] = _rational(mass, f"cell {cell} mass")
    return checked


class _CellMasses(Mapping[tuple[int, ...], Fraction]):
    """Cell masses as Python integers over one common denominator ``_den``.

    ``_ints`` maps each cell to its mass times ``_den``, in the order the
    cells were given; each is a tuple of ints inside ``_shape``, the shape
    it was checked for.  Once a :class:`MassGrid` holds it, every mass is
    nonzero and ``_den`` is the lcm of the masses' reduced denominators (1
    for no cells), so the form is unique for each grid.  Reading a cell
    builds its reduced :class:`Fraction`; the code in this module works on
    ``_ints`` directly, and :attr:`MassGrid.integer_form` hands out a
    read-only view of it.  Everything else, ``get``, ``in`` and ``==`` (to
    any mapping of the same masses, a plain dict included), is
    :class:`Mapping`'s, built on reading cells.  Nothing writes an
    attribute after construction, so grids built from one another may share
    one.
    """

    __slots__ = ("_den", "_ints", "_shape")

    def __init__(self, den: int, ints: dict[tuple[int, ...], int], shape: tuple[int, ...]) -> None:
        self._den = den
        self._ints = ints
        self._shape = shape

    def __getitem__(self, cell: tuple[int, ...]) -> Fraction:
        return Fraction(self._ints[cell], self._den)

    def __len__(self) -> int:
        return len(self._ints)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._ints)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class MassGrid:
    """Signed rational mass per cell of a rectilinear partition of [0,1]^n.

    Cells are indexed by tuples of per-axis slab indices.  Zero masses are
    dropped on construction, so equality of grids is equality of the support.

    The masses are held once, as Python integers over one denominator: the
    lcm of their reduced denominators, so the form is unique for each grid
    (:attr:`integer_form`).  ``cell_masses`` is a read-only view of it that
    builds a reduced :class:`Fraction` for each cell read, and compares equal
    to a plain dict of the same masses.

    Construction takes one of two routes.  A plain mapping of cells to
    masses (in the package, :func:`builtin_grid`'s, and the loader's when a
    cell is bad) is walked in order, cell by cell: :class:`GridError` names the first cell that is not
    a tuple, of wrong arity, with an index that is not an int, or out of
    range, or whose mass is not rational, and each mass becomes a
    :class:`Fraction`.  It is copied and
    converted once, so a grid, and every function built from it, never
    changes.  An integer form made for the grid's shape is taken as given,
    only its zero masses dropped: its makers, :func:`grid_from_json` and
    :func:`marginalize`, check its cells or take them from a checked grid.
    One made for another shape (a grid's ``cell_masses`` given with other
    partitions) takes the first route.
    """

    partitions: tuple[AxisPartition, ...]
    cell_masses: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parts = tuple(self.partitions)
        object.__setattr__(self, "partitions", parts)
        if not parts:
            raise GridError("grid needs at least one axis")
        shape = tuple(p.num_cells for p in parts)
        masses = self.cell_masses
        if type(masses) is not _CellMasses or masses._shape != shape:
            checked = _checked_masses(masses, shape)
            den, ints = _over_one_den(checked.values())
            masses = _CellMasses(den, dict(zip(checked, ints)), shape)
        if not all(masses._ints.values()):
            masses = _CellMasses(masses._den, {c: m for c, m in masses._ints.items() if m}, shape)
        object.__setattr__(self, "cell_masses", masses)

    @property
    def integer_form(self) -> tuple[int, Mapping[tuple[int, ...], int]]:
        """``(den, ints)``: the grid's denominator and a read-only map of cell to mass * den."""
        masses = self.cell_masses
        return masses._den, MappingProxyType(masses._ints)

    @property
    def dimension(self) -> int:
        return len(self.partitions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(p.num_cells for p in self.partitions)

    def box_volume(self, box: NBox) -> Fraction:
        """Signed mass on ``box``: the sum over cells of m_c * prod_i |B_i & slab_i| / width_i.

        Each cell spreads its mass uniformly, so the part inside the box is
        the product of the per-axis covered fractions of its slabs.  That is
        the inclusion-exclusion sum of the induced function over the box's
        corners, read off the cells without building a node lattice.  On
        each axis the breakpoints (the partition's ``ints``) and the box's
        two endpoints are put over the lcm of their denominators, so a
        slab's covered part and its width are an integer pair; the axis's
        weights are those shares over the lcm of the partly covered slabs'
        widths.  The masses are read in the grid's integer form, so the sum
        is one integer, and one :class:`Fraction` is built, for the result.
        An axis the box covers no part of (a zero-width interval) makes it 0
        at once.

        The one formula reads the cells in whichever of two orders reads
        fewer.  When the covered slabs span fewer cells (the product over
        the axes of the number of slabs with a nonzero weight) than the grid
        stores, each of those cells is looked up in the integer map;
        otherwise every stored cell is walked, as a cell outside the box
        weighs 0.  So a box inside one slab per axis reads one cell, and the
        whole cube reads each stored cell once.
        """
        if box.dimension != self.dimension:
            raise GridError(f"box has arity {box.dimension}, expected {self.dimension}")
        weights: list[list[int]] = []
        slabs: list[list[int]] = []  # per axis, the slabs of nonzero weight
        scale = 1
        for part, (lo, hi) in zip(self.partitions, box.intervals):
            unit = lcm(part.den, lo.denominator, hi.denominator)
            lo = lo.numerator * (unit // lo.denominator)
            hi = hi.numerator * (unit // hi.denominator)
            step = unit // part.den
            pts = [t * step for t in part.ints]
            # (covered length, width) of each slab, in units of 1/unit
            shares = [
                (min(hi, b) - max(lo, a), b - a) if lo < b and a < hi else (0, 1)
                for a, b in zip(pts, pts[1:])
            ]
            covered = [j for j, (c, _) in enumerate(shares) if c]
            if not covered:
                return ZERO
            # A whole slab's share is 1; the partly covered ones go over the
            # lcm of their widths (an uncovered slab's 1 leaves it as it is).
            den = lcm(*[w for c, w in shares if c != w])
            scale *= den
            weights.append([den if c == w else c * (den // w) for c, w in shares])
            slabs.append(covered)
        masses = self.cell_masses
        ints = masses._ints
        if prod(map(len, slabs)) < len(ints):
            get = ints.get
            cells = ((cell, get(cell, 0)) for cell in product(*slabs))
        else:
            cells = ints.items()
        total = 0
        for cell, w in cells:
            for axis_weights, c in zip(weights, cell):
                w *= axis_weights[c]
                if not w:
                    break
            total += w
        return Fraction(total, masses._den * scale)


@dataclass(frozen=True)
class Violation:
    """A single failed check.

    ``location`` depends on ``kind``:
      grounded, frechet-lower, frechet-upper: the lattice node index tuple;
      margin: (axis, slab index), comparing slab mass against slab width;
      monotone, lipschitz: (axis,) + the lower node index tuple of the edge;
      total-mass (listed by ``qcmass verify``): the empty tuple.
    All indices are 0-based.  This module never reports ``grounded``: a
    grid's function is grounded by construction (see
    :meth:`GridQuasiCopula.verify_axioms`).  The kind stays for node-by-node
    reference checks.
    """

    kind: str
    location: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class AxiomReport:
    """The axiom violations :meth:`GridQuasiCopula.verify_axioms` found.

    ``all_ok`` (no violation) is the quasi-copula predicate: a grid that
    passes lies in the Fréchet envelope and has total mass 1 (the argument
    is in :meth:`GridQuasiCopula.verify_axioms`).
    """

    violations: tuple[Violation, ...]

    @property
    def all_ok(self) -> bool:
        return not self.violations


# A grid file of a few lines can describe a lattice of 2^40 nodes; anything
# above this many is refused before a node is allocated.  The largest
# lattices the tools are meant for have tens of thousands of nodes.
MAX_LATTICE_NODES = 2**24


class _NodeLattice(Mapping[tuple[int, ...], Fraction]):
    """Node values as Python integers over one common denominator ``den``.

    ``ints`` is flat and row-major (last axis fastest), so flat order is the
    lexicographic node order, and node ``v`` sits at ``sum(v_i * strides[i])``.
    Reading a node builds its :class:`Fraction`; the checks in this module
    work on ``ints`` directly, and pair a node with its neighbour along an
    axis by one walk, :meth:`edges`.
    """

    __slots__ = ("sizes", "strides", "den", "ints")

    def __init__(self, sizes: tuple[int, ...], den: int, ints: list[int]) -> None:
        self.sizes = sizes
        self.strides = tuple(prod(sizes[i + 1 :]) for i in range(len(sizes)))
        self.den = den
        self.ints = ints

    @classmethod
    def from_grid(cls, grid: MassGrid) -> "_NodeLattice":
        """Orthant masses of ``grid`` at every node, by per-axis prefix sums.

        Node values are integers over ``den``, the denominator of the grid's
        :attr:`MassGrid.integer_form`, whose scaled masses are read as they
        are.  Each cell's scaled mass is placed on its upper node c+1, at
        flat position ``sum(strides) + sum(c_i * strides[i])``, and one
        prefix-sum pass per axis turns those into orthant sums: one walk of
        :meth:`edges`, in increasing j, in which every node with coordinate
        j+1 adds its neighbour at j, one ``map(add, ...)`` per slice pair.
        GridError when the lattice has more than ``MAX_LATTICE_NODES`` nodes.
        """
        sizes = tuple(s + 1 for s in grid.shape)
        count = prod(sizes)
        if count > MAX_LATTICE_NODES:
            raise GridError(
                f"grid lattice has {count} nodes, more than the limit of {MAX_LATTICE_NODES}"
            )
        masses = grid.cell_masses
        lattice = cls(sizes, masses._den, [0] * count)
        ints, strides = lattice.ints, lattice.strides
        base = sum(strides)
        for cell, mass in masses._ints.items():
            ints[base + sum(map(mul, cell, strides))] = mass
        for axis in range(len(sizes)):
            for _, lo, hi in lattice.edges(axis):
                ints[hi] = map(add, ints[lo], ints[hi])
        return lattice

    def edges(self, axis: int) -> Iterator[tuple[int, slice, slice]]:
        """Axis ``axis``'s edges, as ``(j, lower, upper)`` slices of ``ints``, in increasing j.

        ``lower`` holds nodes with coordinate j and ``upper`` their neighbours
        at j+1, ``stride`` positions on; each edge is in exactly one pair.  A
        block, the ``stride * size`` nodes over which the axis runs once,
        holds its nodes of coordinate j in one run of ``stride``.  With no
        more blocks than ``stride`` the slices are those runs; otherwise they
        are ``stride`` slices of step ``block``, one per offset in a run.  A
        differencing pass walks the same pairs in decreasing j.
        """
        count, stride = len(self.ints), self.strides[axis]
        block = stride * self.sizes[axis]
        # Lower slices start `gap` apart within `span`; each covers `length` at `step`.
        if count // block <= stride:
            span, gap, length, step = count, block, stride, 1
        else:
            span, gap, length, step = stride, 1, count, block
        for j in range(self.sizes[axis] - 1):
            for lo in range(j * stride, j * stride + span, gap):
                hi = lo + stride
                yield j, slice(lo, lo + length, step), slice(hi, hi + length, step)

    def node(self, k: int) -> tuple[int, ...]:
        """The node index tuple at flat position ``k``."""
        return tuple(k // stride % size for stride, size in zip(self.strides, self.sizes))

    def __getitem__(self, node: tuple[int, ...]) -> Fraction:
        if (
            not isinstance(node, tuple)
            or len(node) != len(self.sizes)
            or not all(0 <= c < s for c, s in zip(node, self.sizes))
        ):
            raise KeyError(node)
        k = sum(c * s for c, s in zip(node, self.strides))
        return Fraction(self.ints[k], self.den)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product(*map(range, self.sizes))


@dataclass(frozen=True)
class GridQuasiCopula:
    """A mass grid together with the induced function's values at lattice nodes.

    ``node_values[v]`` is the total mass of the orthant below lattice node v,
    so it equals Q at that node.  The values are built from ``grid`` on
    construction, so they always agree with it.  They are held as Python
    integers over one common denominator in a flat row-major list, and the
    axiom and envelope checks below run on those integers; a
    :class:`Fraction` is built only for a value handed out.  Q anywhere else,
    and the mass of a box, are read off the cells instead
    (:meth:`evaluate`, :meth:`box_volume`).
    """

    grid: MassGrid
    node_values: Mapping[tuple[int, ...], Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_values", _NodeLattice.from_grid(self.grid))

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Q at a point of [0,1]^n: the mass of the orthant box [0, point].

        That is Q's definition, so this is :meth:`MassGrid.box_volume` of the
        box; the node values are not read.  :class:`GridError` for a point of
        the wrong arity or that is not a sequence, or (from :class:`NBox`) a
        coordinate outside [0,1] or not rational.
        """
        try:
            arity = len(point)
        except TypeError as exc:
            raise GridError(f"point {point!r} is not a sequence of coordinates") from exc
        if arity != self.dimension:
            raise GridError(f"point has arity {arity}, expected {self.dimension}")
        return self.grid.box_volume(NBox(tuple((ZERO, u) for u in point)))

    def box_volume(self, box: NBox) -> Fraction:
        """Signed mass Q places on ``box``, the inclusion-exclusion sum over its corners.

        That sum equals the mass the cells put inside the box, so this is
        :meth:`MassGrid.box_volume` of ``grid``; the node values are not read.
        """
        return self.grid.box_volume(box)

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
        * Q is grounded by construction.  :meth:`_NodeLattice.from_grid`
          puts each cell's mass on node c+1, whose coordinates are all >= 1,
          so before the prefix sums every node with a zero coordinate is 0.
          A prefix sum along an axis adds to a node only nodes with the same
          coordinates on the other axes, and on that axis the first node is
          left as it is, so each pass keeps those nodes 0.  On the face
          u_i = 0, Q interpolates only nodes with coordinate i equal to 0,
          so it vanishes there.  No grounded check is run.
        * restricted to one coordinate with the others held at 1, Q is
          piecewise linear with nodes at the breakpoints, and the identity is
          linear, so the margin equals the identity on all of [0,1] iff it
          does at every breakpoint.  The margin starts at 0 (grounded), so
          node agreement is in turn equivalent to every increment matching.
          Along axis i with the other coordinates at 1, the increment of Q
          over slab j is the mass of that slab (all cells with slab index j
          on axis i), which must equal the slab's width.  That line of nodes
          is one strided run of the lattice ending at its top node.

        A grid that passes every check lies in the Fréchet envelope and has
        total mass 1, as every n-quasi-copula does (Genest, Quesada-Molina,
        Rodríguez-Lallena and Sempi 1999).  On the lattice it takes five lines;
        let v be a node with coordinates u:

        * Q(1,...,1) = 1: the axis-0 margin line starts at 0 and rises by
          the slab widths, which sum to 1.
        * Q(v) <= u_i: walking up every axis but i to 1 does not lower Q
          (monotone), and there Q is the axis-i margin, u_i.
        * Q(v) >= 0: walking down axis 0 to the face u_0 = 0 does not raise
          Q (monotone), and Q is 0 there (grounded).
        * Q(v) >= sum u - (n-1): walking up each axis i in turn to the top
          node raises Q by at most 1 - u_i (Lipschitz), and Q is 1 there.

        So when ``all_ok`` holds, :meth:`frechet_envelope_check` finds
        nothing and the top node is 1; ``qcmass verify`` runs that check and
        reads that node only for a grid that fails an axiom.

        The edges of axis i run from the nodes with coordinate j to those
        with j+1.  One walk of :meth:`_NodeLattice.edges` takes their rises a
        slice pair at a time, by ``map(sub, ...)``, and tests them against 0
        and slab j's width with one ``min`` and one ``max``; only a pair that
        fails is walked for the failing edges.

        Slab widths are read in the partitions' integer form
        (:class:`AxisPartition` ``den`` and ``ints``), so every test compares
        integers: a margin increment over the lattice's denominator against a
        width over the partition's, cross-multiplied, and a rise against the
        floor of its width times the lattice's denominator.  A
        :class:`Fraction` is built only for a :class:`Violation`.

        Violations are listed margin, then per axis monotone and Lipschitz,
        each in lexicographic order of its location.  On one axis that is the
        flat order of the edges' lower nodes, by which each axis's failing
        edges are sorted.
        """
        lattice = self.node_values
        ints, den, count = lattice.ints, lattice.den, len(lattice.ints)
        bad: list[Violation] = []

        for axis, (part, stride) in enumerate(zip(self.grid.partitions, lattice.strides)):
            line = ints[count - 1 - part.num_cells * stride : count : stride]
            pts = part.ints
            for j, (lo, hi) in enumerate(zip(line, line[1:])):
                # (hi - lo) / den against the width (pts[j + 1] - pts[j]) / part.den
                if (hi - lo) * part.den != (pts[j + 1] - pts[j]) * den:
                    mass = Fraction(hi - lo, den)
                    bad.append(Violation("margin", (axis, j), mass, part.width(j)))

        for axis, part in enumerate(self.grid.partitions):
            # (flat position of the lower node, rise, slab) of each failing edge
            failing: list[tuple[int, int, int]] = []
            # An integer rise exceeds width * den exactly when it exceeds the
            # floor; a slab's width is the gap of its `part.ints` over `part.den`.
            limits = [(b - a) * den // part.den for a, b in zip(part.ints, part.ints[1:])]
            for j, lo, hi in lattice.edges(axis):
                rises = list(map(sub, ints[hi], ints[lo]))
                limit = limits[j]
                if min(rises) >= 0 and max(rises) <= limit:
                    continue
                failing.extend(
                    (k, rise, j)
                    for k, rise in zip(range(count)[lo], rises)
                    if rise < 0 or rise > limit
                )
            failing.sort()
            for k, rise, j in failing:
                location = (axis,) + lattice.node(k)
                if rise < 0:
                    bad.append(Violation("monotone", location, Fraction(rise, den), ZERO))
                else:
                    bad.append(Violation("lipschitz", location, Fraction(rise, den), part.width(j)))

        return AxiomReport(tuple(bad))

    def frechet_envelope_check(self) -> tuple[Violation, ...]:
        """Where Q leaves the pointwise envelope max(sum u - n + 1, 0) <= Q <= min(u).

        Checking lattice nodes decides the whole cube: within a cell Q(u) is a
        convex combination of its node values, the upper envelope min(u) is
        concave, and the lower envelope is convex, so node inequalities push
        through the combination in both directions.

        A grid whose :meth:`verify_axioms` report is ``all_ok`` passes this
        check by the argument given there, so it adds information only for a
        grid that fails an axiom.

        One pass in flat order compares each node's value with its lower
        bound and then its upper, read off its coordinate sum and minimum, in
        integers cross-multiplied; a node tuple and :class:`Fraction` values
        are built only for a :class:`Violation`.
        """
        lattice = self.node_values
        ints, den = lattice.ints, lattice.den
        parts = self.grid.partitions
        # Each node's coordinate sum less n - 1 and its minimum, over `over`.
        scale = lcm(*(p.den for p in parts))
        over = scale * den
        sums, mins = [(1 - len(parts)) * over], [over]
        for part in parts:
            step = scale // part.den * den
            coords = [t * step for t in part.ints]
            sums = [s + c for s in sums for c in coords]
            mins = [m if m < c else c for m in mins for c in coords]
        bad: list[Violation] = []
        for k, (v, low, up) in enumerate(zip(ints, sums, mins)):
            scaled = v * scale  # v / den as an integer over `over`
            if scaled < 0 or scaled < low:
                kind, bound = "frechet-lower", max(low, 0)
            elif scaled > up:
                kind, bound = "frechet-upper", up
            else:
                continue
            bad.append(Violation(kind, lattice.node(k), Fraction(v, den), Fraction(bound, over)))
        return tuple(bad)


def make_grid_qc(grid: MassGrid) -> GridQuasiCopula:
    """The quasi-copula candidate ``grid`` induces, with its node values built."""
    return GridQuasiCopula(grid)


def marginalize(grid: MassGrid, axis: int) -> MassGrid:
    """Sum the mass over one axis, yielding an (n-1)-dimensional grid.

    The induced function of the result is Q with coordinate ``axis`` pinned
    to 1: collapsing a cell index sums exactly the masses that the orthant
    count of any surviving node picks up along the dropped axis.  The masses
    are summed in the grid's integer form, and the sums divided by their gcd
    with the denominator give the result's integer form directly; a reduced
    cell whose sum cancels to 0 is dropped.  No :class:`Fraction` is made.
    """
    if grid.dimension < 2:
        raise GridError("cannot marginalize a one-dimensional grid")
    if not 0 <= axis < grid.dimension:
        raise GridError(f"axis {axis} out of range for dimension {grid.dimension}")
    parts = grid.partitions[:axis] + grid.partitions[axis + 1 :]
    masses = grid.cell_masses
    sums: dict[tuple[int, ...], int] = {}
    for cell, mass in masses._ints.items():
        reduced = cell[:axis] + cell[axis + 1 :]
        sums[reduced] = sums.get(reduced, 0) + mass
    shape = grid.shape[:axis] + grid.shape[axis + 1 :]
    return MassGrid(parts, _CellMasses(*_least_den(masses._den, sums), shape))


def builtin_example(name: str) -> GridQuasiCopula:
    """Bundled 4-dimensional quasi-copulas exhibiting extreme box masses.

    ``q1`` places mass -9/7 on the box [3/7, 6/7]^4 (breakpoints {0, 3/7,
    6/7, 1} on every axis); ``q2`` places mass 2 on [1/2, 1]^4 (breakpoints
    {0, 1/2, 1}).
    """
    return make_grid_qc(builtin_grid(name))


def builtin_grid(name: str) -> MassGrid:
    """The mass grid of :func:`builtin_example` ``name``, without its node values."""
    if name == "q1":
        part = AxisPartition((ZERO, Fraction(3, 7), Fraction(6, 7), ONE))
        masses: dict[tuple[int, ...], Fraction] = {}
        for axis in range(4):
            low = tuple(0 if i == axis else 1 for i in range(4))
            mid = tuple(2 if i == axis else 1 for i in range(4))
            masses[low] = Fraction(3, 7)
            masses[mid] = Fraction(1, 7)
        masses[(1, 1, 1, 1)] = Fraction(-9, 7)
        return MassGrid((part,) * 4, masses)
    if name == "q2":
        part = AxisPartition((ZERO, Fraction(1, 2), ONE))
        masses = {(1, 1, 1, 1): Fraction(2)}
        for axes in combinations(range(4), 2):
            cell = tuple(0 if i in axes else 1 for i in range(4))
            masses[cell] = Fraction(1, 2)
        for axis in range(4):
            cell = tuple(0 if i == axis else 1 for i in range(4))
            masses[cell] = Fraction(-1)
        return MassGrid((part,) * 4, masses)
    raise GridError(f"unknown example {name!r} (expected 'q1' or 'q2')")


def grid_to_json(grid: MassGrid) -> str:
    """Serialize to the grid file format, the one writer of grid files.

    A JSON object with keys ``dimension``, ``masses`` (sorted cells, zeros
    omitted), ``partitions`` and ``"schema": "qcmass.grid/1"``, keys sorted,
    indented by 2, with a trailing newline: the bytes ``qcmass margin
    --format json`` prints.  :func:`grid_from_json` reads it back.
    """
    payload = {
        "schema": "qcmass.grid/1",
        "dimension": grid.dimension,
        "partitions": [
            [format_rational(t) for t in p.breakpoints] for p in grid.partitions
        ],
        "masses": [
            {"cell": list(cell), "mass": format_rational(mass)}
            for cell, mass in sorted(grid.cell_masses.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def grid_from_json(text: str | bytes) -> MassGrid:
    """Parse the grid file format, validating shape, ranges, and rationals.

    ``text`` may be the raw bytes of a file: :func:`json.loads` decodes them
    as UTF-8, -16 or -32, and bytes that decode as none of these are invalid
    JSON.

    JSON types are tested with ``type(x) is ...``: ``true`` and ``false``
    load as bool, a subclass of int, and must not pass as cell indices or a
    dimension.  Each distinct breakpoint list is parsed, through
    :func:`parse_rational`, into one :class:`AxisPartition`, and every axis
    that repeats the list gets that same object; the first malformed list
    in file order raises.  The masses go straight to the grid's integer form
    (:attr:`MassGrid.integer_form`), with no :class:`Fraction` per cell: each
    distinct mass literal is parsed once into integers, however many cells
    share it, and scaled once to the lcm of the literals' reduced
    denominators.  Cell arity and range are checked here too, so
    :class:`MassGrid` takes that form as given and only drops explicit
    zeros ("0", "0/7", "-0.0").

    The mass entries are checked a column at a time (every entry, every
    cell, every literal, each axis's indices) with builtins.  Only when one
    of those checks fails are the entries walked one by one, and the
    :class:`GridError` names the first offending entry in file order.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also bad bytes, huge literals, deep nesting
        raise GridError(f"invalid JSON: {exc}") from exc
    if type(payload) is not dict:
        raise GridError("grid file must be a JSON object")
    extra = set(payload) - {"dimension", "partitions", "masses", "schema"}
    if extra:
        raise GridError(f"unknown grid file keys: {sorted(extra)}")
    for key in ("dimension", "partitions", "masses"):
        if key not in payload:
            raise GridError(f"grid file missing key {key!r}")
    dim = payload["dimension"]
    parts_raw = payload["partitions"]
    if type(dim) is not int or type(parts_raw) is not list:
        raise GridError("malformed dimension or partitions")
    if len(parts_raw) != dim:
        raise GridError(f"dimension is {dim} but {len(parts_raw)} partitions given")
    # A string or object would iterate as breakpoints ("01" as 0, 1).
    if not all(type(axis) is list for axis in parts_raw):
        raise GridError("each partition must be a list of breakpoints")
    # One partition per distinct list: an axis that repeats a list shares
    # the partition (immutable) built for its first occurrence.  Only a list
    # of strings is ever built, so only such a list is looked up.
    built: dict[tuple[str, ...], AxisPartition] = {}
    partitions = []
    try:
        for axis in parts_raw:
            key = tuple(axis)
            part = built.get(key) if set(map(type, key)) <= {str} else None
            if part is None:
                part = built[key] = AxisPartition(tuple(map(parse_rational, key)))
            partitions.append(part)
    except (TypeError, ValueError) as exc:
        raise GridError(f"malformed partition: {exc}") from exc
    entries = payload["masses"]
    if type(entries) is not list:
        raise GridError("masses must be a list")
    masses = _bulk_masses(entries, tuple(p.num_cells for p in partitions))
    if masses is None:
        _raise_first_fault(entries, partitions)
    return MassGrid(partitions, masses)


def _bulk_masses(entries: list, shape: tuple[int, ...]) -> _CellMasses | None:
    """The masses of ``entries`` in integer form, checked by columns; None if any entry is bad.

    Every entry must be a two-key dict with a ``cell`` list of ``len(shape)``
    indices and a ``mass`` string; each axis's indices, one column of
    ``zip(*cells)`` at a time, must be exact ints inside the axis.  Every
    distinct literal must parse, and no cell may repeat: the masses dict is
    shorter than ``entries`` exactly when one does.  Zero masses stay in,
    over the lcm of the nonzero literals' reduced denominators.  The column
    lists die with this call, before the grid is built.
    """
    if not (set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {2}):
        return None
    try:
        cells = list(map(itemgetter("cell"), entries))
        literals = list(map(itemgetter("mass"), entries))
    except KeyError:
        return None
    if not (
        set(map(type, cells)) <= {list}
        and set(map(len, cells)) <= {len(shape)}
        and set(map(type, literals)) <= {str}
    ):
        return None
    for column, size in zip(zip(*cells), shape):
        if not (set(map(type, column)) <= {int} and min(column) >= 0 and max(column) < size):
            return None
    try:
        ratios = [(literal, *_parse_ratio(literal)) for literal in set(literals)]
    except ValueError:
        return None
    den = lcm(*[q for _, _, q in ratios])
    den, scaled = _least_den(den, {literal: p * (den // q) for literal, p, q in ratios})
    ints = dict(zip(map(tuple, cells), map(scaled.__getitem__, literals)))
    return _CellMasses(den, ints, shape) if len(ints) == len(entries) else None


def _raise_first_fault(entries: list, partitions: Sequence[AxisPartition]) -> NoReturn:
    """Raise the :class:`GridError` that names the first bad entry, in file order.

    Called only when :func:`_bulk_masses` refused ``entries``, so some entry
    is malformed, has a malformed cell index or mass, or repeats a cell, or
    some cell has the wrong arity or is out of range.  The last two come
    last: only when every entry passes do its cells, in file order, go to
    :class:`MassGrid`'s plain-mapping route, which names the first bad one.
    """
    seen: dict[tuple[int, ...], Fraction] = {}  # each cell, with a stand-in mass
    parsed: set[str] = set()
    for entry in entries:
        # Two keys, both of them present: exactly "cell" and "mass".
        if (
            type(entry) is not dict
            or len(entry) != 2
            or "cell" not in entry
            or "mass" not in entry
        ):
            raise GridError(f"malformed mass entry: {entry!r}")
        cell_raw = entry["cell"]
        if type(cell_raw) is not list or not all(type(c) is int for c in cell_raw):
            raise GridError(f"malformed cell index: {cell_raw!r}")
        cell = tuple(cell_raw)
        if cell in seen:
            raise GridError(f"duplicate cell {cell}")
        seen[cell] = ZERO
        literal = entry["mass"]
        if type(literal) is not str or literal not in parsed:
            try:
                _parse_ratio(literal)
            except ValueError as exc:
                raise GridError(f"malformed mass for cell {cell}: {exc}") from exc
            parsed.add(literal)
    MassGrid(partitions, seen)
    raise AssertionError("the column checks refused entries that pass one by one")
