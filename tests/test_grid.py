"""Mass grids, node values, axiom checks, margins, and the file format."""

import json
import math
import random
import re
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

import pytest

import support
from qcmass import grid as grid_module
from qcmass.cli import run_margin, run_verify
from qcmass.grid import (
    AxisPartition,
    GridError,
    GridQuasiCopula,
    MassGrid,
    NBox,
    Violation,
    builtin_example,
    corner_sign,
    grid_from_json,
    grid_to_json,
    make_grid_qc,
    marginalize,
)
from qcmass.rational import format_rational

F = Fraction
HALF = F(1, 2)


def unit_partition(k: int) -> AxisPartition:
    return AxisPartition(tuple(F(i, k) for i in range(k + 1)))


# ------------------------------------------------------------ partitions


def test_partition_basics() -> None:
    p = AxisPartition((F(0), F(3, 7), F(6, 7), F(1)))
    assert p.num_cells == 3
    assert p.width(0) == F(3, 7)
    assert p.width(2) == F(1, 7)
    assert (p.den, p.ints) == (7, (0, 3, 6, 7))
    mixed = AxisPartition((F(0), F(1, 4), F(2, 3), F(1)))
    assert (mixed.den, mixed.ints) == (12, (0, 3, 8, 12))
    # Breakpoints may be given as anything Fraction reads; the partition, its
    # hash and its integer form do not depend on the spelling.
    spellings = [(F(0), F(1, 2), F(1)), (0, "0.5", 1), ("0", "2/4", "1")]
    parts = [AxisPartition(points) for points in spellings]
    assert all(p == parts[0] for p in parts)
    assert len({hash(p) for p in parts}) == 1
    assert all(type(t) is Fraction for p in parts for t in p.breakpoints)
    assert all((p.den, p.ints) == (2, (0, 1, 2)) for p in parts)
    # A Fraction breakpoint is kept as given.
    third = F(1, 3)
    assert AxisPartition((F(0), third, F(1))).breakpoints[1] is third


@pytest.mark.parametrize(
    "points",
    [
        (F(0),),
        (F(0), HALF),
        (HALF, F(1)),
        (F(0), HALF, HALF, F(1)),
        (F(0), F(2, 3), F(1, 3), F(1)),
        (F(0), F(1), F(2)),
        (F(0), None, F(1)),
        (F(0), "x", F(1)),
    ],
)
def test_partition_rejects(points: tuple) -> None:
    with pytest.raises(GridError):
        AxisPartition(points)


@pytest.mark.parametrize("point", [None, "x", 1j, float("nan"), float("inf")])
def test_partition_names_a_breakpoint_that_is_not_rational(point: object) -> None:
    message = f"breakpoint {point!r} is not a rational number"
    with pytest.raises(GridError, match=re.escape(message)):
        AxisPartition((F(0), point, F(1)))


# ------------------------------------------------------------------ boxes


def test_box_basics() -> None:
    box = NBox(((F(3, 7), F(6, 7)), (HALF, HALF)))
    assert box.dimension == 2


def test_box_keeps_fraction_endpoints_and_converts_others() -> None:
    lo, hi = F(3, 7), F(6, 7)
    box = NBox(((lo, hi), (0, "1/2"), (F(1, 2), 1)))
    assert box.intervals[0][0] is lo and box.intervals[0][1] is hi
    assert box.intervals == ((lo, hi), (F(0), HALF), (HALF, F(1)))
    assert all(type(e) is Fraction for iv in box.intervals for e in iv)


@pytest.mark.parametrize(
    "intervals",
    [
        (),
        ((HALF, F(1, 3)),),
        ((F(-1, 2), HALF),),
        ((F(0), F(3, 2)),),
    ],
)
def test_box_rejects(intervals: tuple) -> None:
    with pytest.raises(GridError):
        NBox(intervals)


@pytest.mark.parametrize("endpoint", [None, "x", 1j, float("nan"), float("inf")])
def test_box_names_an_endpoint_that_is_not_rational(endpoint: object) -> None:
    # In a box, and as a coordinate of a point Q is evaluated at.
    message = f"box endpoint {endpoint!r} is not a rational number"
    with pytest.raises(GridError, match=re.escape(message)):
        NBox(((F(0), HALF), (F(0), endpoint)))
    with pytest.raises(GridError, match=re.escape(message)):
        NBox(((endpoint, F(1)),))
    with pytest.raises(GridError, match=re.escape(message)):
        builtin_example("q2").evaluate((HALF, endpoint, HALF, HALF))


@pytest.mark.parametrize(
    "intervals, bad",
    [
        (((F(0),),), (F(0),)),
        ((F(0), F(1)), F(0)),
        (((F(0), HALF), (F(0), HALF, F(1))), (F(0), HALF, F(1))),
        (((F(0), HALF), None), None),
    ],
    ids=["one-endpoint", "bare-endpoints", "three-endpoints", "none"],
)
def test_box_names_an_interval_that_is_not_a_pair(intervals: tuple, bad: object) -> None:
    message = f"box interval {bad!r} is not a (lo, hi) pair"
    with pytest.raises(GridError, match=re.escape(message)):
        NBox(intervals)


@pytest.mark.parametrize("intervals", [5, None, HALF], ids=repr)
def test_box_names_intervals_that_are_not_iterable(intervals: object) -> None:
    message = f"box intervals {intervals!r} are not (lo, hi) pairs"
    with pytest.raises(GridError, match=re.escape(message)):
        NBox(intervals)


@pytest.mark.parametrize("point", [5, None, HALF], ids=repr)
def test_evaluate_names_a_point_that_is_not_a_sequence(point: object) -> None:
    message = f"point {point!r} is not a sequence of coordinates"
    with pytest.raises(GridError, match=re.escape(message)):
        builtin_example("q2").evaluate(point)


@pytest.mark.parametrize("mass", [None, "x", float("nan"), 1j], ids=repr)
def test_grid_names_a_mass_that_is_not_rational(mass: object) -> None:
    message = f"cell (1,) mass {mass!r} is not a rational number"
    with pytest.raises(GridError, match=re.escape(message)):
        MassGrid((unit_partition(2),), {(0,): HALF, (1,): mass})


def test_box_nesting_check_matches_fraction_comparisons() -> None:
    # Endpoints from -1 to 2 over denominators 1, 2, 3 and 7, every pair.
    values = sorted({F(p, q) for q in (1, 2, 3, 7) for p in range(-q, 2 * q + 1)})
    for lo, hi in product(values, repeat=2):
        if F(0) <= lo <= hi <= F(1):
            assert NBox(((HALF, HALF), (lo, hi))).intervals[1] == (lo, hi)
        else:
            message = f"interval [{lo}, {hi}] not nested in [0,1]"
            with pytest.raises(GridError, match=re.escape(message)):
                NBox(((HALF, HALF), (lo, hi)))


def test_corner_sign() -> None:
    assert corner_sign((True, True)) == 1
    assert corner_sign((False, True)) == -1
    assert corner_sign((False, False)) == 1
    assert corner_sign((False, False, False, False)) == 1
    assert corner_sign((True, False, False, False)) == -1
    assert corner_sign((True, True, False, False)) == 1
    assert corner_sign((True, True, True, True)) == 1
    corners = list(product((False, True), repeat=3))
    assert len(corners) == 8
    assert corners[0] == (False, False, False)
    assert corners[-1] == (True, True, True)
    assert sum(corner_sign(flags) for flags in corners) == 0


# ------------------------------------------------------------------ grids


def test_mass_grid_drops_zeros_and_validates() -> None:
    part = unit_partition(2)
    grid = MassGrid((part, part), {(0, 0): F(1), (1, 1): F(0)})
    assert grid.cell_masses == {(0, 0): F(1)}
    assert grid.shape == (2, 2)
    assert grid.dimension == 2
    assert grid.box_volume(support.unit_cube(2)) == F(1)


@pytest.mark.parametrize(
    "masses",
    [
        {(0,): F(1)},
        {(0, 2): F(1)},
        {(-1, 0): F(1)},
    ],
)
def test_mass_grid_rejects_bad_cells(masses: dict) -> None:
    part = unit_partition(2)
    with pytest.raises(GridError):
        MassGrid((part, part), masses)


@pytest.mark.parametrize("index", [True, False, 1.0, 0.5, "a", None])
def test_mass_grid_rejects_cell_indices_that_are_not_ints(index: object) -> None:
    # As in a grid file, a bool or a float is no cell index, whatever it compares equal to.
    part = unit_partition(2)
    cell = (0, index)
    with pytest.raises(GridError, match=re.escape(f"cell {cell} has an index that is not an int")):
        MassGrid((part, part), {cell: F(1)})


@pytest.mark.parametrize("cell", [5, None, "01"])
def test_mass_grid_rejects_cells_that_are_not_tuples(cell: object) -> None:
    # A string is no cell either, although it iterates as two characters.
    part = unit_partition(2)
    with pytest.raises(GridError, match=re.escape(f"cell {cell!r} is not a tuple of indices")):
        MassGrid((part, part), {cell: F(1)})


CELL_FAULTS = {
    "arity": lambda cell, shape: cell + (0,),
    "negative": lambda cell, shape: (-1,) + cell[1:],
    "high": lambda cell, shape: cell[:-1] + (shape[-1],),
}


@pytest.mark.parametrize(
    "first,second", [(a, b) for a in CELL_FAULTS for b in CELL_FAULTS if a != b]
)
def test_mass_grid_names_first_bad_cell(first: str, second: str) -> None:
    # Two bad cells of different kinds: the error is the one the first alone gives.
    rng = random.Random(f"first-bad-cell-{first}-{second}")
    parts = (unit_partition(3), unit_partition(4), unit_partition(2))
    shape = (3, 4, 2)
    cells = list(product(*map(range, shape)))
    rng.shuffle(cells)
    # int and zero masses too, which the per-cell scan converts and drops
    masses = [rng.choice((F(1, 3), F(-2, 7), F(5), 2, F(0))) for _ in cells]
    k, m = sorted(rng.sample(range(len(cells)), 2))

    def built(faults: dict[int, str]) -> str:
        broken = {
            CELL_FAULTS[faults[i]](cell, shape) if i in faults else cell: mass
            for i, (cell, mass) in enumerate(zip(cells, masses))
        }
        with pytest.raises(GridError) as info:
            MassGrid(parts, broken)
        return str(info.value)

    alone = built({k: first})
    assert alone != built({m: second})
    assert built({k: first, m: second}) == alone


def made_grid(how: str, source: dict) -> MassGrid:
    """A 2x2 grid of ``source``'s masses, made from them directly, by a file, or as a margin."""
    parts = (unit_partition(2),) * 2
    if how in ("fraction", "int"):
        return MassGrid(parts, source)
    if how == "loaded":
        return grid_from_json(grid_to_json(MassGrid(parts, dict(source))))
    # Each mass spread evenly over the two slabs of a third axis, summed out again.
    spread = {cell + (j,): F(mass, 2) for cell, mass in source.items() for j in range(2)}
    return marginalize(MassGrid(parts + (unit_partition(2),), spread), 2)


@pytest.mark.parametrize("how", ["fraction", "int", "loaded", "marginal"])
def test_mass_grid_masses_are_read_only(how: str) -> None:
    # Fraction masses take the column-check path, an int mass the per-cell
    # scan; a loaded or marginal grid is handed its integer form.
    mass = 1 if how == "int" else F(1, 3)
    source = {(0, 0): mass, (1, 1): F(2, 3)}
    grid = made_grid(how, source)
    qc = make_grid_qc(grid)
    with pytest.raises(TypeError):
        grid.cell_masses[(0, 1)] = F(1)
    with pytest.raises(TypeError):
        del grid.cell_masses[(0, 0)]
    den, ints = grid.integer_form
    with pytest.raises(TypeError):
        ints[(0, 1)] = den  # type: ignore[index]
    # The view has no public attribute to write the form through.
    for name in ("den", "ints"):
        with pytest.raises(AttributeError):
            setattr(grid.cell_masses, name, 2)
    # A grid built from another's masses shares them and stays equal to it.
    assert MassGrid(grid.partitions, grid.cell_masses) == grid
    source[(0, 1)] = F(1)
    assert (0, 1) not in grid.cell_masses
    assert grid.cell_masses == {(0, 0): F(mass), (1, 1): F(2, 3)}
    assert qc.node_values[(1, 2)] == F(mass)
    assert qc.box_volume(NBox(((F(0), HALF), (F(0), F(1))))) == F(mass)


def test_mass_grid_needs_axes() -> None:
    with pytest.raises(GridError):
        MassGrid((), {})


# ---------------------------------------------------------- node values


def test_make_grid_qc_empty_grid() -> None:
    qc = make_grid_qc(MassGrid((unit_partition(2),) * 2, {}))
    assert all(v == 0 for v in qc.node_values.values())


def test_make_grid_qc_single_cell() -> None:
    qc = make_grid_qc(MassGrid((unit_partition(1),) * 2, {(0, 0): F(1)}))
    assert qc.node_values[(1, 1)] == F(1)
    assert qc.node_values[(0, 1)] == F(0)
    assert qc.node_values[(1, 0)] == F(0)


def test_make_grid_qc_prefix_sums_by_hand() -> None:
    a, b, c, d = F(1, 3), F(1, 6), F(-1, 4), F(3, 4)
    grid = MassGrid(
        (unit_partition(2),) * 2, {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d}
    )
    qc = make_grid_qc(grid)
    assert qc.node_values[(1, 1)] == a
    assert qc.node_values[(1, 2)] == a + b
    assert qc.node_values[(2, 1)] == a + c
    assert qc.node_values[(2, 2)] == a + b + c + d
    assert qc.node_values[(0, 2)] == F(0)


def test_node_values_come_from_the_grid() -> None:
    grid = MassGrid((unit_partition(1),) * 2, {(0, 0): F(1)})
    qc = GridQuasiCopula(grid)
    assert qc == make_grid_qc(grid)
    assert dict(qc.node_values) == support.ref_node_values(grid)
    with pytest.raises(TypeError):
        GridQuasiCopula(grid, qc.node_values)


def test_node_values_refuse_keys_off_the_lattice() -> None:
    # a 3 x 2 node lattice: a key of the wrong arity, past an axis or below
    # it, or not a tuple at all, is no node
    qc = make_grid_qc(MassGrid((unit_partition(2), unit_partition(1)), {(1, 0): F(1)}))
    assert qc.node_values[(2, 1)] == F(1)
    for key in [(1,), (1, 1, 1), (), (3, 1), (2, 2), (-1, 0), [2, 1], 2, "21"]:
        with pytest.raises(KeyError):
            qc.node_values[key]
        assert key not in qc.node_values


def test_lattice_is_grounded_by_construction() -> None:
    """Every node with a zero coordinate is 0, on q1, q2 and seeded signed grids, n = 1..5.

    ``verify_axioms`` reports no grounded violation because of this, so it
    is checked here instead.  Replay a failing case from the seed and the
    case number in the message.
    """
    rng = random.Random(0x6A0D)
    grids = [builtin_example(name).grid for name in ("q1", "q2")]
    grids += [support.random_signed_grid(rng, 1 + case % 5) for case in range(150)]
    for case, grid in enumerate(grids):
        lattice = make_grid_qc(grid).node_values
        on_faces = [node for node in lattice if 0 in node]
        assert on_faces, case
        assert all(lattice[node] == 0 for node in on_faces), case


def test_lattice_node_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(grid_module, "MAX_LATTICE_NODES", 12)
    fits = MassGrid((unit_partition(2), unit_partition(3)), {})
    assert len(make_grid_qc(fits).node_values) == 12
    too_big = MassGrid((unit_partition(3),) * 2, {})
    with pytest.raises(GridError, match="grid lattice has 16 nodes, more than the limit of 12"):
        make_grid_qc(too_big)
    with pytest.raises(GridError, match="more than the limit"):
        GridQuasiCopula(too_big)


@pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 5), (4, 2, 3, 2), (6,)], ids=repr)
def test_edges_list_each_edge_once_in_increasing_j(sizes: tuple[int, ...]) -> None:
    """``edges(axis)`` pairs each node v with v + e_axis exactly once, j never decreasing.

    The lattice's integers are the flat positions themselves, so slicing
    them reads the positions a slice covers.
    """
    count = math.prod(sizes)
    lattice = grid_module._NodeLattice(sizes, 1, list(range(count)))
    steps = set()
    for axis, size in enumerate(sizes):
        stride = lattice.strides[axis]
        last_j = 0
        lowers: list[int] = []
        for j, lo, hi in lattice.edges(axis):
            assert last_j <= j < size - 1, (axis, j)
            last_j = j
            steps.add(1 if lo.step == 1 else "block")
            below, above = lattice.ints[lo], lattice.ints[hi]
            assert below and above == [k + stride for k in below], (axis, j)
            assert all(lattice.node(k)[axis] == j for k in below), (axis, j)
            lowers += below
        expected = [k for k in range(count) if lattice.node(k)[axis] < size - 1]
        assert sorted(lowers) == expected and len(lowers) == len(set(lowers)), axis
    if len(sizes) > 1:
        assert steps == {1, "block"}, steps


ALL_KINDS = {"grounded", "margin", "monotone", "lipschitz", "frechet-lower", "frechet-upper"}


def _compare_with_reference(qc: GridQuasiCopula, values: dict, rng: random.Random, case) -> set:
    """Assert the lattice agrees with the Fraction reference; return the violation kinds."""
    grid = qc.grid
    assert list(qc.node_values.items()) == list(values.items()), case
    report = qc.verify_axioms()
    assert report == support.ref_verify_axioms(grid, values), case
    envelope = qc.frechet_envelope_check()
    assert envelope == support.ref_frechet_envelope_check(grid, values), case
    for _ in range(3):
        point = support.random_point(rng, grid)
        assert qc.evaluate(point) == support.ref_evaluate(grid, values, point), (case, point)
    box = support.random_box(rng, grid)
    # box_volume reads the cells, never the node values.
    assert qc.box_volume(box) == support.box_mass_direct(grid, box), (case, box)
    return {v.kind for v in report.violations + envelope}


def test_lattice_matches_fraction_reference() -> None:
    """Integer lattice vs the dict-of-Fractions reference on seeded signed grids, n = 1..4.

    A grid's lattice is grounded by construction, so every violation kind
    but ``grounded`` shows up.  Replay a failing case with the seed and the
    case number in the message.
    """
    rng = random.Random(0x1A77)
    kinds: set[str] = set()
    passed = 0
    for case in range(240):
        grid = support.random_signed_grid(rng, 1 + case % 4)
        values = support.ref_node_values(grid)
        qc = make_grid_qc(grid)
        found = _compare_with_reference(qc, values, rng, case)
        passed += not found
        kinds |= found
    assert kinds == ALL_KINDS - {"grounded"}
    assert passed > 0


def test_lattice_matches_fraction_reference_on_every_slice_layout() -> None:
    """Integer lattice vs the Fraction reference on ``support.SLICE_LAYOUT_SHAPES``.

    The corner-pushed cases fail monotone and Lipschitz on every axis.
    Replay a failing case with the seed and the case number in the message.
    """
    rng = random.Random(0x5A1CE)
    kinds: set[str] = set()
    for case, (grid, pushed) in enumerate(support.slice_layout_grids(rng)):
        values = support.ref_node_values(grid)
        qc = make_grid_qc(grid)
        kinds |= _compare_with_reference(qc, values, rng, case)
        if pushed:
            failed = {(v.kind, v.location[0]) for v in qc.verify_axioms().violations}
            axes = range(grid.dimension)
            assert failed >= {(k, a) for k in ("monotone", "lipschitz") for a in axes}, case
    assert kinds == ALL_KINDS - {"grounded"}


def test_envelope_lists_upper_and_lower_in_flat_order() -> None:
    # One axis on {0, 1/2, 1}: Q(1/2) = 2 is above min(u) = 1/2, and then
    # Q(1) = 1/2 is below sum(u) - (n - 1) = 1.
    grid = MassGrid((AxisPartition((F(0), HALF, F(1))),), {(0,): F(2), (1,): F(-3, 2)})
    qc = make_grid_qc(grid)
    kinds = _compare_with_reference(qc, support.ref_node_values(grid), random.Random(0), "1-axis")
    assert {"frechet-upper", "frechet-lower"} <= kinds
    assert qc.frechet_envelope_check() == (
        Violation("frechet-upper", (1,), F(2), HALF),
        Violation("frechet-lower", (2,), HALF, F(1)),
    )


# ------------------------------------------------------------ evaluation

Q1_BOX = NBox(((F(3, 7), F(6, 7)),) * 4)
Q2_BOX = NBox(((HALF, F(1)),) * 4)


def test_q1_corner_values() -> None:
    qc = builtin_example("q1")
    for flags in product((False, True), repeat=4):
        want = F(3, 7) if sum(flags) >= 3 else F(0)
        assert qc.evaluate(support.box_vertex(Q1_BOX, flags)) == want, flags


def test_q2_corner_values() -> None:
    qc = builtin_example("q2")
    for flags in product((False, True), repeat=4):
        want = {0: F(0), 1: F(0), 2: HALF, 3: HALF, 4: F(1)}[sum(flags)]
        assert qc.evaluate(support.box_vertex(Q2_BOX, flags)) == want, flags


def test_q1_margins_are_identity_on_top_edge() -> None:
    qc = builtin_example("q1")
    for u in (F(0), F(1, 3), F(3, 7), F(5, 7), F(1)):
        assert qc.evaluate((F(1), F(1), F(1), u)) == u
        assert qc.evaluate((u, F(1), F(1), F(1))) == u


def test_evaluate_grounded() -> None:
    qc = builtin_example("q2")
    assert qc.evaluate((F(0), HALF, F(1), F(2, 3))) == F(0)


def test_evaluate_matches_direct_summation_at_fixed_points() -> None:
    for name in ("q1", "q2"):
        qc = builtin_example(name)
        for point in ((HALF,) * 4, (F(2, 7), F(5, 7), F(1), F(1, 3))):
            assert qc.evaluate(point) == support.orthant_mass_direct(qc.grid, point)


def test_evaluate_rejects() -> None:
    qc = builtin_example("q1")
    with pytest.raises(GridError):
        qc.evaluate((HALF, HALF, HALF))
    with pytest.raises(GridError, match=re.escape("interval [0, 9/7] not nested in [0,1]")):
        qc.evaluate((HALF, HALF, HALF, F(9, 7)))
    with pytest.raises(GridError, match=re.escape("interval [0, -1/7] not nested in [0,1]")):
        qc.evaluate((F(-1, 7), HALF, HALF, F(2)))


def test_box_volume_extremes() -> None:
    assert builtin_example("q1").box_volume(Q1_BOX) == F(-9, 7)
    assert builtin_example("q2").box_volume(Q2_BOX) == F(2)


def test_box_volume_whole_cube_and_degenerate() -> None:
    full = NBox(((F(0), F(1)),) * 4)
    flat = NBox(((F(0), F(1)), (HALF, HALF), (F(0), F(1)), (F(0), F(1))))
    for name in ("q1", "q2"):
        qc = builtin_example(name)
        assert qc.box_volume(full) == F(1)
        assert qc.box_volume(flat) == F(0)


def test_box_volume_arity_check() -> None:
    for grid in (builtin_example("q1"), builtin_example("q1").grid):
        with pytest.raises(GridError, match="box has arity 3, expected 4"):
            grid.box_volume(NBox(((F(0), F(1)),) * 3))


class _CountedCells(dict):
    """A grid's integer cell map that counts the cells read from it, looked up or walked."""

    def __init__(self, ints: Mapping[tuple[int, ...], int]) -> None:
        super().__init__(ints)
        self.looked_up = self.walked = 0

    def __getitem__(self, cell: tuple[int, ...]) -> int:
        self.looked_up += 1
        return super().__getitem__(cell)

    def get(self, cell: tuple[int, ...], default: object = None) -> object:
        self.looked_up += 1
        return super().get(cell, default)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for item in super().items():
            self.walked += 1
            yield item


def _counted(grid: MassGrid) -> tuple[MassGrid, _CountedCells]:
    """``grid`` again, its integer cell map a :class:`_CountedCells` whose counts start at 0."""
    den, ints = grid.integer_form
    cells = _CountedCells(ints)
    counted = MassGrid(grid.partitions, grid_module._CellMasses(den, cells))
    cells.looked_up = cells.walked = 0
    return counted, cells


def test_box_volume_reads_only_the_covered_cells() -> None:
    # 20^3 cells, every one charged 1/8000.  A box inside one slab per axis
    # reads one cell; the whole cube covers as many cells as are stored, so
    # it walks them.
    masses = dict.fromkeys(product(range(20), repeat=3), F(1, 8000))
    grid, cells = _counted(MassGrid((unit_partition(20),) * 3, masses))
    inside = NBox(((F(1, 40), F(1, 30)), (F(1, 20), F(1, 10)), (F(19, 20), F(1))))
    assert grid.box_volume(inside) == F(1, 8000) * F(1, 6)
    assert 1 <= cells.looked_up + cells.walked <= 8
    # Two slabs on each axis, partly covered: 8 cells.
    straddle = NBox(((F(1, 30), F(1, 15)),) * 3)
    want = support.box_mass_direct(grid, straddle)
    cells.looked_up = cells.walked = 0
    assert grid.box_volume(straddle) == want
    assert (cells.looked_up, cells.walked) == (8, 0)
    cells.looked_up = cells.walked = 0
    assert grid.box_volume(support.unit_cube(3)) == 1
    assert (cells.looked_up, cells.walked) == (0, 8000)


def _oracle_boxes(rng: random.Random, grid: MassGrid) -> list[tuple[str, NBox]]:
    """One box of each kind: aligned, interior, degenerate, whole, edge-touching, coprime, one-slab.

    A coprime box's endpoints are over 1009, a prime no breakpoint
    denominator shares, so each axis's breakpoints and endpoints go over a
    common denominator larger than either, as on the benchmark's boxes.
    """
    parts = grid.partitions

    def random_interval() -> tuple[Fraction, Fraction]:
        a, b = sorted(F(rng.randint(0, 48), 48) for _ in range(2))
        return a, b

    aligned = tuple(tuple(sorted(rng.sample(p.breakpoints, 2))) for p in parts)
    interior = tuple(random_interval() for _ in parts)
    flat_axis = rng.randrange(len(parts))
    degenerate = list(interior)
    u = rng.choice((F(rng.randint(0, 48), 48), rng.choice(parts[flat_axis].breakpoints)))
    degenerate[flat_axis] = (u, u)
    # Each interval runs from a breakpoint, 0 or 1 to a random point, or back.
    touching = []
    for p in parts:
        t, v = rng.choice(p.breakpoints), F(rng.randint(0, 48), 48)
        touching.append((min(t, v), max(t, v)))
    coprime = tuple(tuple(sorted(F(rng.randint(0, 1009), 1009) for _ in range(2))) for _ in parts)
    # Inside one slab per axis: the whole slab, or a random part of it.
    one_slab = []
    for p in parts:
        j = rng.randrange(p.num_cells)
        a, b = p.breakpoints[j : j + 2]
        s, t = sorted(a + (b - a) * F(rng.randint(0, 12), 12) for _ in range(2))
        one_slab.append((a, b) if s == t else (s, t))
    return [
        ("aligned", NBox(aligned)),
        ("interior", NBox(interior)),
        ("degenerate", NBox(tuple(degenerate))),
        ("whole", NBox(((F(0), F(1)),) * len(parts))),
        ("touching", NBox(tuple(touching))),
        ("coprime", NBox(coprime)),
        ("one-slab", NBox(tuple(one_slab))),
    ]


def test_cell_volume_matches_lattice_oracle() -> None:
    """Cell-sum box_volume vs the node-lattice and direct-summation oracles, n = 1..5.

    Seeded signed grids on mixed-denominator partitions, valid and not, and
    every third one again with most cells dropped; replay a failing case
    from the seed and the case number in the message.  box_volume looks up
    the covered slabs' cells or walks the stored ones, whichever are fewer:
    a box inside one slab per axis on a grid of several cells takes the
    first order, the whole cube on a sparse grid the second.
    """
    assert builtin_example("q1").grid.box_volume(Q1_BOX) == F(-9, 7)
    assert builtin_example("q2").grid.box_volume(Q2_BOX) == F(2)
    rng = random.Random(0xCE11B0)
    orders = {"looked up": 0, "walked": 0}
    for case in range(300):
        dense = support.random_signed_grid(rng, 1 + case % 5)
        grids = [dense]
        if case % 3 == 0:
            kept = rng.sample(sorted(dense.cell_masses), len(dense.cell_masses) // 3)
            grids.append(MassGrid(dense.partitions, {c: dense.cell_masses[c] for c in kept}))
        for grid in grids:
            values = support.ref_node_values(grid)
            counted, cells = _counted(grid)
            stored = len(grid.cell_masses)
            for kind, box in _oracle_boxes(rng, grid):
                cells.looked_up = cells.walked = 0
                got = counted.box_volume(box)
                assert got == support.ref_box_volume(grid, values, box), (case, kind, box)
                assert got == support.box_mass_direct(grid, box), (case, kind, box)
                assert not (cells.looked_up and cells.walked), (case, kind)
                orders["looked up"] += bool(cells.looked_up)
                orders["walked"] += bool(cells.walked)
                if kind == "whole":
                    assert got == sum(grid.cell_masses.values(), F(0)), case
                    if stored < math.prod(grid.shape):
                        assert cells.walked == stored, (case, kind)
                elif kind == "degenerate":
                    assert got == 0, case
                elif kind == "one-slab" and stored > 1:
                    assert (cells.looked_up, cells.walked) == (1, 0), (case, kind)
    assert min(orders.values()) >= 300, orders


# ----------------------------------------------------------- axiom checks


def test_examples_pass_all_axioms() -> None:
    for name in ("q1", "q2"):
        qc = builtin_example(name)
        report = qc.verify_axioms()
        assert report.all_ok
        assert report.violations == ()
        assert qc.frechet_envelope_check() == ()


def broken_q1_center() -> MassGrid:
    grid = builtin_example("q1").grid
    masses = dict(grid.cell_masses)
    masses[(1, 1, 1, 1)] = F(-10, 7)
    return MassGrid(grid.partitions, masses)


def test_broken_center_fails_margins() -> None:
    report = make_grid_qc(broken_q1_center()).verify_axioms()
    assert not report.all_ok
    assert {v.kind for v in report.violations} == {"margin", "monotone"}
    margin = [v for v in report.violations if v.kind == "margin"]
    # the middle slab of every axis is short by 1/7
    assert margin == [
        Violation("margin", (axis, 1), F(2, 7), F(3, 7)) for axis in range(4)
    ]
    monotone = [v for v in report.violations if v.kind == "monotone"]
    assert len(monotone) == 4
    assert all(v.lhs == F(-1, 7) for v in monotone)


def test_single_cell_overweight_fails_lipschitz() -> None:
    qc = make_grid_qc(MassGrid((unit_partition(1),), {(0,): F(2)}))
    report = qc.verify_axioms()
    assert {v.kind for v in report.violations} == {"margin", "lipschitz"}
    assert Violation("lipschitz", (0, 0), F(2), F(1)) in report.violations
    assert Violation("margin", (0, 0), F(2), F(1)) in report.violations
    assert qc.frechet_envelope_check() == (
        Violation("frechet-upper", (1,), F(2), F(1)),
    )


def test_lipschitz_excess_below_one_lattice_unit() -> None:
    # node values are integers over 2 and the slab is 1/3 wide: the rise 1/2
    # exceeds the width by less than 1/2, so no whole unit over the width
    part = AxisPartition((F(0), F(1, 3), F(1)))
    report = make_grid_qc(MassGrid((part,), {(0,): HALF, (1,): HALF})).verify_axioms()
    assert [v for v in report.violations if v.kind == "lipschitz"] == [
        Violation("lipschitz", (0, 0), HALF, F(1, 3))
    ]


def test_monotone_violation_detected() -> None:
    masses = {(0, 0): F(1), (0, 1): -HALF, (1, 0): -HALF, (1, 1): F(1)}
    report = make_grid_qc(MassGrid((unit_partition(2),) * 2, masses)).verify_axioms()
    assert {v.kind for v in report.violations} == {"monotone", "lipschitz"}
    assert set(report.violations) == {
        Violation("monotone", (0, 1, 1), -HALF, F(0)),
        Violation("monotone", (1, 1, 1), -HALF, F(0)),
        Violation("lipschitz", (0, 0, 1), F(1), HALF),
        Violation("lipschitz", (1, 1, 0), F(1), HALF),
    }


def test_negative_single_cell_breaks_lower_envelope() -> None:
    qc = make_grid_qc(MassGrid((unit_partition(1),) * 2, {(0, 0): F(-1)}))
    assert qc.frechet_envelope_check() == (
        Violation("frechet-lower", (1, 1), F(-1), F(1)),
    )


def _lipschitz_only_grid(rng: random.Random, n: int) -> MassGrid:
    """A grid inside the envelope that fails the Lipschitz axiom and no other.

    On axes 0 and 1, breakpoints 0 < a < b <= 1 - a, and Q is 0 at the
    interior nodes but (b, b), where it is b: it rises by b over the slab
    [a, b] from (a, b) and from (b, a), while every margin, every monotone
    edge and the envelope hold.
    It is multiplied by the product function on n - 2 more axes.
    """
    k = rng.randint(1, 4)
    a, b = F(k, 10), F(k + rng.randint(1, 10 - 2 * k), 10)
    pts = (F(0), a, b, F(1))
    q = {(i, j): F(0) for i in range(4) for j in range(4)}
    q.update({(3, 1): a, (1, 3): a, (3, 2): b, (2, 3): b, (2, 2): b, (3, 3): F(1)})
    parts = (AxisPartition(pts),) * 2 + tuple(
        support.random_mixed_partition(rng, 2) for _ in range(n - 2)
    )
    masses = {}
    for cell in product(*(range(p.num_cells) for p in parts)):
        i, j = cell[:2]
        mass = q[i + 1, j + 1] - q[i, j + 1] - q[i + 1, j] + q[i, j]
        masses[cell] = mass * math.prod(p.width(c) for p, c in zip(parts[2:], cell[2:]))
    return MassGrid(parts, masses)


def _envelope_cases() -> list[MassGrid]:
    """Seeded grids, valid and not, for the envelope argument of ``verify_axioms``.

    Valid mixtures of W, M and Pi; pure W and pure M, whose node values sit
    on the envelope's two sides; W-M mixtures; signed grids, some of which
    fail by a hair; the slice-layout grids of n = 5 and 6; and grids that
    fail the Lipschitz axiom alone.
    """
    rng = random.Random("envelope")
    grids = [support.random_valid_qc(rng, 1, 4).grid for _ in range(60)]
    for case in range(60):
        n = 1 + case % 5
        parts = tuple(support.random_mixed_partition(rng, 3) for _ in range(n))
        w = (F(1), F(0), F(rng.randint(1, 6), 7))[case % 3]
        grids.append(MassGrid(parts, support.mixture_masses(parts, [w, 1 - w, F(0)])))
    grids += [support.random_signed_grid(rng, 1 + case % 5) for case in range(60)]
    grids += [grid for _ in range(2) for grid, _ in support.slice_layout_grids(rng)]
    grids += [_lipschitz_only_grid(rng, 2 + case % 4) for case in range(20)]
    return grids


def test_axioms_imply_envelope_and_total_mass(tmp_path) -> None:
    # The argument in verify_axioms' docstring: a grid that passes every axiom
    # lies in the Frechet envelope and has total mass 1, so verify's verdict
    # and exit code are the axioms' alone.
    grids = _envelope_cases()
    path = tmp_path / "grid.json"
    passing = 0
    for case, grid in enumerate(grids):
        qc = make_grid_qc(grid)
        all_ok = qc.verify_axioms().all_ok
        if all_ok:
            assert qc.frechet_envelope_check() == (), case
            assert qc.node_values[grid.shape] == 1, case
        path.write_text(grid_to_json(grid))
        result = run_verify(None, str(path))
        assert result.exit_code == (0 if all_ok else 1), case
        # and the verdict agrees with the check lines
        failed = [line for line in result.output.splitlines() if line.endswith(" fail")]
        if all_ok:
            assert failed == [], case
        else:
            assert len(failed) >= 2 and failed[-1] == "verdict fail", case
        passing += all_ok
    assert len(grids) >= 200
    assert passing >= 100 and len(grids) - passing >= 50, passing


def test_verify_checks_the_envelope_only_on_failing_grids(tmp_path, monkeypatch) -> None:
    check = GridQuasiCopula.frechet_envelope_check
    checked: list[MassGrid] = []

    def spy(qc: GridQuasiCopula) -> tuple[Violation, ...]:
        checked.append(qc.grid)
        return check(qc)

    monkeypatch.setattr(GridQuasiCopula, "frechet_envelope_check", spy)
    path = tmp_path / "grid.json"
    for case, grid in enumerate(_envelope_cases()):
        path.write_text(grid_to_json(grid))
        checked.clear()
        failing = run_verify(None, str(path)).exit_code == 1
        assert checked == ([grid] if failing else []), case


# ---------------------------------------------------------------- margins

Q1_MARGIN = {
    (0, 1, 1): F(3, 7),
    (1, 0, 1): F(3, 7),
    (1, 1, 0): F(3, 7),
    (2, 1, 1): F(1, 7),
    (1, 2, 1): F(1, 7),
    (1, 1, 2): F(1, 7),
    (1, 1, 1): F(-5, 7),
}

Q2_MARGIN = {
    (1, 1, 1): F(1),
    (0, 1, 1): -HALF,
    (1, 0, 1): -HALF,
    (1, 1, 0): -HALF,
    (0, 0, 1): HALF,
    (0, 1, 0): HALF,
    (1, 0, 0): HALF,
}


@pytest.mark.parametrize("axis", range(4))
def test_q1_margin_masses(axis: int) -> None:
    marg = marginalize(builtin_example("q1").grid, axis)
    assert marg.cell_masses == Q1_MARGIN
    assert marg.box_volume(support.unit_cube(3)) == F(1)


@pytest.mark.parametrize("axis", range(4))
def test_q2_margin_masses(axis: int) -> None:
    marg = marginalize(builtin_example("q2").grid, axis)
    assert marg.cell_masses == Q2_MARGIN


@pytest.mark.parametrize("name", ["q1", "q2"])
def test_margin_cells_match_cylinder_masses(name: str) -> None:
    # every margin cell must carry the mass of its full-height cylinder
    qc = builtin_example(name)
    for axis in range(4):
        marg = marginalize(qc.grid, axis)
        for cell, mass in support.iter_cells(marg):
            intervals = [support.cell_box(marg, cell).intervals[i] for i in range(3)]
            intervals.insert(axis, (F(0), F(1)))
            cylinder = NBox(tuple(intervals))
            assert mass == support.box_mass_direct(qc.grid, cylinder), (axis, cell)


def test_margins_of_examples_are_quasi_copulas() -> None:
    for name in ("q1", "q2"):
        for axis in range(4):
            marg = make_grid_qc(marginalize(builtin_example(name).grid, axis))
            assert marg.verify_axioms().all_ok
            assert marg.frechet_envelope_check() == ()


def test_marginalize_rejects() -> None:
    grid = builtin_example("q1").grid
    with pytest.raises(GridError):
        marginalize(grid, 4)
    with pytest.raises(GridError):
        marginalize(grid, -1)
    with pytest.raises(GridError):
        marginalize(MassGrid((unit_partition(2),), {}), 0)


def test_marginalize_single_cell() -> None:
    grid = MassGrid((unit_partition(1),) * 2, {(0, 0): F(1)})
    assert marginalize(grid, 0).cell_masses == {(0,): F(1)}


def margin_cases():
    """Seeded (grid, axis) pairs: signed and cancelling grids for n = 2..5, then q1 and q2."""
    rng = random.Random("marginalize")
    for n in range(2, 6):
        for _ in range(8):
            grid = support.random_signed_grid(rng, n)
            for axis in range(n):
                yield grid, axis
        for axis in range(n):
            for _ in range(3):
                yield support.cancelling_grid(rng, n, axis), axis
    for name in ("q1", "q2"):
        for axis in range(4):
            yield builtin_example(name).grid, axis


def test_marginalize_matches_fraction_reference() -> None:
    cancelled = 0
    for case, (grid, axis) in enumerate(margin_cases()):
        got = marginalize(grid, axis)
        assert got == support.ref_marginalize(grid, axis), case
        assert all(type(m) is Fraction and m for m in got.cell_masses.values()), case
        reduced = {cell[:axis] + cell[axis + 1 :] for cell in grid.cell_masses}
        cancelled += len(reduced - set(got.cell_masses))
    assert cancelled >= 42


def test_margin_csv_matches_reference_renderer(tmp_path) -> None:
    path = tmp_path / "grid.json"
    for case, (grid, axis) in enumerate(margin_cases()):
        path.write_text(grid_to_json(grid))
        result = run_margin(None, str(path), axis + 1, "csv")
        assert result.exit_code == 0, case
        assert result.output == support.ref_margin_csv(support.ref_marginalize(grid, axis)), case


def test_verify_total_mass_lines_match_cell_sum(tmp_path) -> None:
    rng = random.Random("total-mass")
    grids = [
        MassGrid((unit_partition(2),) * 2, {}),
        MassGrid((unit_partition(2),) * 2, {(0, 0): F(1, 3), (1, 1): F(1, 4)}),
        builtin_example("q1").grid,
        builtin_example("q2").grid,
    ] + [support.random_signed_grid(rng, n) for n in range(2, 6) for _ in range(10)]
    path = tmp_path / "grid.json"
    outputs = []
    for grid in grids:
        path.write_text(grid_to_json(grid))
        outputs.append(run_verify(None, str(path)).output.splitlines())
    assert outputs[0][-3:] == ["total-mass fail", "violation total-mass [] 0 1", "verdict fail"]
    assert "violation total-mass [] 7/12 1" in outputs[1]
    off = 0
    for case, (grid, lines) in enumerate(zip(grids, outputs)):
        total = sum(grid.cell_masses.values(), F(0))
        want = ["total-mass pass"] if total == 1 else [
            "total-mass fail",
            f"violation total-mass [] {format_rational(total)} 1",
        ]
        assert [line for line in lines if "total-mass" in line] == want, case
        off += total != 1
    assert off >= 10


# --------------------------------------------------------------- examples


def test_builtin_support_sizes() -> None:
    q1 = builtin_example("q1").grid
    q2 = builtin_example("q2").grid
    assert len(q1.cell_masses) == 9
    assert len(q2.cell_masses) == 11
    assert q1.box_volume(support.unit_cube(4)) == F(1)
    assert q2.box_volume(support.unit_cube(4)) == F(1)
    assert q1.shape == (3, 3, 3, 3)
    assert q2.shape == (2, 2, 2, 2)


def test_builtin_unknown_name() -> None:
    with pytest.raises(GridError):
        builtin_example("q3")


# ------------------------------------------------------------ file format


def test_json_roundtrip_examples() -> None:
    for name in ("q1", "q2"):
        grid = builtin_example(name).grid
        assert grid_from_json(grid_to_json(grid)) == grid


def test_json_roundtrip_random() -> None:
    import random

    rng = random.Random(7)
    for _ in range(25):
        grid = support.random_mass_grid(rng)
        assert grid_from_json(grid_to_json(grid)) == grid


def test_json_schema_key_tolerated() -> None:
    text = """{"schema": "qcmass.grid/1", "dimension": 1,
               "partitions": [["0", "1"]], "masses": [{"cell": [0], "mass": "1"}]}"""
    grid = grid_from_json(text)
    assert grid.cell_masses == {(0,): F(1)}


JSON_REJECTS = [
    "not json",
    "[]",
    '{"dimension": 1, "partitions": [["0", "1"]]}',
    '{"dimension": 1, "partitions": [["0", "1"]], "masses": [], "bogus": 1}',
    '{"dimension": "1", "partitions": [["0", "1"]], "masses": []}',
    '{"dimension": 2, "partitions": [["0", "1"]], "masses": []}',
    '{"dimension": 1, "partitions": [["0", "0.5"]], "masses": []}',
    '{"dimension": 1, "partitions": [["0", "x", "1"]], "masses": []}',
    '{"dimension": 1, "partitions": [["0", "1"]], "masses": 3}',
    '{"dimension": 1, "partitions": [["0", "1"]], "masses": [7]}',
    '{"dimension": 1, "partitions": [["0", "1"]], "masses": [{"cell": [0]}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": 0, "mass": "1"}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": ["0"], "mass": "1"}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": [0], "mass": "1"}, {"cell": [0], "mass": "2"}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": [0], "mass": "1/0"}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": [1], "mass": "1"}]}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": [0, 0], "mass": "1"}]}',
    # JSON booleans load as Python bools, which are ints
    '{"dimension": true, "partitions": [["0", "1"]], "masses": []}',
    '{"dimension": 1, "partitions": [["0", "1"]], '
    '"masses": [{"cell": [false], "mass": "1"}]}',
    '{"dimension": 1, "partitions": [["0", "1/2", "1"]], '
    '"masses": [{"cell": [true], "mass": "1"}]}',
    # a string or object partition would iterate as breakpoints 0, 1
    '{"dimension": 1, "partitions": ["01"], "masses": [{"cell": [0], "mass": "1"}]}',
    '{"dimension": 1, "partitions": [{"0": 0, "1": 1}], '
    '"masses": [{"cell": [0], "mass": "1"}]}',
]
# Malformed breakpoint lists: an element that is a list, an object or a JSON
# number, a bad list on two axes, and two bad lists, of which the first in
# file order is named.  None may surface as "unhashable type".
JSON_REJECTS += [
    json.dumps({"dimension": len(parts), "partitions": parts, "masses": []})
    for parts in (
        [["0", ["1/2"], "1"], ["0", "1"]],
        [["0", "1"], ["0", {"t": "1/2"}, "1"]],
        [["0", ["1"], "1"], ["0", ["1"], "1"]],
        [["0", 0.5, "1"], ["0", "1"]],
        [["0", "1"], ["0", "1/2", "1"], ["0", 1, "1"]],
        [["0", "1"], ["0", "2/3", "1/3", "1"], ["0", "2/3", "1/3", "1"]],
        [["0", "x", "1"], ["0", ["1"], "1"]],
        [["0", ["1"], "1"], ["0", "x", "1"]],
        [["0", "1/2", "1"], ["0", "1/2"], ["0", "1/2", "1"]],
    )
]


@pytest.mark.parametrize("text", JSON_REJECTS)
def test_json_rejects(text: str) -> None:
    with pytest.raises(GridError):
        grid_from_json(text)


def test_loader_matches_reference_loader() -> None:
    """grid_from_json against the parse-everything reference on valid and rejected files."""
    for text in JSON_REJECTS:
        assert support.assert_loaders_agree(text) is None, text
    rng = random.Random(0x10AD)
    for case in range(120):
        grid = support.random_signed_grid(rng, 1 + case % 4)
        text = grid_to_json(grid)
        assert support.assert_loaders_agree(text) == grid, case
        # Break one entry of the same file in one way or another.
        payload = json.loads(text)
        if not payload["masses"]:
            continue
        entry = rng.choice(payload["masses"])
        fault = rng.choice(["literal", "bool", "arity", "range", "duplicate", "key", "extra"])
        if fault == "literal":
            entry["mass"] = rng.choice(["1/0", "x", "", 3, None, ["1"]])
        elif fault == "bool":
            entry["cell"][0] = rng.choice([True, False])
        elif fault == "arity":
            entry["cell"].append(0)
        elif fault == "range":
            entry["cell"][-1] = rng.choice([-1, grid.shape[-1]])
        elif fault == "duplicate":
            payload["masses"].append(dict(entry))
        elif fault == "key":
            entry[rng.choice(["cells", "weight"])] = entry.pop(rng.choice(["cell", "mass"]))
        else:
            entry[rng.choice(["cells", "weight"])] = "1"
        assert support.assert_loaders_agree(json.dumps(payload)) is None, (case, fault)


ENTRY_FAULTS = ("literal", "bool", "arity", "range", "duplicate", "key", "extra")
# MassGrid checks arity and range once the loader has taken every entry, so
# these two come after any fault the loader sees, wherever they are.
GRID_FAULTS = ("arity", "range")


def break_entry(payload: dict, k: int, fault: str, shape: tuple[int, ...]) -> None:
    """Break entry ``k`` (never entry 0) of ``payload`` with one fault of kind ``fault``."""
    entry = payload["masses"][k]
    if fault == "literal":
        entry["mass"] = f"{k}/0"
    elif fault == "bool":
        entry["cell"][0] = bool(k % 2)
    elif fault == "arity":
        entry["cell"].append(0)
    elif fault == "range":
        entry["cell"][-1] = shape[-1]
    elif fault == "duplicate":
        entry["cell"] = list(payload["masses"][0]["cell"])
    elif fault == "key":
        entry["cells"] = entry.pop("cell")
    else:
        entry["weight"] = "1"


@pytest.mark.parametrize(
    "first,second", [(a, b) for a in ENTRY_FAULTS for b in ENTRY_FAULTS if a != b]
)
def test_loader_names_first_offender(first: str, second: str) -> None:
    """Faults in entries k < m: the error is the one entry k alone gives, as in the reference."""
    rng = random.Random(f"first-offender-{first}-{second}")
    shape = (3, 4, 2)
    masses = {cell: F(rng.randint(1, 9), 24) for cell in product(*map(range, shape))}
    text = grid_to_json(MassGrid(tuple(map(unit_partition, shape)), masses))
    k, m = sorted(rng.sample(range(1, len(masses)), 2))

    def refused(faults: dict[int, str]) -> str:
        payload = json.loads(text)
        for i, fault in faults.items():
            break_entry(payload, i, fault, shape)
        broken = json.dumps(payload)
        assert support.assert_loaders_agree(broken) is None
        with pytest.raises(GridError) as info:
            grid_from_json(broken)
        return str(info.value)

    alone_k, alone_m = refused({k: first}), refused({m: second})
    assert alone_k != alone_m
    both = refused({k: first, m: second})
    if first in GRID_FAULTS and second not in GRID_FAULTS:
        assert both == alone_m
    else:
        assert both == alone_k


def test_loader_builds_one_partition_per_distinct_list(monkeypatch: pytest.MonkeyPatch) -> None:
    # Each distinct list is parsed once, breakpoint by breakpoint, in file
    # order, and every axis that repeats it gets the same partition.  "0.5"
    # spells 1/2 otherwise: another list, so an equal but separate partition.
    calls: list[str] = []
    parse = grid_module.parse_rational

    def counted(text: str) -> Fraction:
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(grid_module, "parse_rational", counted)
    a, b, c = ["0", "1/3", "1"], ["0", "1/2", "3/4", "1"], ["0", "0.5", "3/4", "1"]
    masses = [{"cell": [0] * 6, "mass": "1"}]
    text = json.dumps({"dimension": 6, "partitions": [a, b, a, c, b, a], "masses": masses})
    parts = grid_from_json(text).partitions
    assert parts[0] is parts[2] is parts[5] and parts[1] is parts[4]
    assert parts[3] == parts[1] and parts[3] is not parts[1] and parts[0] != parts[1]
    assert calls == a + b + c
    monkeypatch.undo()
    assert support.ref_grid_from_json(text).partitions == parts


def test_loader_parses_each_mass_literal_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # Masses go through the integer parser, breakpoints through parse_rational.
    calls: dict[str, list[str]] = {}
    for name in ("_parse_ratio", "parse_rational"):
        parse, seen = getattr(grid_module, name), calls.setdefault(name, [])

        def counted(text, parse=parse, seen=seen):
            seen.append(text)
            return parse(text)

        monkeypatch.setattr(grid_module, name, counted)
    axis = [f"{i}/8" for i in range(9)]
    cells = list(product(range(8), repeat=3))[:500]
    # Three spellings of 1/500, each a distinct literal.
    literals = ["1/500", "2/1000", "0.002"]
    text = json.dumps(
        {
            "dimension": 3,
            "partitions": [axis] * 3,
            "masses": [
                {"cell": list(cell), "mass": literals[k % 3]} for k, cell in enumerate(cells)
            ],
        }
    )
    grid = grid_from_json(text)
    assert len(grid.cell_masses) == 500 and grid.box_volume(support.unit_cube(3)) == 1
    assert sorted(calls["_parse_ratio"]) == sorted(literals)
    assert len(calls["parse_rational"]) <= 3 * len(axis)
    assert grid.integer_form[0] == 500
    monkeypatch.undo()
    assert support.ref_grid_from_json(text) == grid


def test_each_grid_mass_is_converted_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # A grid made from Fractions converts its masses to integers once; a
    # loaded or marginal grid is handed its integer form, and every consumer
    # reads it.  A partition converts its breakpoints once, when it is made,
    # and box_volume and the checks read that form: they convert nothing.
    calls: list[int] = []
    over_one_den = grid_module._over_one_den

    def counted(values):
        values = list(values)
        calls.append(len(values))
        return over_one_den(values)

    monkeypatch.setattr(grid_module, "_over_one_den", counted)
    rng = random.Random("converted-once")
    for n in range(2, 6):
        source = support.random_signed_grid(rng, n)
        masses = dict(source.cell_masses)
        calls.clear()
        grid = MassGrid(source.partitions, masses)
        assert calls == [len(masses)] and len(masses) > 1
        calls.clear()
        assert grid_from_json(grid_to_json(grid)) == grid
        # One call per distinct breakpoint list in the file, in file order,
        # none for the masses.
        lists = dict.fromkeys(p.breakpoints for p in grid.partitions)
        assert calls == [len(pts) for pts in lists]
        calls.clear()
        assert grid.box_volume(support.unit_cube(n)) == sum(masses.values(), F(0))
        for _ in range(4):
            grid.box_volume(support.random_box(rng, grid))
        assert not calls
        qc = make_grid_qc(grid)
        qc.verify_axioms()
        qc.frechet_envelope_check()
        for axis in range(n):
            make_grid_qc(marginalize(grid, axis))
        assert not calls


def decimal_grid(rng: random.Random, n: int) -> MassGrid:
    """A signed grid whose masses mostly have decimal forms (denominators 1, 2, 4, 5, 8, 10, 20)."""
    cuts = [{F(rng.randint(1, 9), 10) for _ in range(rng.randint(0, 2))} for _ in range(n)]
    parts = tuple(AxisPartition((F(0), *sorted(axis_cuts), F(1))) for axis_cuts in cuts)
    masses = {
        cell: F(rng.randint(-20, 20), rng.choice((1, 2, 4, 5, 8, 10, 20, 3, 7)))
        for cell in product(*(range(p.num_cells) for p in parts))
        if rng.random() < 0.8
    }
    return MassGrid(parts, masses)


def test_grids_made_three_ways_match_the_oracles() -> None:
    """One grid from Fractions, from a file of other spellings, and as a margin, as the oracles say."""
    rng = random.Random("three-ways")
    spellings: dict[str, int] = {"unreduced": 0, "decimal": 0, "zero": 0}
    boxes = 0
    for case in range(60):
        n = 1 + case % 4
        want = support.random_signed_grid(rng, n) if case % 2 else decimal_grid(rng, n)
        masses = dict(want.cell_masses)
        text = support.grid_text_in_other_forms(rng, want, zeros=3)
        axis = rng.randrange(n + 1)
        new_part = support.random_mixed_partition(rng, 3)
        lifted = support.spread_over_new_axis(rng, want, axis, new_part)
        made = [MassGrid(want.partitions, masses), grid_from_json(text), marginalize(lifted, axis)]
        den = math.lcm(*(m.denominator for m in masses.values()))
        for grid in made:
            assert grid == want and grid.cell_masses == masses, case
            assert grid.integer_form == (den, {c: int(m * den) for c, m in masses.items()}), case
            assert all(type(m) is Fraction for m in grid.cell_masses.values()), case
        for entry in json.loads(text)["masses"]:
            literal = entry["mass"]
            if F(literal) == 0:
                spellings["zero"] += 1
            elif "." in literal:
                spellings["decimal"] += 1
            elif "/" in literal and math.gcd(*map(int, literal.split("/"))) > 1:
                spellings["unreduced"] += 1
        grid = made[1]
        total = grid.box_volume(support.unit_cube(grid.dimension))
        assert total == sum(masses.values(), F(0)), case
        values = support.ref_node_values(grid)
        for _ in range(3):
            box = support.random_box(rng, grid)
            got = grid.box_volume(box)
            assert got == support.box_mass_direct(grid, box), case
            if n <= 3:
                assert got == support.ref_box_volume(grid, values, box), case
                boxes += 1
        if n > 1:
            for a in range(n):
                assert marginalize(grid, a) == support.ref_marginalize(grid, a), (case, a)
        qc = make_grid_qc(grid)
        assert qc.verify_axioms() == support.ref_verify_axioms(grid, values), case
        assert qc.frechet_envelope_check() == support.ref_frechet_envelope_check(grid, values), case
    assert min(spellings.values()) >= 25 and boxes >= 100, (spellings, boxes)


@pytest.mark.parametrize("zero", support.ZERO_LITERALS)
def test_zero_mass_cells_are_checked_before_they_are_dropped(zero: str) -> None:
    # A zero mass is dropped, but only once its cell passes: a zero cell out
    # of range or of the wrong arity is refused, before a later bad cell.
    def text(*entries: tuple[list[int], str]) -> str:
        masses = [{"cell": cell, "mass": mass} for cell, mass in entries]
        return json.dumps({"dimension": 2, "partitions": [["0", "1/2", "1"]] * 2, "masses": masses})

    kept = text(([0, 0], "1"), ([1, 1], zero))
    assert grid_from_json(kept).cell_masses == {(0, 0): F(1)}
    for bad in ([0, 2], [1, 1, 0], [-1, 0]):
        broken = text(([0, 0], "1"), (bad, zero), ([0, 5], "1/2"))
        assert support.assert_loaders_agree(broken) is None
        with pytest.raises(GridError, match=re.escape(str(tuple(bad)))):
            grid_from_json(broken)


def test_json_rejects_integer_too_long_to_convert() -> None:
    with pytest.raises(GridError, match="invalid JSON"):
        grid_from_json('{"dimension": ' + "1" * 5000 + ', "partitions": [], "masses": []}')


def test_json_cells_sorted_and_zero_free() -> None:
    grid = MassGrid(
        (unit_partition(2),) * 2, {(1, 1): F(1), (0, 0): F(2), (0, 1): F(0)}
    )
    text = grid_to_json(grid)
    assert text.index('"cell": [\n        0,\n        0') < text.index(
        '"cell": [\n        1,\n        1'
    )
    assert text.count('"cell"') == 2
