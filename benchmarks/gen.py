"""Input generator and exact oracle for the qcmass benchmark.

Run as ``python3 benchmarks/gen.py --workload W --seed S --out DIR``.  It
writes the grid files of the workload and ``DIR/manifest.json``: the fixed
list of ops one sweep runs, each with the answer the program must give.  It
imports nothing from qcmass, so every expected answer comes from the
construction of the input or from direct cell summation, never from the code
under test.  It runs in its own process so that its memory does not count
toward the workload's peak resident set.

Grid kinds (both valid by construction, as argued in ``_valid_grid``):

* sparse: a weighted mixture of three permutation copulas on a uniform
  k^n partition (shuffles of Min), about 3k nonzero cells;
* dense: the checkerboard of a weighted mixture of W, M and Pi on a seeded
  non-uniform partition, every cell nonzero.

Perturbations, each with violations derived from the construction:

* dip / bump: add -2 (+2) to the node values of a 2^n block of lattice
  nodes by a +-2 pattern on the 2^n cells around it.  Margins and total mass
  are untouched; every block node leaves the envelope (frechet-lower for a
  dip, frechet-upper for a bump) and every lattice edge entering or leaving
  the block breaks monotone or Lipschitz, so the counts are exact;
* scale-up / scale-down: multiply every mass by 8/7 (6/7).  Every slab
  breaks its margin and the total mass is off; edges with all other
  coordinates at 1 rise by more than their width (scale-up), and Q leaves
  the envelope at the top corner (scale-down) or on the top faces
  (scale-up).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

ZERO = Fraction(0)
ONE = Fraction(1)

# Optima of the extremal program at n = 2..5, (min, max).
EXTREMAL_OPTIMA = {
    2: ("-1/3", "1"),
    3: ("-4/5", "1"),
    4: ("-9/7", "2"),
    5: ("-32/13", "7/2"),
}

# The README's `qcmass conjecture --max-dim 5` output, byte for byte.
CONJECTURE_TABLE = (
    "n,lp_min,conjectured,box,candidate_feasible,verdict\n"
    "2,-1/3,-1/3,1/3:2/3,true,matches\n"
    "3,-4/5,-4/5,2/5:4/5,true,matches\n"
    "4,-9/7,-9/7,3/7:6/7,true,matches\n"
    "5,-32/13,-16/9,4/9:8/9,true,below\n"
)

# Grid slots shared by grid-verify and grid-query: (dimension, kind, cells
# per axis, perturbation).  Shapes are fixed so that a sweep costs about the
# same on every seed; the seed picks permutations, weights, breakpoints,
# block positions, drop axes and boxes.  Lattice nodes: 5.8k to 15.6k.
GRID_SLOTS = (
    (3, "sparse", (21, 21, 21), None),
    (3, "dense", (16, 18, 20), "dip"),
    (4, "sparse", (8, 8, 8, 8), "scale-up"),
    (4, "dense", (9, 9, 10, 10), None),
    (5, "sparse", (5, 5, 5, 5, 5), None),
    (5, "dense", (5, 5, 5, 6, 6), "bump"),
    (6, "sparse", (4, 4, 4, 4, 4, 4), "scale-down"),
    (6, "dense", (4, 4, 4, 4, 4, 4), None),
)
BREAKPOINT_DENOMINATOR = 60
# Mixture weights are a seeded order of these, so that every seed gives
# masses with the same denominators and a sweep costs the same.
MIXTURE_WEIGHTS = (1, 2, 3)
BOX_DENOMINATOR = 1009
BOXES_PER_GRID = 3
BOXES_PER_EXAMPLE = 3

CHECK_OF_KIND = {
    "grounded": "grounded",
    "margin": "uniform-margins",
    "monotone": "monotone",
    "lipschitz": "lipschitz",
    "frechet-lower": "frechet-envelope",
    "frechet-upper": "frechet-envelope",
    "total-mass": "total-mass",
}


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------------ grids


class Grid:
    """Breakpoints per axis and a sparse dict of nonzero cell masses."""

    def __init__(self, partitions: list[list[Fraction]], masses: dict[tuple[int, ...], Fraction]):
        self.partitions = partitions
        self.masses = {c: m for c, m in masses.items() if m != ZERO}

    @property
    def dimension(self) -> int:
        return len(self.partitions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(p) - 1 for p in self.partitions)

    def payload(self) -> dict:
        return {
            "dimension": self.dimension,
            "partitions": [[fmt(t) for t in p] for p in self.partitions],
            "masses": [{"cell": list(c), "mass": fmt(m)} for c, m in sorted(self.masses.items())],
        }

    def box_mass(self, box: list[tuple[Fraction, Fraction]]) -> Fraction:
        """Mass in a box by direct summation of per-axis cell overlaps."""
        per_axis = []
        for pts, (lo, hi) in zip(self.partitions, box):
            weights = []
            for j in range(len(pts) - 1):
                covered = min(pts[j + 1], hi) - max(pts[j], lo)
                if covered > ZERO:
                    weights.append((j, covered / (pts[j + 1] - pts[j])))
            if not weights:
                return ZERO
            per_axis.append(weights)
        total = ZERO
        for combo in product(*per_axis):
            mass = self.masses.get(tuple(j for j, _ in combo))
            if mass is not None:
                w = mass
                for _, f in combo:
                    w *= f
                total += w
        return total

    def margin_csv(self, axis: int) -> str:
        """The `margin` CSV: every reduced cell with the mass summed over `axis`."""
        reduced: dict[tuple[int, ...], Fraction] = {}
        for cell, mass in self.masses.items():
            key = cell[:axis] + cell[axis + 1 :]
            reduced[key] = reduced.get(key, ZERO) + mass
        parts = self.partitions[:axis] + self.partitions[axis + 1 :]
        m = len(parts)
        lines = [",".join(f"cell_lo_{i + 1},cell_hi_{i + 1}" for i in range(m)) + ",mass"]
        for cell in product(*(range(len(p) - 1) for p in parts)):
            fields = []
            for pts, c in zip(parts, cell):
                fields += [fmt(pts[c]), fmt(pts[c + 1])]
            fields.append(fmt(reduced.get(cell, ZERO)))
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


def _sparse_grid(rng: random.Random, shape: tuple[int, ...]) -> Grid:
    k = shape[0]
    part = [Fraction(i, k) for i in range(k + 1)]
    weights = rng.sample(MIXTURE_WEIGHTS, 3)
    total = sum(weights)
    masses: dict[tuple[int, ...], Fraction] = {}
    for w in weights:
        perms = [list(range(k))] + [rng.sample(range(k), k) for _ in shape[1:]]
        for i in range(k):
            cell = tuple(p[i] for p in perms)
            masses[cell] = masses.get(cell, ZERO) + Fraction(w, total * k)
    return Grid([list(part) for _ in shape], masses)


def _dense_grid(rng: random.Random, shape: tuple[int, ...]) -> Grid:
    n = len(shape)
    parts = []
    for k in shape:
        cuts = sorted(rng.sample(range(1, BREAKPOINT_DENOMINATOR), k - 1))
        parts.append([ZERO] + [Fraction(c, BREAKPOINT_DENOMINATOR) for c in cuts] + [ONE])
    a, b, c = rng.sample(MIXTURE_WEIGHTS, 3)
    s = a + b + c
    wW, wM, wP = Fraction(a, s), Fraction(b, s), Fraction(c, s)

    def q(u: tuple[Fraction, ...]) -> Fraction:
        prod = ONE
        for x in u:
            prod *= x
        return wW * max(sum(u) - (n - 1), ZERO) + wM * min(u) + wP * prod

    nodes = list(product(*(range(k + 1) for k in shape)))
    values = {v: q(tuple(p[i] for p, i in zip(parts, v))) for v in nodes}
    # Cell masses are the mixed finite differences of the node values:
    # undo the orthant prefix sum one axis at a time, top node first.
    for axis in range(n):
        for v in reversed(nodes):
            if v[axis] > 0:
                values[v] -= values[v[:axis] + (v[axis] - 1,) + v[axis + 1 :]]
    masses = {
        tuple(i - 1 for i in v): m for v, m in values.items() if all(i > 0 for i in v)
    }
    return Grid(parts, masses)


def _valid_grid(rng: random.Random, kind: str, shape: tuple[int, ...]) -> Grid:
    """A grid whose induced Q is a quasi-copula.

    A permutation grid puts mass 1/k on one cell per slab of every axis, so
    it is a copula; so is any mixture.  The checkerboard of W, M or Pi has
    those functions' exact values at the lattice nodes, and every axiom and
    envelope test is on nodes and lattice edges, where W, M and Pi pass; the
    tests are convex, so the mixture passes too.
    """
    return _sparse_grid(rng, shape) if kind == "sparse" else _dense_grid(rng, shape)


def _perturb(rng: random.Random, grid: Grid, how: str) -> dict:
    """Apply a perturbation in place; return the violations it must cause."""
    n, shape = grid.dimension, grid.shape
    if how in ("dip", "bump"):
        lows = [rng.randint(0, k - 3) for k in shape]
        signs = [-1 if (how == "dip" and i == 0) else 1 for i in range(n)]
        for pick in product((0, 1), repeat=n):
            cell = tuple(lo + 2 * p for lo, p in zip(lows, pick))
            sign = 1
            for s, p in zip(signs, pick):
                sign *= -s if p else s
            grid.masses[cell] = grid.masses.get(cell, ZERO) + 2 * sign
        grid.masses = {c: m for c, m in grid.masses.items() if m != ZERO}
        block_nodes = 2**n
        edges = n * 2 ** (n - 1)
        envelope = "frechet-lower" if how == "dip" else "frechet-upper"
        return {envelope: block_nodes, "monotone": edges, "lipschitz": edges}
    factor = Fraction(8, 7) if how == "scale-up" else Fraction(6, 7)
    grid.masses = {c: m * factor for c, m in grid.masses.items()}
    kinds = {"margin": sum(shape), "total-mass": 1}
    if how == "scale-up":
        kinds.update({"lipschitz": None, "frechet-upper": None})
    else:
        kinds["frechet-lower"] = None
    return kinds


def _verify_expectation(kinds: dict) -> dict:
    """Exit code, failing checks and violation counts (None: at least one)."""
    failing = sorted({CHECK_OF_KIND[k] for k in kinds})
    return {"exit": 1 if kinds else 0, "failing": failing, "kinds": kinds}


def builtin_grid(name: str) -> Grid:
    """The bundled examples, restated from their published construction."""
    if name == "q1":
        part = [ZERO, Fraction(3, 7), Fraction(6, 7), ONE]
        masses = {(1, 1, 1, 1): Fraction(-9, 7)}
        for axis in range(4):
            masses[tuple(0 if i == axis else 1 for i in range(4))] = Fraction(3, 7)
            masses[tuple(2 if i == axis else 1 for i in range(4))] = Fraction(1, 7)
    else:
        part = [ZERO, Fraction(1, 2), ONE]
        masses = {(1, 1, 1, 1): Fraction(2)}
        for axes in combinations(range(4), 2):
            masses[tuple(0 if i in axes else 1 for i in range(4))] = Fraction(1, 2)
        for axis in range(4):
            masses[tuple(0 if i == axis else 1 for i in range(4))] = Fraction(-1)
    return Grid([list(part) for _ in range(4)], masses)


PINNED_VOLUMES = {"q1": ("3/7:6/7,3/7:6/7,3/7:6/7,3/7:6/7", "-9/7"), "q2": ("1/2:1,1/2:1,1/2:1,1/2:1", "2")}


# ------------------------------------------------------------------ boxes


def _box(rng: random.Random, grid: Grid, style: str) -> list[tuple[Fraction, Fraction]]:
    box = []
    flat = rng.randrange(grid.dimension)
    for axis, pts in enumerate(grid.partitions):
        if style == "aligned":
            i, j = sorted(rng.sample(range(len(pts)), 2))
            box.append((pts[i], pts[j]))
            continue
        lo, hi = sorted(rng.sample(range(1, BOX_DENOMINATOR), 2))
        lo, hi = Fraction(lo, BOX_DENOMINATOR), Fraction(hi, BOX_DENOMINATOR)
        if style == "degenerate" and axis == flat:
            hi = lo
        box.append((lo, hi))
    return box


def _volume_ops(rng: random.Random, grid: Grid, source: dict, count: int) -> list[dict]:
    ops = []
    for b in range(count):
        style = ("aligned", "interior", "degenerate")[b % 3]
        box = _box(rng, grid, style)
        text = ",".join(f"{fmt(lo)}:{fmt(hi)}" for lo, hi in box)
        ops.append({"cmd": "volume", **source, "box": text, "style": style,
                    "expect": fmt(grid.box_mass(box))})
    return ops


# --------------------------------------------------------------- manifests


def extremize_ops(rng: random.Random) -> list[dict]:
    ops = [
        {"cmd": "extremize", "n": n, "direction": d, "format": rng.choice(("text", "json")),
         "expect": EXTREMAL_OPTIMA[n][d == "max"]}
        for n in EXTREMAL_OPTIMA for d in ("min", "max")
    ]
    rng.shuffle(ops)
    return ops


def conjecture_ops() -> list[dict]:
    # One call per sweep: the sweep is repeated for the whole run instead.
    return [{"cmd": "conjecture", "max_dim": 5, "expect": CONJECTURE_TABLE}]


def grid_ops(rng: random.Random, out: Path, query: bool) -> list[dict]:
    ops = []
    for slot, (n, kind, shape, how) in enumerate(GRID_SLOTS):
        grid = _valid_grid(rng, kind, shape)
        kinds = _perturb(rng, grid, how) if how else {}
        name = f"grid{slot}_n{n}_{kind}{'_' + how if how else ''}.json"
        (out / name).write_text(json.dumps(grid.payload()) + "\n")
        source = {"file": str(out / name), "example": None}
        if query:
            ops += _volume_ops(rng, grid, source, BOXES_PER_GRID)
        else:
            ops += _grid_check_ops(rng, grid, source, _verify_expectation(kinds))
    for name in ("q1", "q2"):
        grid = builtin_grid(name)
        source = {"file": None, "example": name}
        if query:
            box_text, value = PINNED_VOLUMES[name]
            pinned = [tuple(Fraction(x) for x in iv.split(":")) for iv in box_text.split(",")]
            if fmt(grid.box_mass(pinned)) != value:
                raise SystemExit(f"oracle disagrees with the pinned {name} volume")
            ops.append({"cmd": "volume", **source, "box": box_text, "style": "pinned", "expect": value})
            ops += _volume_ops(rng, grid, source, BOXES_PER_EXAMPLE)
        else:
            ops += _grid_check_ops(rng, grid, source, _verify_expectation({}))
    rng.shuffle(ops)
    return ops


def _grid_check_ops(rng: random.Random, grid: Grid, source: dict, expect: dict) -> list[dict]:
    axis = rng.randrange(grid.dimension)
    csv = grid.margin_csv(axis)
    return [
        {"cmd": "verify", **source, "expect": expect},
        {"cmd": "margin", **source, "drop_axis": axis + 1,
         "expect_sha256": hashlib.sha256(csv.encode()).hexdigest(),
         "expect_lines": csv.count("\n")},
    ]


def build_manifest(workload: str, seed: int, out: Path) -> dict:
    rng = random.Random(f"qcmass-bench/{workload}/{seed}")
    if workload == "extremize":
        ops = extremize_ops(rng)
    elif workload == "conjecture":
        ops = conjecture_ops()
    elif workload in ("grid-verify", "grid-query"):
        ops = grid_ops(rng, out, workload == "grid-query")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = build_manifest(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
