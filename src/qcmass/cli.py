"""Command line front end.

Every command prints deterministic bytes for a given invocation (dicts are
emitted with sorted keys, cells and rows in lexicographic order), so outputs
can be diffed and pinned in regression files.  Exit codes: 0 for success or
a confirmed property, 1 for an honest negative finding (a failed check, an
infeasible witness, a failed certificate), 2 for usage and parse errors.

Each command loads only the half of the package it runs (:func:`_load`).
Both exit-2 error types, ``GridError`` and ``LPError``, live in
:mod:`qcmass.box`, so catching them loads neither half.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from itertools import product
from math import gcd, prod
from pathlib import Path

import click

from . import _EXPORTS, _HOME
from .box import ONE, GridError, LPError, NBox
from .rational import RationalParseError, format_rational, parse_rational


def _load(*modules: str) -> None:
    """Import ``modules`` and bind the names the package exports from each here.

    Each run_* function calls this before it reads a name of the grid half
    (grid.py) or the LP half (lp.py and simplex.py), so a command never
    loads the other half.  A name that is bound already, say to a wrapper
    set with setattr, stays as it is, so every call still goes through this
    module's globals.
    """
    namespace = globals()
    for module in modules:
        source = import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """Serve a package export to a reader outside, such as a test or a tracer."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOME[name])
    return globals()[name]


@dataclass(frozen=True)
class CommandResult:
    """What a command produced: an exit code plus stdout/stderr payloads."""

    exit_code: int
    output: str = ""
    error: str = ""


@click.group()
def main() -> None:
    """Exact tools for extreme box masses of piecewise-uniform quasi-copulas."""


def _finish(result: CommandResult) -> None:
    if result.output:
        click.echo(result.output, nl=False)
    if result.error:
        click.echo(result.error, nl=False, err=True)
    sys.exit(result.exit_code)


def _guarded(fn, *args, **kwargs) -> None:
    try:
        result = fn(*args, **kwargs)
    except (GridError, LPError, RationalParseError, OSError) as exc:
        result = CommandResult(2, error=f"error: {exc}\n")
    _finish(result)


def _load_grid(example: str | None, file: str | None) -> MassGrid:
    if (example is None) == (file is None):
        raise click.UsageError("pass exactly one of --example and --file")
    if example is not None:
        return builtin_grid(example)
    # Bytes, so that a file that is not text fails as invalid JSON, not a traceback.
    return grid_from_json(Path(file).read_bytes())


def _parse_box(text: str) -> NBox:
    intervals = []
    for piece in text.split(","):
        lo_text, sep, hi_text = piece.partition(":")
        if not sep:
            raise GridError(f"malformed interval {piece!r}, expected lo:hi")
        intervals.append((parse_rational(lo_text), parse_rational(hi_text)))
    return NBox(tuple(intervals))


def _flags_key(flags: tuple[bool, ...]) -> str:
    return "".join("u" if f else "l" for f in flags)


# ---------------------------------------------------------------- extremize


def run_extremize(
    dimension: int, direction: str, fmt: str, emit_lp: str | None
) -> CommandResult:
    _load("lp", "simplex")
    lp, layout = build_extremal_lp(dimension, direction)
    if emit_lp is not None:
        Path(emit_lp).write_text(export_lp(lp))
    solution = solve(lp)
    if solution.status != "optimal":
        return CommandResult(1, error=f"solver returned {solution.status}\n")
    report = certify(lp, solution)
    assignment = solution_to_assignment(layout, solution)
    verdict = "pass" if report.ok else "fail"
    if fmt == "json":
        payload = {
            "schema": "qcmass.extremize/1",
            "dimension": dimension,
            "direction": direction,
            "optimum": format_rational(solution.objective),
            "box": [
                [format_rational(lo), format_rational(hi)]
                for lo, hi in assignment.box.intervals
            ],
            "vertex_values": {
                _flags_key(flags): format_rational(value)
                for flags, value in sorted(assignment.values.items())
            },
            "pivots": solution.pivots,
            "certificate": verdict,
        }
        output = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"optimum {format_rational(solution.objective)}"]
        for i, (lo, hi) in enumerate(assignment.box.intervals):
            lines.append(
                f"box axis {i + 1} [{format_rational(lo)}, {format_rational(hi)}]"
            )
        for flags, value in sorted(assignment.values.items()):
            lines.append(f"vertex q_{_flags_key(flags)} {format_rational(value)}")
        lines.append(f"pivots {solution.pivots}")
        lines.append(f"certificate {verdict}")
        for failure in report.failures:
            lines.append(f"certificate-failure {failure}")
        output = "\n".join(lines) + "\n"
    return CommandResult(0 if report.ok else 1, output)


@main.command()
@click.option("-n", "--dimension", type=int, required=True, help="Box dimension, at least 2.")
@click.option("--direction", type=click.Choice(["min", "max"]), required=True)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
@click.option(
    "--emit-lp",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Also write the program in LP text format to this path.",
)
def extremize(dimension: int, direction: str, fmt: str, emit_lp: str | None) -> None:
    """Solve the extremal program: the least or greatest box mass at a dimension."""
    _guarded(run_extremize, dimension, direction, fmt, emit_lp)


# ------------------------------------------------------------------- verify

_CHECK_KINDS = (
    ("grounded", ("grounded",)),
    ("uniform-margins", ("margin",)),
    ("monotone", ("monotone",)),
    ("lipschitz", ("lipschitz",)),
    ("frechet-envelope", ("frechet-lower", "frechet-upper")),
    ("total-mass", ("total-mass",)),
)


def run_verify(example: str | None, file: str | None) -> CommandResult:
    _load("grid")
    qc = make_grid_qc(_load_grid(example, file))
    report = qc.verify_axioms()
    violations = report.violations
    # A grid that passes every axiom lies in the envelope and has total mass
    # 1 (see GridQuasiCopula.verify_axioms), so only a failing one is checked
    # for those.  Q(1,...,1), at the lattice's top node, is the total mass.
    if not report.all_ok:
        violations += qc.frechet_envelope_check()
        total = qc.node_values[qc.grid.shape]
        if total != ONE:
            violations += (Violation("total-mass", (), total, ONE),)
    lines = []
    for check, kinds in _CHECK_KINDS:
        relevant = [v for v in violations if v.kind in kinds]
        lines.append(f"{check} {'pass' if not relevant else 'fail'}")
        for v in relevant:
            loc = "[" + ",".join(str(c) for c in v.location) + "]"
            lines.append(
                f"violation {v.kind} {loc} {format_rational(v.lhs)} {format_rational(v.rhs)}"
            )
    lines.append(f"verdict {'pass' if report.all_ok else 'fail'}")
    return CommandResult(0 if report.all_ok else 1, "\n".join(lines) + "\n")


@main.command()
@click.option("--example", type=click.Choice(["q1", "q2"]), default=None)
@click.option("--file", type=click.Path(exists=True, dir_okay=False), default=None)
def verify(example: str | None, file: str | None) -> None:
    """Check a mass grid against every quasi-copula axiom and the envelope."""
    _guarded(run_verify, example, file)


# ------------------------------------------------------------------- volume


def run_volume(example: str | None, file: str | None, box_text: str) -> CommandResult:
    _load("grid")
    grid = _load_grid(example, file)
    box = _parse_box(box_text)
    return CommandResult(0, format_rational(grid.box_volume(box)) + "\n")


@main.command()
@click.option("--example", type=click.Choice(["q1", "q2"]), default=None)
@click.option("--file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option(
    "--box",
    "box_text",
    required=True,
    help="Comma-separated per-axis intervals lo:hi, e.g. '3/7:6/7,3/7:6/7'.",
)
def volume(example: str | None, file: str | None, box_text: str) -> None:
    """Print the exact mass a grid's function places on a box."""
    _guarded(run_volume, example, file, box_text)


# ------------------------------------------------------------------- margin


def run_margin(
    example: str | None, file: str | None, drop_axis: int, fmt: str
) -> CommandResult:
    _load("grid")
    grid = _load_grid(example, file)
    if not 1 <= drop_axis <= grid.dimension:
        raise GridError(
            f"--drop-axis must be between 1 and {grid.dimension}, got {drop_axis}"
        )
    margin = marginalize(grid, drop_axis - 1)
    if fmt == "json":
        return CommandResult(0, grid_to_json(margin))
    from .grid import MAX_LATTICE_NODES

    # csv lists every cell, zeros included; a grid file of a few lines can
    # ask for 2^39 of them.
    count = prod(margin.shape)
    if count > MAX_LATTICE_NODES:
        raise GridError(
            f"margin has {count} cells, more than the csv limit of {MAX_LATTICE_NODES}"
        )
    m = margin.dimension
    header = ",".join(f"cell_lo_{i + 1},cell_hi_{i + 1}" for i in range(m)) + ",mass"
    lines = [header]
    # Each slab's "lo,hi" is formatted once; product() walks the slabs in
    # the same lexicographic order as it walks the cells.  Each mass is read
    # in the margin's integer form and printed as format_rational() would
    # print it: over its own denominator in lowest terms, "p" when that is 1.
    slabs = [
        [f"{format_rational(lo)},{format_rational(hi)}" for lo, hi in zip(pts, pts[1:])]
        for pts in (part.breakpoints for part in margin.partitions)
    ]
    den, ints = margin.integer_form
    for cell, fields in zip(product(*map(range, margin.shape)), product(*slabs)):
        mass = ints.get(cell, 0)
        g = gcd(mass, den)
        text = str(mass // g) if g == den else f"{mass // g}/{den // g}"
        lines.append(f"{','.join(fields)},{text}")
    return CommandResult(0, "\n".join(lines) + "\n")


@main.command()
@click.option("--example", type=click.Choice(["q1", "q2"]), default=None)
@click.option("--file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--drop-axis", type=int, required=True, help="1-based axis to sum out.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
def margin(example: str | None, file: str | None, drop_axis: int, fmt: str) -> None:
    """Sum a grid's mass over one axis; csv lists every cell, json is a grid file."""
    _guarded(run_margin, example, file, drop_axis, fmt)


# --------------------------------------------------------------- conjecture

# Every dimension up to --max-dim is solved in turn; 100 takes a few seconds,
# and 200 most of a minute, so a larger value is refused before any solve.
MAX_CONJECTURE_DIM = 100


def run_conjecture(max_dim: int) -> CommandResult:
    _load("lp", "simplex")
    if max_dim < 2:
        raise LPError(f"--max-dim must be at least 2, got {max_dim}")
    if max_dim > MAX_CONJECTURE_DIM:
        raise LPError(f"--max-dim must be at most {MAX_CONJECTURE_DIM}, got {max_dim}")
    lines = ["n,lp_min,conjectured,box,candidate_feasible,verdict"]
    for n in range(2, max_dim + 1):
        # The axis-symmetric form has the full program's optimum (see
        # build_symmetric_lp) with n + 3 variables instead of 2n + 2^n.
        lp = build_symmetric_lp(n, "min")
        solution = solve(lp)
        if solution.status != "optimal":
            return CommandResult(1, error=f"solver returned {solution.status} at n={n}\n")
        report = certify(lp, solution)
        if not report.ok:
            return CommandResult(
                1,
                error="".join(
                    f"certificate failed at n={n}: {failure}\n" for failure in report.failures
                ),
            )
        bound = conjectured_bound(n)
        # The conjectured point's corner a and side s give the box [a, a + s]^n.
        candidate = symmetric_candidate(n)
        feasible = check_point(lp, candidate).feasible
        lo = candidate[0]
        hi = lo + candidate[1]
        if solution.objective == bound:
            verdict = "matches"
        elif solution.objective < bound:
            verdict = "below"
        else:
            verdict = "above"
        lines.append(
            f"{n},{format_rational(solution.objective)},{format_rational(bound)},"
            f"{format_rational(lo)}:{format_rational(hi)},"
            f"{'true' if feasible else 'false'},{verdict}"
        )
    return CommandResult(0, "\n".join(lines) + "\n")


@main.command()
@click.option("--max-dim", type=int, default=4, show_default=True)
def conjecture(max_dim: int) -> None:
    """Compare each dimension's relaxation optimum with the conjectured minimum.

    Each optimum is solved on the axis-symmetric form of the relaxation,
    which has the same value, and certified.  The relaxation's minimum is
    the least box mass a quasi-copula attains at that dimension (the
    theorem in qcmass.lp), so "matches" proves the conjectured value there
    and "below" refutes it.
    """
    _guarded(run_conjecture, max_dim)


# ------------------------------------------------------------ check-witness

# The box masses the recorded dimension-4 witnesses must reproduce.
_RECORDED_OPTIMA = {"min": Fraction(-9, 7), "max": Fraction(2)}


def run_check_witness(dimension: int, direction: str) -> CommandResult:
    _load("lp")
    directions = ["min", "max"] if direction == "both" else [direction]
    # Look the witnesses up first: an unrecorded dimension is refused before
    # the program, whose size doubles with each step in dimension, is built.
    witnesses = [reference_witness(dimension, sense) for sense in directions]
    lp, layout = build_extremal_lp(dimension, "min")
    lines = []
    all_ok = True
    for sense, witness in zip(directions, witnesses):
        report = check_assignment(lp, layout, witness)
        expected = _RECORDED_OPTIMA[sense]
        lines.append(f"direction {sense}")
        lines.append(f"objective {format_rational(report.objective_value)}")
        lines.append(f"expected {format_rational(expected)}")
        lines.append(f"feasible {'true' if report.feasible else 'false'}")
        all_ok = all_ok and report.feasible and report.objective_value == expected
        for v in report.violations:
            where = lp.var_names[v.index] if v.family == "N" else str(v.index)
            lines.append(
                f"violation {v.family} {where} {format_rational(v.lhs)} "
                f"{v.relation} {format_rational(v.rhs)}"
            )
    lines.append(f"verdict {'pass' if all_ok else 'fail'}")
    return CommandResult(0 if all_ok else 1, "\n".join(lines) + "\n")


@main.command("check-witness")
@click.option("-n", "--dimension", type=int, required=True)
@click.option(
    "--direction",
    type=click.Choice(["min", "max", "both"]),
    default="both",
    show_default=True,
)
def check_witness(dimension: int, direction: str) -> None:
    """Replay the recorded optimal corner assignments against every row."""
    _guarded(run_check_witness, dimension, direction)
