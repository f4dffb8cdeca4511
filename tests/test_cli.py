"""Command line behavior: outputs, exit codes, and determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import qcmass
from qcmass import cli
from qcmass.cli import main
from qcmass.grid import (
    MassGrid,
    builtin_example,
    builtin_grid,
    grid_from_json,
    grid_to_json,
    marginalize,
)
from qcmass.lp import (
    MAX_PROGRAM_ROWS,
    VertexAssignment,
    build_extremal_lp,
    export_lp,
    reference_witness,
)
from qcmass.simplex import CertificateReport, SimplexSolution

F = Fraction
Q1_BOX_TEXT = "3/7:6/7,3/7:6/7,3/7:6/7,3/7:6/7"


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def invoke(runner: CliRunner, *args: str):
    return runner.invoke(main, list(args))


def broken_q1_file(path: Path) -> Path:
    grid = builtin_example("q1").grid
    masses = dict(grid.cell_masses)
    masses[(1, 1, 1, 1)] = F(-10, 7)
    target = path / "broken.json"
    target.write_text(grid_to_json(MassGrid(grid.partitions, masses)))
    return target


# ---------------------------------------------------------------- extremize

EXTREMIZE_2_MIN = (
    "optimum -1/3\n"
    "box axis 1 [1/3, 2/3]\n"
    "box axis 2 [1/3, 2/3]\n"
    "vertex q_ll 0\n"
    "vertex q_lu 1/3\n"
    "vertex q_ul 1/3\n"
    "vertex q_uu 1/3\n"
    "pivots 7\n"
    "certificate pass\n"
)


def test_extremize_text_n2(runner: CliRunner) -> None:
    result = invoke(runner, "extremize", "-n", "2", "--direction", "min")
    assert result.exit_code == 0
    assert result.output == EXTREMIZE_2_MIN


def test_extremize_json_n2(runner: CliRunner) -> None:
    result = invoke(
        runner, "extremize", "-n", "2", "--direction", "min", "--format", "json"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == "qcmass.extremize/1"
    assert payload["optimum"] == "-1/3"
    assert payload["box"] == [["1/3", "2/3"], ["1/3", "2/3"]]
    assert payload["vertex_values"] == {
        "ll": "0", "lu": "1/3", "ul": "1/3", "uu": "1/3"
    }
    assert payload["pivots"] == 7
    assert payload["certificate"] == "pass"


def test_extremize_max_n4(runner: CliRunner) -> None:
    result = invoke(runner, "extremize", "-n", "4", "--direction", "max")
    assert result.exit_code == 0
    assert result.output.startswith("optimum 2\n")
    assert "certificate pass" in result.output


def test_extremize_emit_lp(runner: CliRunner, tmp_path: Path) -> None:
    target = tmp_path / "n2.lp"
    result = invoke(
        runner, "extremize", "-n", "2", "--direction", "min", "--emit-lp", str(target)
    )
    assert result.exit_code == 0
    assert target.read_text() == export_lp(build_extremal_lp(2, "min")[0])


def _one_wrong_dual(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make ``cli.solve`` claim a nonzero dual on a row that is not tight."""
    real = cli.solve

    def solve(lp):
        solution = real(lp)
        x = [solution.assignment[j] for j in range(lp.num_vars)]
        slack = lp.num_vars + next(
            i
            for i, row in enumerate(lp.rows)
            if sum((coef * x[j] for j, coef in row.coeffs), F(0)) != row.rhs
        )
        reduced = dict(solution.reduced_costs)
        reduced[slack] += 1
        return replace(solution, reduced_costs=reduced)

    monkeypatch.setattr(cli, "solve", solve)


def test_extremize_failed_certificate_text(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch
) -> None:
    _one_wrong_dual(monkeypatch)
    result = invoke(runner, "extremize", "-n", "2", "--direction", "min")
    assert result.exit_code == 1
    passed = EXTREMIZE_2_MIN.removesuffix("certificate pass\n")
    assert result.output.startswith(passed + "certificate fail\ncertificate-failure ")


def test_extremize_failed_certificate_json(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch
) -> None:
    _one_wrong_dual(monkeypatch)
    result = invoke(
        runner, "extremize", "-n", "2", "--direction", "min", "--format", "json"
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["certificate"] == "fail"
    assert payload["optimum"] == "-1/3"


def not_optimal(status: str) -> SimplexSolution:
    """What ``solve`` returns when the program has no optimum: ``status`` and no point."""
    return SimplexSolution(status, None, {}, (), (), {}, 0, 0)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("status", ["infeasible", "unbounded"])
def test_extremize_solver_not_optimal_exits_1(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch, status: str, fmt: str
) -> None:
    monkeypatch.setattr(cli, "solve", lambda lp: not_optimal(status))
    result = invoke(runner, "extremize", "-n", "2", "--direction", "min", "--format", fmt)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"solver returned {status}\n"


def test_extremize_rejects_dimension_one(runner: CliRunner) -> None:
    result = invoke(runner, "extremize", "-n", "1", "--direction", "min")
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize(
    "n", ["16", "40", "100000", "9" * 4000], ids=["16", "40", "100000", "4000-digits"]
)
def test_extremize_refuses_oversized_dimension(runner: CliRunner, n: str) -> None:
    # n = 15 has 1015823 rows, the last dimension under the limit.  Above it
    # the refusal comes from n alone, before 2^n corners (or 2^n) are formed.
    assert 15 + 31 * 2**15 <= MAX_PROGRAM_ROWS < 16 + 33 * 2**16
    start = time.monotonic()
    result = invoke(runner, "extremize", "-n", n, "--direction", "min")
    assert result.exit_code == 2
    assert "more than 1048576 rows" in result.output
    assert time.monotonic() - start < 1.0


# ------------------------------------------------------------------- verify

VERIFY_PASS = (
    "grounded pass\n"
    "uniform-margins pass\n"
    "monotone pass\n"
    "lipschitz pass\n"
    "frechet-envelope pass\n"
    "total-mass pass\n"
    "verdict pass\n"
)


@pytest.mark.parametrize("name", ["q1", "q2"])
def test_verify_examples_pass(runner: CliRunner, name: str) -> None:
    result = invoke(runner, "verify", "--example", name)
    assert result.exit_code == 0
    assert result.output == VERIFY_PASS


def test_verify_broken_grid(runner: CliRunner, tmp_path: Path) -> None:
    target = broken_q1_file(tmp_path)
    result = invoke(runner, "verify", "--file", str(target))
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert "uniform-margins fail" in lines
    for axis in range(4):
        assert f"violation margin [{axis},1] 2/7 3/7" in lines
    assert "monotone fail" in lines
    assert "violation monotone [0,1,2,2,2] -1/7 0" in lines
    assert "total-mass fail" in lines
    assert "violation total-mass [] 6/7 1" in lines
    assert sum(1 for ln in lines if ln.startswith("violation frechet-lower")) == 16
    assert lines[-1] == "verdict fail"


def test_verify_roundtrip_file_equals_example(runner: CliRunner, tmp_path: Path) -> None:
    target = tmp_path / "q2.json"
    target.write_text(grid_to_json(builtin_example("q2").grid))
    result = invoke(runner, "verify", "--file", str(target))
    assert result.exit_code == 0
    assert result.output == VERIFY_PASS


def test_verify_rejects_non_json(runner: CliRunner, tmp_path: Path) -> None:
    target = tmp_path / "junk.txt"
    target.write_text("not a grid")
    result = invoke(runner, "verify", "--file", str(target))
    assert result.exit_code == 2
    assert "error: invalid JSON" in result.output


def test_verify_rejects_boolean_grid_fields(runner: CliRunner, tmp_path: Path) -> None:
    target = tmp_path / "bools.json"
    target.write_text(
        '{"dimension": true, "partitions": [["0", "1"]], '
        '"masses": [{"cell": [false], "mass": "1"}]}'
    )
    result = invoke(runner, "verify", "--file", str(target))
    assert result.exit_code == 2
    assert result.output == "error: malformed dimension or partitions\n"


def test_verify_needs_exactly_one_source(runner: CliRunner, tmp_path: Path) -> None:
    assert invoke(runner, "verify").exit_code == 2
    target = tmp_path / "q1.json"
    target.write_text(grid_to_json(builtin_example("q1").grid))
    result = invoke(runner, "verify", "--example", "q1", "--file", str(target))
    assert result.exit_code == 2


def test_verify_missing_file(runner: CliRunner) -> None:
    assert invoke(runner, "verify", "--file", "/nonexistent.json").exit_code == 2


# ------------------------------------------------------------------- volume


@pytest.mark.parametrize(
    "name,box,expected",
    [
        ("q1", Q1_BOX_TEXT, "-9/7\n"),
        ("q2", "1/2:1,1/2:1,1/2:1,1/2:1", "2\n"),
        ("q1", "0:1,0:1,0:1,0:1", "1\n"),
        ("q2", "0:1,1/2:1/2,0:1,0:1", "0\n"),
    ],
)
def test_volume_values(runner: CliRunner, name: str, box: str, expected: str) -> None:
    result = invoke(runner, "volume", "--example", name, "--box", box)
    assert result.exit_code == 0
    assert result.output == expected


@pytest.mark.parametrize(
    "box",
    ["0:1,0:1,0:1", "0-1,0:1,0:1,0:1", "x:1,0:1,0:1,0:1", "0:1,0:1,0:1,1/2:1/3"],
)
def test_volume_rejects_bad_boxes(runner: CliRunner, box: str) -> None:
    result = invoke(runner, "volume", "--example", "q1", "--box", box)
    assert result.exit_code == 2
    assert "error:" in result.output


def test_volume_rejects_literal_too_long_to_convert(runner: CliRunner) -> None:
    box = "0:1/" + "7" * 5000 + ",0:1,0:1,0:1"
    result = invoke(runner, "volume", "--example", "q1", "--box", box)
    assert result.exit_code == 2
    assert result.output == "error: rational literal too long: 5002 characters\n"


def huge_lattice_file(path: Path) -> Path:
    """A few hundred bytes describing a lattice of 2^40 nodes (and a single cell)."""
    target = path / "huge.json"
    target.write_text(
        json.dumps({"dimension": 40, "partitions": [["0", "1"]] * 40, "masses": []})
    )
    return target


def _traced_invoke(runner: CliRunner, *args: str):
    """The command's result and the peak traced allocation while it ran."""
    tracemalloc.start()
    try:
        result = invoke(runner, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("args", [("verify",)], ids=["verify"])
def test_lattice_too_large_to_build_exits_2(
    runner: CliRunner, tmp_path: Path, args: tuple[str, ...]
) -> None:
    target = huge_lattice_file(tmp_path)
    result, peak = _traced_invoke(runner, args[0], "--file", str(target), *args[1:])
    assert result.exit_code == 2
    assert result.output == (
        "error: grid lattice has 1099511627776 nodes, more than the limit of 16777216\n"
    )
    assert peak < 2**22


def test_volume_of_lattice_too_large_to_build(runner: CliRunner, tmp_path: Path) -> None:
    """volume reads only the cells, so a 2^40-node lattice is no obstacle."""
    target = huge_lattice_file(tmp_path)
    box = ",".join(["0:1"] * 40)
    result, peak = _traced_invoke(runner, "volume", "--file", str(target), "--box", box)
    assert result.exit_code == 0
    assert result.output == "0\n"
    assert peak < 2**22


@pytest.mark.parametrize(
    "interval,expected", [("0:1/2", "1\n"), ("0:1/4", "1/1099511627776\n")]
)
def test_volume_of_wide_single_cell_grid(
    runner: CliRunner, tmp_path: Path, interval: str, expected: str
) -> None:
    """40 halved axes, unit mass on the corner cell: [0,1/4]^40 covers half of it per axis."""
    target = tmp_path / "corner.json"
    target.write_text(
        json.dumps(
            {
                "dimension": 40,
                "partitions": [["0", "1/2", "1"]] * 40,
                "masses": [{"cell": [0] * 40, "mass": "1"}],
            }
        )
    )
    box = ",".join([interval] * 40)
    result, peak = _traced_invoke(runner, "volume", "--file", str(target), "--box", box)
    assert result.exit_code == 0
    assert result.output == expected
    assert peak < 2**22


def test_margin_of_lattice_too_large_to_build(runner: CliRunner, tmp_path: Path) -> None:
    target = huge_lattice_file(tmp_path)
    result = invoke(runner, "margin", "--file", str(target), "--drop-axis", "1")
    assert result.exit_code == 0
    header = ",".join(f"cell_lo_{i},cell_hi_{i}" for i in range(1, 40)) + ",mass\n"
    assert result.output == header + "0,1," * 39 + "0\n"


def wide_margin_file(path: Path) -> Path:
    """40 axes halved and no masses: its margin has 2^39 cells, all zero."""
    target = path / "wide.json"
    target.write_text(
        json.dumps({"dimension": 40, "partitions": [["0", "1/2", "1"]] * 40, "masses": []})
    )
    return target


def test_margin_csv_too_large_exits_2(runner: CliRunner, tmp_path: Path) -> None:
    target = wide_margin_file(tmp_path)
    start = time.perf_counter()
    result = invoke(runner, "margin", "--file", str(target), "--drop-axis", "1")
    assert time.perf_counter() - start < 5
    assert result.exit_code == 2
    assert result.output == (
        "error: margin has 549755813888 cells, more than the csv limit of 16777216\n"
    )


def test_margin_json_of_wide_grid(runner: CliRunner, tmp_path: Path) -> None:
    target = wide_margin_file(tmp_path)
    result = invoke(
        runner, "margin", "--file", str(target), "--drop-axis", "1", "--format", "json"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dimension"] == 39
    assert payload["masses"] == []


# ------------------------------------------------------------------- margin

Q2_MARGIN_CSV = (
    "cell_lo_1,cell_hi_1,cell_lo_2,cell_hi_2,cell_lo_3,cell_hi_3,mass\n"
    "0,1/2,0,1/2,0,1/2,0\n"
    "0,1/2,0,1/2,1/2,1,1/2\n"
    "0,1/2,1/2,1,0,1/2,1/2\n"
    "0,1/2,1/2,1,1/2,1,-1/2\n"
    "1/2,1,0,1/2,0,1/2,1/2\n"
    "1/2,1,0,1/2,1/2,1,-1/2\n"
    "1/2,1,1/2,1,0,1/2,-1/2\n"
    "1/2,1,1/2,1,1/2,1,1\n"
)


def test_margin_csv_q2(runner: CliRunner) -> None:
    result = invoke(runner, "margin", "--example", "q2", "--drop-axis", "4")
    assert result.exit_code == 0
    assert result.output == Q2_MARGIN_CSV


def test_margin_csv_single_cell(runner: CliRunner, tmp_path: Path) -> None:
    target = tmp_path / "cell.json"
    target.write_text(
        '{"dimension": 2, "partitions": [["0", "1"], ["0", "1"]],'
        ' "masses": [{"cell": [0, 0], "mass": "1"}]}'
    )
    result = invoke(runner, "margin", "--file", str(target), "--drop-axis", "1")
    assert result.exit_code == 0
    assert result.output == "cell_lo_1,cell_hi_1,mass\n0,1,1\n"


def test_margin_json_parses_back(runner: CliRunner) -> None:
    result = invoke(
        runner, "margin", "--example", "q1", "--drop-axis", "2", "--format", "json"
    )
    assert result.exit_code == 0
    parsed = grid_from_json(result.output)
    assert parsed == marginalize(builtin_example("q1").grid, 1)
    assert json.loads(result.output)["schema"] == "qcmass.grid/1"


@pytest.mark.parametrize("name", ["q1", "q2"])
def test_margin_json_is_grid_to_json(name: str) -> None:
    # Grid files have one writer: ``margin --format json`` prints its bytes.
    grid = builtin_grid(name)
    for axis in range(grid.dimension):
        margin = marginalize(grid, axis)
        text = cli.run_margin(name, None, axis + 1, "json").output
        assert text == grid_to_json(margin), axis
        assert grid_from_json(text) == margin, axis


def test_margin_json_feeds_volume(runner: CliRunner, tmp_path: Path) -> None:
    result = invoke(
        runner, "margin", "--example", "q2", "--drop-axis", "1", "--format", "json"
    )
    target = tmp_path / "margin.json"
    target.write_text(result.output)
    result = invoke(
        runner, "volume", "--file", str(target), "--box", "1/2:1,1/2:1,1/2:1"
    )
    assert result.exit_code == 0
    assert result.output == "1\n"


@pytest.mark.parametrize("axis", ["0", "5", "-1"])
def test_margin_rejects_bad_axis(runner: CliRunner, axis: str) -> None:
    result = invoke(runner, "margin", "--example", "q1", "--drop-axis", axis)
    assert result.exit_code == 2
    assert "drop-axis" in result.output


# --------------------------------------------------------------- conjecture

CONJECTURE_3 = (
    "n,lp_min,conjectured,box,candidate_feasible,verdict\n"
    "2,-1/3,-1/3,1/3:2/3,true,matches\n"
    "3,-4/5,-4/5,2/5:4/5,true,matches\n"
)


def test_conjecture_table(runner: CliRunner) -> None:
    result = invoke(runner, "conjecture", "--max-dim", "3")
    assert result.exit_code == 0
    assert result.output == CONJECTURE_3


def test_conjecture_rejects_low_dim(runner: CliRunner) -> None:
    result = invoke(runner, "conjecture", "--max-dim", "1")
    assert result.exit_code == 2


def readme_block(command: str) -> str:
    """The output shown under ``$ <command>`` in README.md, up to the closing fence."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    start = text.index(f"$ {command}\n") + len(command) + 3
    return text[start : text.index("```", start)]


def test_readme_library_block_runs() -> None:
    # In a fresh interpreter, so every name the block reads must still be exported.
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.partition("## Library\n\n```python\n")[2].partition("```")[0]
    assert "from qcmass import" in block
    src = str(Path(qcmass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_conjecture_matches_readme_byte_for_byte() -> None:
    table = readme_block("qcmass conjecture --max-dim 5")
    assert cli.run_conjecture(5).output == table
    # every shorter run prints a prefix of the same table
    lines = table.splitlines(keepends=True)
    for max_dim in (2, 3, 4):
        assert cli.run_conjecture(max_dim).output == "".join(lines[: max_dim])


def test_conjecture_to_thirty(runner: CliRunner) -> None:
    start = time.monotonic()
    result = invoke(runner, "conjecture", "--max-dim", "30")
    elapsed = time.monotonic() - start
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 30
    assert lines[-1] == "30,-197318609/4,-841/59,29/59:58/59,true,below"
    assert elapsed < 10.0


def test_conjecture_certifies_every_dimension(monkeypatch: pytest.MonkeyPatch) -> None:
    real = cli.certify
    dimensions = []

    def counting(lp, solution):
        dimensions.append(lp.num_vars - 3)
        return real(lp, solution)

    monkeypatch.setattr(cli, "certify", counting)
    assert cli.run_conjecture(5).exit_code == 0
    assert dimensions == [2, 3, 4, 5]


def test_conjecture_failed_certificate_exits_1(monkeypatch: pytest.MonkeyPatch) -> None:
    failed = CertificateReport(False, ("row 3 violated: 1 <= 0", "objective mismatch"))
    monkeypatch.setattr(cli, "certify", lambda lp, solution: failed)
    result = cli.run_conjecture(3)
    assert result.exit_code == 1
    assert result.output == ""
    assert result.error == (
        "certificate failed at n=2: row 3 violated: 1 <= 0\n"
        "certificate failed at n=2: objective mismatch\n"
    )


@pytest.mark.parametrize("status", ["infeasible", "unbounded"])
def test_conjecture_solver_not_optimal_exits_1(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch, status: str
) -> None:
    # n = 2 solves (its n + 3 = 5 variables), n = 3 does not: the n = 2 line is not printed.
    real = cli.solve
    monkeypatch.setattr(
        cli, "solve", lambda lp: real(lp) if lp.num_vars == 5 else not_optimal(status)
    )
    result = invoke(runner, "conjecture", "--max-dim", "4")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"solver returned {status} at n=3\n"


# ------------------------------------------------------------ check-witness

CHECK_WITNESS_4 = (
    "direction min\n"
    "objective -9/7\n"
    "expected -9/7\n"
    "feasible true\n"
    "direction max\n"
    "objective 2\n"
    "expected 2\n"
    "feasible true\n"
    "verdict pass\n"
)


def test_check_witness_both(runner: CliRunner) -> None:
    result = invoke(runner, "check-witness", "-n", "4")
    assert result.exit_code == 0
    assert result.output == CHECK_WITNESS_4


def test_check_witness_single_direction(runner: CliRunner) -> None:
    result = invoke(runner, "check-witness", "-n", "4", "--direction", "max")
    assert result.exit_code == 0
    assert result.output == (
        "direction max\nobjective 2\nexpected 2\nfeasible true\nverdict pass\n"
    )


def test_check_witness_unrecorded_dimension(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the dimension is refused before any program is built; at n=40 the
    # program would have 2^40 corner variables
    def no_build(*args):
        raise AssertionError("extremal program built for an unrecorded dimension")

    monkeypatch.setattr(cli, "build_extremal_lp", no_build)
    for n in ("3", "40"):
        result = invoke(runner, "check-witness", "-n", n)
        assert result.exit_code == 2
        assert "dimension 4" in result.output


def broken_witness(n: int, sense: str) -> VertexAssignment:
    """The recorded witness with its top corner raised to 1 (min) or its bottom corner at -1/7 (max)."""
    witness = reference_witness(n, sense)
    values = dict(witness.values)
    if sense == "min":
        values[(True,) * n] = F(1)
    else:
        values[(False,) * n] = F(-1, 7)
    return VertexAssignment(witness.box, values)


def test_check_witness_reports_violations(
    runner: CliRunner, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the raised corner breaks the four edge bounds into it and its four
    # per-axis caps; the negative corner breaks only its own bound
    monkeypatch.setattr(cli, "reference_witness", broken_witness)
    result = invoke(runner, "check-witness", "-n", "4")
    assert result.exit_code == 1
    assert result.output == (
        "direction min\n"
        "objective -5/7\n"
        "expected -9/7\n"
        "feasible false\n"
        + "".join(f"violation E {k} 1/7 <= 0\n" for k in (19, 35, 51, 67))
        + "".join(f"violation F {k} 1/7 <= 0\n" for k in (144, 145, 146, 147))
        + "direction max\n"
        "objective 13/7\n"
        "expected 2\n"
        "feasible false\n"
        "violation N q_llll -1/7 >= 0\n"
        "verdict fail\n"
    )


# ------------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(runner: CliRunner) -> None:
    invocations = [
        ("extremize", "-n", "2", "--direction", "min"),
        ("extremize", "-n", "2", "--direction", "max", "--format", "json"),
        ("verify", "--example", "q2"),
        ("volume", "--example", "q1", "--box", Q1_BOX_TEXT),
        ("margin", "--example", "q2", "--drop-axis", "3"),
        ("conjecture", "--max-dim", "3"),
        ("check-witness", "-n", "4"),
    ]
    for args in invocations:
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.exit_code == second.exit_code
        assert first.output == second.output, args


def test_help_mentions_purpose(runner: CliRunner) -> None:
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    assert "box masses" in result.output
