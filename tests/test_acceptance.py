"""Acceptance gate: every release criterion, one test each, in order.

Each test emits one ``ACCEPTANCE <k>: PASS/FAIL`` line (replayed in the
terminal summary); all comparisons are exact, the only tolerances are the
wall-clock ceilings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from click.testing import CliRunner

import property_suites
import support
from qcmass.cli import main
from qcmass.grid import NBox, builtin_grid, grid_from_json, make_grid_qc, marginalize
from qcmass.lp import build_extremal_lp, check_assignment
from qcmass.simplex import certify, solution_to_assignment, solve

F = Fraction


def cli(*args: str) -> tuple[int, str]:
    result = CliRunner().invoke(main, list(args))
    return result.exit_code, result.output


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        support.record_acceptance(number, False, description)
        raise
    support.record_acceptance(number, True, description)


def extremes_via_cli(n: int, budget: float, minimum: str, maximum: str) -> None:
    start = time.monotonic()
    for direction, expected in (("min", minimum), ("max", maximum)):
        code, output = cli("extremize", "-n", str(n), "--direction", direction)
        assert code == 0, output
        lines = output.splitlines()
        assert lines[0] == f"optimum {expected}"
        assert "certificate pass" in lines
    assert time.monotonic() - start < budget


def test_acceptance_1_dimension_two() -> None:
    with criterion(1, "dimension 2 extremes are -1/3 and 1, certified, inside 1s"):
        extremes_via_cli(2, 1.0, "-1/3", "1")


def test_acceptance_2_dimension_three() -> None:
    with criterion(2, "dimension 3 extremes are -4/5 and 1, certified, inside 5s"):
        extremes_via_cli(3, 5.0, "-4/5", "1")


def test_acceptance_3_dimension_four() -> None:
    with criterion(
        3, "dimension 4 extremes are -9/7 and 2, certified witnesses, inside 60s"
    ):
        start = time.monotonic()
        for sense, expected in (("min", F(-9, 7)), ("max", F(2))):
            lp, layout = build_extremal_lp(4, sense)
            solution = solve(lp)
            assert solution.status == "optimal"
            assert solution.objective == expected
            assert certify(lp, solution).ok
            witness = solution_to_assignment(layout, solution)
            report = check_assignment(lp, layout, witness)
            assert report.feasible
            assert report.objective_value == expected
        assert time.monotonic() - start < 60.0


def test_acceptance_4_recorded_witnesses() -> None:
    with criterion(4, "check-witness confirms the recorded corner assignments"):
        code, output = cli("check-witness", "-n", "4")
        assert code == 0, output
        lines = output.splitlines()
        assert "objective -9/7" in lines
        assert "objective 2" in lines
        assert lines.count("feasible true") == 2
        assert lines[-1] == "verdict pass"


def test_acceptance_5_bundled_examples() -> None:
    with criterion(5, "bundled grids verify and reproduce volumes -9/7 and 2"):
        for name in ("q1", "q2"):
            code, output = cli("verify", "--example", name)
            assert code == 0, output
            assert output.splitlines()[-1] == "verdict pass"
        box1 = "3/7:6/7,3/7:6/7,3/7:6/7,3/7:6/7"
        assert cli("volume", "--example", "q1", "--box", box1) == (0, "-9/7\n")
        box2 = "1/2:1,1/2:1,1/2:1,1/2:1"
        assert cli("volume", "--example", "q2", "--box", box2) == (0, "2\n")


def test_acceptance_6_margins() -> None:
    with criterion(
        6, "every margin is again valid; q2 margins carry 1 on [1/2,1]^3, q1 center -5/7"
    ):
        sub = NBox(((F(1, 2), F(1)),) * 3)
        for axis in ("1", "2", "3", "4"):
            code, output = cli(
                "margin", "--example", "q2", "--drop-axis", axis, "--format", "json"
            )
            assert code == 0, output
            marg = make_grid_qc(grid_from_json(output))
            assert marg.verify_axioms().all_ok
            assert marg.box_volume(sub) == F(1)
        for axis in range(4):
            marg = make_grid_qc(marginalize(builtin_grid("q1"), axis))
            assert marg.verify_axioms().all_ok
            assert marg.grid.cell_masses[(1, 1, 1)] == F(-5, 7)


def test_acceptance_7_conjecture_through_five() -> None:
    with criterion(
        7,
        "conjecture table matches through 4; at 5 the candidate is feasible at "
        "-16/9 but the minimum is -32/13",
    ):
        start = time.monotonic()
        code, output = cli("conjecture", "--max-dim", "5")
        assert code == 0, output
        lines = output.splitlines()
        assert lines[0] == "n,lp_min,conjectured,box,candidate_feasible,verdict"
        assert lines[1] == "2,-1/3,-1/3,1/3:2/3,true,matches"
        assert lines[2] == "3,-4/5,-4/5,2/5:4/5,true,matches"
        assert lines[3] == "4,-9/7,-9/7,3/7:6/7,true,matches"
        assert lines[4] == "5,-32/13,-16/9,4/9:8/9,true,below"
        assert time.monotonic() - start < 600.0


def test_acceptance_8_randomized_suites() -> None:
    with criterion(8, "every randomized suite ran at least 200 cases"):
        for suite in property_suites.ALL_SUITES:
            assert suite() >= 200, suite.__name__


def test_acceptance_9_deterministic_output() -> None:
    with criterion(9, "all command outputs above are byte-identical when repeated"):
        invocations = [
            ("extremize", "-n", "2", "--direction", "min"),
            ("extremize", "-n", "2", "--direction", "max"),
            ("extremize", "-n", "3", "--direction", "min"),
            ("extremize", "-n", "3", "--direction", "max"),
            ("extremize", "-n", "4", "--direction", "min"),
            ("extremize", "-n", "4", "--direction", "max"),
            ("check-witness", "-n", "4"),
            ("verify", "--example", "q1"),
            ("verify", "--example", "q2"),
            ("volume", "--example", "q1", "--box", "3/7:6/7,3/7:6/7,3/7:6/7,3/7:6/7"),
            ("volume", "--example", "q2", "--box", "1/2:1,1/2:1,1/2:1,1/2:1"),
            ("margin", "--example", "q2", "--drop-axis", "1", "--format", "json"),
            ("margin", "--example", "q1", "--drop-axis", "4"),
            ("conjecture", "--max-dim", "5"),
        ]
        for args in invocations:
            first = cli(*args)
            second = cli(*args)
            assert first == second, args
