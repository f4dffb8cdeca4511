"""Construction and checking of the extremal programs."""

import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest

import support
from qcmass.grid import NBox
from qcmass.lp import (
    LinearProgram,
    LPError,
    Row,
    VertexAssignment,
    assignment_vector,
    build_extremal_lp,
    build_symmetric_lp,
    check_assignment,
    check_point,
    conjectured_bound,
    export_lp,
    lift_symmetric,
    reference_witness,
    symmetric_candidate,
)
from qcmass.simplex import certify, solve

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def as_tuples(lp: LinearProgram) -> list[tuple]:
    return [(r.family, r.coeffs, r.relation, r.rhs) for r in lp.rows]


# ----------------------------------------------------------------- shape


@pytest.mark.parametrize(
    "n,num_vars,num_rows",
    [(2, 8, 22), (3, 14, 59), (4, 24, 148), (5, 42, 357)],
)
def test_program_size(n: int, num_vars: int, num_rows: int) -> None:
    lp, layout = build_extremal_lp(n, "min")
    assert lp.num_vars == num_vars == layout.num_vars
    assert len(lp.rows) == num_rows
    families = [r.family for r in lp.rows]
    assert families.count("D") == n
    assert families.count("E") == n * 2**n
    assert families.count("F") == (n + 1) * 2**n


def test_variable_names_n2() -> None:
    lp, layout = build_extremal_lp(2, "min")
    assert lp.var_names == ("a1", "a2", "s1", "s2", "q_ll", "q_lu", "q_ul", "q_uu")
    assert layout.corner_vars == (0, 1)
    assert layout.length_vars == (2, 3)
    assert layout.vertex_vars[(False, True)] == 5


def test_dimension_bounds() -> None:
    with pytest.raises(LPError):
        build_extremal_lp(1, "min")
    with pytest.warns(UserWarning):
        build_extremal_lp(9, "min")


def test_objective_signs_n4() -> None:
    lp, layout = build_extremal_lp(4, "max")
    coefs = dict(lp.objective)
    assert len(coefs) == 16
    for flags, index in layout.vertex_vars.items():
        lowers = 4 - sum(flags)
        assert coefs[index] == (1 if lowers % 2 == 0 else -1)
    assert sum(coefs.values()) == 0


# -------------------------------------------------- row-by-row transcription
#
# The full dimension-4 system written out by hand, one symbol per box corner:
# e..t in lexicographic flag order, lengths a,b,c,d on axes 1..4.  Each corner
# with at least two upper ends gets a chain: it dominates each one-step-lower
# corner and exceeds it by at most the separating edge length.  Corners one
# step above the base obey the same two bounds against the base corner.

SYMBOL_FLAGS = {
    "e": (0, 0, 0, 0), "f": (0, 0, 0, 1), "g": (0, 0, 1, 0), "h": (0, 0, 1, 1),
    "i": (0, 1, 0, 0), "j": (0, 1, 0, 1), "k": (0, 1, 1, 0), "l": (0, 1, 1, 1),
    "m": (1, 0, 0, 0), "n": (1, 0, 0, 1), "o": (1, 0, 1, 0), "p": (1, 0, 1, 1),
    "q": (1, 1, 0, 0), "r": (1, 1, 0, 1), "s": (1, 1, 1, 0), "t": (1, 1, 1, 1),
}

CHAINS = [
    ("h", [("g", 4), ("f", 3)]),
    ("j", [("i", 4), ("f", 2)]),
    ("k", [("i", 3), ("g", 2)]),
    ("n", [("f", 1), ("m", 4)]),
    ("o", [("g", 1), ("m", 3)]),
    ("q", [("i", 1), ("m", 2)]),
    ("l", [("h", 2), ("j", 3), ("k", 4)]),
    ("p", [("h", 1), ("n", 3), ("o", 4)]),
    ("r", [("j", 1), ("n", 2), ("q", 4)]),
    ("s", [("k", 1), ("o", 2), ("q", 3)]),
    ("t", [("l", 1), ("p", 2), ("r", 3), ("s", 4)]),
]

SINGLES = [("m", 1), ("i", 2), ("g", 3), ("f", 4)]

# per corner, the axes whose edge length is added inside the envelope bounds
ENVELOPE_AXES = {
    "e": (), "f": (4,), "g": (3,), "h": (3, 4),
    "i": (2,), "j": (2, 4), "k": (2, 3), "l": (2, 3, 4),
    "m": (1,), "n": (1, 4), "o": (1, 3), "p": (1, 3, 4),
    "q": (1, 2), "r": (1, 2, 4), "s": (1, 2, 3), "t": (1, 2, 3, 4),
}


def test_n4_rows_match_handwritten_system() -> None:
    lp, layout = build_extremal_lp(4, "min")
    one = F(1)

    def q(symbol: str) -> int:
        flags = tuple(bool(b) for b in SYMBOL_FLAGS[symbol])
        return layout.vertex_vars[flags]

    def s(axis: int) -> int:
        return 4 + (axis - 1)

    expected: list[tuple] = []
    for i in range(4):
        expected.append(("D", ((i, one), (4 + i, one)), "<=", one))
    for target, sources in CHAINS + [("?", [])]:
        if target == "?":
            continue
        for source, axis in sources:
            diff = tuple(sorted([(q(target), one), (q(source), -one)]))
            expected.append(("E", diff, ">=", F(0)))
            lip = tuple(sorted([(q(target), one), (q(source), -one), (s(axis), -one)]))
            expected.append(("E", lip, "<=", F(0)))
    for symbol, axis in SINGLES:
        diff = tuple(sorted([(q(symbol), one), (q("e"), -one)]))
        expected.append(("E", diff, ">=", F(0)))
        lip = tuple(sorted([(q(symbol), one), (q("e"), -one), (s(axis), -one)]))
        expected.append(("E", lip, "<=", F(0)))
    for symbol, axes in ENVELOPE_AXES.items():
        lower = [(q(symbol), one)] + [(i, -one) for i in range(4)]
        lower += [(s(axis), -one) for axis in axes]
        expected.append(("F", tuple(sorted(lower)), ">=", F(-3)))
        for i in range(1, 5):
            upper = [(q(symbol), one), (i - 1, -one)]
            if i in axes:
                upper.append((s(i), -one))
            expected.append(("F", tuple(sorted(upper)), "<=", F(0)))

    assert len(expected) == 148
    assert sorted(expected) == sorted(as_tuples(lp))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_axis_permutation_symmetry(n: int) -> None:
    lp, layout = build_extremal_lp(n, "min")
    reference = sorted(as_tuples(lp))
    for perm in permutations(range(n)):
        remap = {}
        for i in range(n):
            remap[i] = perm[i]
            remap[n + i] = n + perm[i]
        for flags, index in layout.vertex_vars.items():
            moved = tuple(flags[perm.index(i)] for i in range(n))
            remap[index] = layout.vertex_vars[moved]
        permuted = sorted(
            (
                r.family,
                tuple(sorted((remap[j], c) for j, c in r.coeffs)),
                r.relation,
                r.rhs,
            )
            for r in lp.rows
        )
        assert permuted == reference, perm


# -------------------------------------------------------------- assignments


def test_reference_witnesses_are_feasible_optima() -> None:
    lp, layout = build_extremal_lp(4, "min")
    witness = reference_witness(4, "min")
    report = check_assignment(lp, layout, witness)
    assert report.feasible
    assert report.objective_value == F(-9, 7) == support.corner_sum(witness.values)

    witness = reference_witness(4, "max")
    report = check_assignment(lp, layout, witness)
    assert report.feasible
    assert report.objective_value == F(2) == support.corner_sum(witness.values)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_assignment_is_feasible(n: int) -> None:
    box = NBox(((F(0), F(0)),) * n)
    values = {flags: F(0) for flags in product((False, True), repeat=n)}
    lp, layout = build_extremal_lp(n, "min")
    report = check_assignment(lp, layout, VertexAssignment(box, values))
    assert report.feasible
    assert report.objective_value == F(0)


def test_perturbed_witness_fails_exactly_where_expected() -> None:
    witness = reference_witness(4, "min")
    values = dict(witness.values)
    values[(True, True, True, True)] = F(1)
    lp, layout = build_extremal_lp(4, "min")
    report = check_assignment(lp, layout, VertexAssignment(witness.box, values))
    assert not report.feasible
    # raising the top corner to 1 breaks the four edge bounds into it and the
    # four per-axis caps at that corner, nothing else
    families = [v.family for v in report.violations]
    assert len(report.violations) == 8
    assert families.count("E") == 4
    assert families.count("F") == 4
    for violation in report.violations:
        # each violated row caps at 0 and overshoots by exactly 1/7
        assert violation.relation == "<="
        assert violation.rhs == F(0)
        assert violation.lhs == F(1, 7)


def test_negative_value_reported_as_bound_violation() -> None:
    witness = reference_witness(4, "min")
    values = dict(witness.values)
    values[(False, False, False, False)] = F(-1, 7)
    lp, layout = build_extremal_lp(4, "min")
    report = check_assignment(lp, layout, VertexAssignment(witness.box, values))
    assert not report.feasible
    assert [v.family for v in report.violations] == ["N"]
    violation = report.violations[0]
    assert violation.index == layout.vertex_vars[(False, False, False, False)]
    assert violation.lhs == F(-1, 7)


def test_assignment_vector_layout() -> None:
    lp, layout = build_extremal_lp(4, "min")
    x = assignment_vector(layout, reference_witness(4, "min"))
    assert x[:4] == [F(3, 7)] * 4
    assert x[4:8] == [F(3, 7)] * 4
    assert x[layout.vertex_vars[(True, True, True, True)]] == F(3, 7)
    assert x[layout.vertex_vars[(False, True, True, False)]] == F(0)


def test_assignment_dimension_mismatch() -> None:
    _, layout = build_extremal_lp(3, "min")
    with pytest.raises(LPError):
        assignment_vector(layout, reference_witness(4, "min"))


def test_vertex_assignment_requires_all_corners() -> None:
    box = NBox(((F(0), F(1)),) * 2)
    with pytest.raises(LPError):
        VertexAssignment(box, {(False, False): F(0)})


def test_reference_witness_rejects() -> None:
    with pytest.raises(LPError):
        reference_witness(3, "min")
    with pytest.raises(LPError):
        reference_witness(4, "down")


# --------------------------------------------------------------- conjecture


@pytest.mark.parametrize(
    "n,bound",
    [(2, F(-1, 3)), (3, F(-4, 5)), (4, F(-9, 7)), (5, F(-16, 9)), (6, F(-25, 11))],
)
def test_conjectured_bound_values(n: int, bound: Fraction) -> None:
    assert conjectured_bound(n) == bound


def test_conjectured_box_values() -> None:
    assert lift_symmetric(4, symmetric_candidate(4)).box == NBox(((F(3, 7), F(6, 7)),) * 4)
    assert lift_symmetric(5, symmetric_candidate(5)).box == NBox(((F(4, 9), F(8, 9)),) * 5)
    with pytest.raises(LPError):
        conjectured_bound(1)
    with pytest.raises(LPError):
        symmetric_candidate(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_candidate_pattern_feasible_at_conjectured_value(n: int) -> None:
    lp, layout = build_extremal_lp(n, "min")
    pattern = lift_symmetric(n, symmetric_candidate(n))
    report = check_assignment(lp, layout, pattern)
    assert report.feasible, report.violations[:3]
    assert report.objective_value == conjectured_bound(n)


def test_candidate_pattern_matches_reference_at_4() -> None:
    # the recorded minimizer: 3/7 wherever at least three coordinates are up
    values = {
        flags: F(3, 7) if sum(flags) >= 3 else F(0)
        for flags in product((False, True), repeat=4)
    }
    recorded = VertexAssignment(NBox(((F(3, 7), F(6, 7)),) * 4), values)
    assert lift_symmetric(4, symmetric_candidate(4)) == reference_witness(4, "min") == recorded


# ------------------------------------------------------- symmetric program


def test_symmetric_program_shape() -> None:
    for n in range(2, 9):
        lp = build_symmetric_lp(n, "min")
        assert lp.num_vars == n + 3
        assert len(lp.rows) == 5 * n + 2
        families = [r.family for r in lp.rows]
        assert (families.count("D"), families.count("E"), families.count("F")) == (
            1, 2 * n, 3 * n + 1
        )
    lp = build_symmetric_lp(2, "max")
    assert lp.var_names == ("a", "s", "q_0", "q_1", "q_2")
    assert lp.objective == ((2, F(1)), (3, F(-2)), (4, F(1)))
    assert dict(build_symmetric_lp(5, "min").objective) == {
        2: F(-1), 3: F(5), 4: F(-10), 5: F(10), 6: F(-5), 7: F(1)
    }
    with pytest.raises(LPError):
        build_symmetric_lp(1, "min")


@pytest.mark.parametrize("sense", ["min", "max"])
def test_symmetric_program_matches_hand_written_rows(sense: str) -> None:
    # Rows in order, objective and names, to the largest dimension conjecture runs.
    for n in range(2, 101):
        assert build_symmetric_lp(n, sense) == support.ref_symmetric_lp(n, sense), n


def row_gaps(lp: LinearProgram, x: list[Fraction]) -> set[tuple]:
    """The distinct ``(family, relation, lhs - rhs)`` of ``lp``'s rows at ``x``."""
    return {
        (row.family, row.relation, sum(c * x[j] for j, c in row.coeffs) - row.rhs)
        for row in lp.rows
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_rows_are_the_full_rows_at_symmetric_points(n: int) -> None:
    # The docstring's claim: at a symmetric point every full row takes the
    # value of one reduced row, and every reduced row is met.
    rng = random.Random(f"symmetric-rows-{n}")
    full, layout = build_extremal_lp(n, "min")
    reduced = build_symmetric_lp(n, "min")
    for _ in range(20):
        x = [F(rng.randint(0, 12), 24), F(rng.randint(0, 12), 24)]
        x += [F(rng.randint(0, 30), 30) for _ in range(n + 1)]
        lifted = assignment_vector(layout, lift_symmetric(n, x))
        assert row_gaps(full, lifted) == row_gaps(reduced, x)
        assert check_point(full, lifted).objective_value == check_point(reduced, x).objective_value


def orbit_quotient(n: int, sense: str) -> tuple[dict[Row, int], dict[int, Fraction]]:
    """The full program with a_i, s_i and q_v mapped to a, s and q_|v|.

    Each full row's coefficients are merged under the map; the merged rows,
    each once in order of first occurrence, come with the number of full
    rows that merge to them, and the objective is merged the same way.
    """
    full, layout = build_extremal_lp(n, sense)
    to_reduced = {j: 0 for j in layout.corner_vars}
    to_reduced |= {j: 1 for j in layout.length_vars}
    to_reduced |= {j: 2 + sum(v) for v, j in layout.vertex_vars.items()}

    def merged(terms) -> dict[int, Fraction]:
        coeffs: dict[int, Fraction] = {}
        for j, c in terms:
            coeffs[to_reduced[j]] = coeffs.get(to_reduced[j], F(0)) + c
        return coeffs

    orbits: dict[Row, int] = {}
    for row in full.rows:
        key = Row(row.family, tuple(merged(row.coeffs).items()), row.relation, row.rhs)
        orbits[key] = orbits.get(key, 0) + 1
    return orbits, merged(full.objective)


def symmetric_orbit_sizes(n: int) -> list[int]:
    """How many full rows each row of ``build_symmetric_lp(n, ...)`` stands for, in its row order."""
    sizes = [n]  # D
    for k in range(n):
        sizes += [n * comb(n - 1, k)] * 2  # E: an axis and a lower corner with k upper ends
    for k in range(n + 1):
        sizes.append(comb(n, k))  # F lower
        if k < n:
            sizes.append((n - k) * comb(n, k))  # F upper on an axis at its lower end
        if k > 0:
            sizes.append(k * comb(n, k))  # F upper on an axis at its upper end
    return sizes


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_program_is_the_orbit_quotient(n: int, sense: str) -> None:
    # Row for row, in order, and in its objective.  A reduced row's dual,
    # divided evenly over the row's orbit, is a dual of the full program's
    # rows, so the orbit sizes are pinned too.
    orbits, objective = orbit_quotient(n, sense)
    reduced = build_symmetric_lp(n, sense)
    assert list(orbits) == list(reduced.rows)
    assert objective == dict(reduced.objective)
    sizes = list(orbits.values())
    assert sizes == symmetric_orbit_sizes(n)
    assert sum(sizes) == n + (2 * n + 1) * 2**n


# Full optima: solved here up to n = 5; the n = 6 solve takes seconds, so its
# values are the ones test_simplex.py::test_extremal_optima_n6 pins.
FULL_N6 = {"min": F(-75, 16), "max": F(11, 2)}
CROSS_CASES = [(n, sense) for n in range(2, 7) for sense in ("min", "max")]


@cache
def full_program(n: int, sense: str):
    lp, layout = build_extremal_lp(n, sense)
    optimum = FULL_N6[sense] if n == 6 else solve(lp).objective
    return lp, layout, optimum


def cross_check(n: int, sense: str, reduced: LinearProgram) -> str | None:
    """Why ``reduced`` disagrees with the full program at ``(n, sense)``; None if it agrees."""
    lp, layout, optimum = full_program(n, sense)
    solution = solve(reduced)
    if solution.status != "optimal":
        return solution.status
    if not certify(reduced, solution).ok:
        return "certificate fails"
    if solution.objective != optimum:
        return f"optimum {solution.objective}, full program {optimum}"
    report = check_assignment(lp, layout, lift_symmetric(n, solution.assignment))
    if not report.feasible:
        return f"lift violates {len(report.violations)} full rows"
    if report.objective_value != optimum:
        return f"lift gives {report.objective_value}"
    return None


@pytest.mark.parametrize("n,sense", CROSS_CASES)
def test_symmetric_program_matches_full_program(n: int, sense: str) -> None:
    assert cross_check(n, sense, build_symmetric_lp(n, sense)) is None


def _drop_e_row(lp: LinearProgram, p: int) -> LinearProgram | None:
    """``lp`` without its p-th E row, or None when it has no p-th E row."""
    e_rows = [k for k, row in enumerate(lp.rows) if row.family == "E"]
    if p >= len(e_rows):
        return None
    k = e_rows[p]
    return replace(lp, rows=lp.rows[:k] + lp.rows[k + 1 :])


def _flip_sign(lp: LinearProgram, p: int) -> LinearProgram | None:
    """``lp`` with the sign of its p-th objective term flipped, or None past the last."""
    if p >= len(lp.objective):
        return None
    terms = list(lp.objective)
    j, coef = terms[p]
    terms[p] = (j, -coef)
    return replace(lp, objective=tuple(terms))


# E rows 0..10 and every objective term.  E row 11 exists only at n = 6,
# where it is the top Lipschitz row q_6 - q_5 - s <= 0; at every n = 2..6
# dropping the top Lipschitz row leaves the optima and feasible lifts, so no
# dimension here can tell it is missing.
@pytest.mark.parametrize(
    "mutate,p",
    [pytest.param(_drop_e_row, p, id=f"drop-E-row-{p}") for p in range(11)]
    + [pytest.param(_flip_sign, p, id=f"flip-q_{p}") for p in range(7)],
)
def test_cross_check_catches_a_mutated_symmetric_program(mutate, p: int) -> None:
    # Each single dropped E row and each single flipped binomial sign must
    # fail the cross-check for at least one dimension and sense.
    findings = []
    for n, sense in CROSS_CASES:
        mutated = mutate(build_symmetric_lp(n, sense), p)
        if mutated is not None:
            findings.append(cross_check(n, sense, mutated))
    assert findings and any(findings), findings


# (min, pivots, max, pivots) of the symmetric program; the pivot counts are
# regression data for the deterministic pivot rule.
SYMMETRIC_OPTIMA = {
    2: (F(-1, 3), 4, F(1), 3),
    3: (F(-4, 5), 5, F(1), 5),
    4: (F(-9, 7), 9, F(2), 8),
    5: (F(-32, 13), 9, F(7, 2), 12),
    6: (F(-75, 16), 13, F(11, 2), 13),
    7: (F(-19, 2), 14, F(31, 3), 16),
    8: (F(-55, 3), 17, F(19), 17),
    9: (F(-37), 18, F(71, 2), 20),
    10: (F(-209, 3), 22, F(211, 3), 20),
    11: (F(-251, 2), 22, F(421, 3), 24),
    12: (F(-791, 3), 25, F(793, 3), 25),
    30: (F(-197318609, 4), 61, F(197318611, 4), 61),
}


@pytest.mark.parametrize("n", sorted(SYMMETRIC_OPTIMA))
def test_symmetric_optima_pinned(n: int) -> None:
    low, low_pivots, high, high_pivots = SYMMETRIC_OPTIMA[n]
    for sense, objective, pivots in (("min", low, low_pivots), ("max", high, high_pivots)):
        lp = build_symmetric_lp(n, sense)
        solution = solve(lp)
        assert solution.status == "optimal"
        assert (solution.objective, solution.pivots) == (objective, pivots)
        assert certify(lp, solution).ok


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_candidate_decides_candidate_pattern(n: int) -> None:
    lp, layout = build_extremal_lp(n, "min")
    reduced = build_symmetric_lp(n, "min")
    point = symmetric_candidate(n)
    lo = F(n - 1, 2 * n - 1)
    assert lift_symmetric(n, point).box == NBox(((lo, 2 * lo),) * n)
    # the verdicts agree on the candidate and on two symmetric edits of it:
    # the top corner raised to 1, and every corner value raised by 1/(2n-1)
    bump = F(1, 2 * n - 1)
    for x in (point, point[:-1] + [F(1)], point[:2] + [q + bump for q in point[2:]]):
        verdict = check_point(reduced, x)
        full = check_assignment(lp, layout, lift_symmetric(n, x))
        assert verdict.feasible == full.feasible
        assert verdict.objective_value == full.objective_value
    assert check_point(reduced, point).feasible
    assert not check_point(reduced, point[:-1] + [F(1)]).feasible


def test_check_point_matches_fraction_reference() -> None:
    rng = random.Random("check_point")
    feasible = infeasible = 0
    for case in range(300):
        lp = support.random_small_lp(rng)
        solution = solve(lp)
        if solution.status == "optimal":
            x = [F(solution.assignment[j]) for j in range(lp.num_vars)]
        else:
            x = [F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(lp.num_vars)]
        points = [x]
        for _ in range(3):
            point = list(x)
            j = rng.randrange(lp.num_vars)
            point[j] += F(rng.choice((-1, 1)), rng.choice((1, 2, 3, 7, 60, 420)))
            points.append(point)
        for point in points:
            got = check_point(lp, point)
            want = support.ref_check_point(lp, point)
            assert got.feasible == want.feasible, case
            assert got.objective_value == want.objective_value, case
            assert got.violations == want.violations, case
            assert all(type(v.lhs) is Fraction for v in got.violations), case
            feasible += got.feasible
            infeasible += not got.feasible
    assert feasible >= 100 and infeasible >= 100


def test_lift_and_check_point_reject_wrong_length() -> None:
    with pytest.raises(LPError):
        lift_symmetric(3, [F(0)] * 5)
    with pytest.raises(LPError):
        check_point(build_symmetric_lp(3, "min"), [F(0)] * 5)


@pytest.mark.parametrize("value", [None, float("nan"), "x", 1j], ids=repr)
def test_lift_and_check_point_name_a_value_that_is_not_rational(value: object) -> None:
    point = (value,) * 6
    message = f"point {point!r} is not a sequence of rational numbers"
    with pytest.raises(LPError, match=re.escape(message)):
        check_point(build_symmetric_lp(3, "min"), point)
    with pytest.raises(LPError, match=re.escape(f"box corner {value!r} is not a rational number")):
        lift_symmetric(3, point)
    # the side s, with a good corner a
    with pytest.raises(LPError, match=re.escape(f"box side {value!r} is not a rational number")):
        lift_symmetric(3, (F(0),) + point[1:])


@pytest.mark.parametrize("point", [5, None], ids=repr)
def test_lift_and_check_point_name_a_point_that_is_not_a_sequence(point: object) -> None:
    message = f"point {point!r} is not a sequence of rational numbers"
    with pytest.raises(LPError, match=re.escape(message)):
        check_point(build_symmetric_lp(3, "min"), point)
    with pytest.raises(LPError, match=re.escape(f"symmetric point {point!r} is not a sequence")):
        lift_symmetric(3, point)


# -------------------------------------------------------------- text format


def assert_roundtrips(lp: LinearProgram) -> None:
    text = export_lp(lp)
    again = support.read_lp(text)
    assert again == lp
    assert export_lp(again) == text


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_export_parse_roundtrip(n: int, sense: str) -> None:
    lp, _ = build_extremal_lp(n, sense)
    assert_roundtrips(lp)


@pytest.mark.parametrize("n", range(2, 9))
def test_export_parse_roundtrip_symmetric(n: int) -> None:
    for sense in ("min", "max"):
        assert_roundtrips(build_symmetric_lp(n, sense))


def test_export_parse_roundtrip_fractional() -> None:
    rng = random.Random("export-roundtrip")
    programs = [support.random_small_lp(rng) for _ in range(200)]
    assert sum(row.den > 1 for lp in programs for row in lp.rows) >= 200
    for lp in programs:
        assert_roundtrips(lp)


def test_export_parse_ad_hoc_program() -> None:
    lp = LinearProgram(
        2,
        ("x", "y"),
        "max",
        ((0, F(1)), (1, F(-2, 3))),
        (Row("", ((0, F(1, 2)), (1, F(1))), "<=", F(-5, 7)),),
    )
    text = export_lp(lp)
    assert "row - <= -5/7 2 0:1/2 1:1" in text
    assert support.read_lp(text) == lp


def test_export_header_and_shape() -> None:
    lp, _ = build_extremal_lp(2, "min")
    lines = export_lp(lp).splitlines()
    assert lines[0] == "qclp 1 8 min"
    assert sum(1 for ln in lines if ln.startswith("var ")) == 8
    assert sum(1 for ln in lines if ln.startswith("row ")) == 22
    assert lines[-1].startswith("obj 4 ")


@pytest.mark.parametrize(
    "name, lp",
    [(f"extremal_n{n}_min", build_extremal_lp(n, "min")[0]) for n in (2, 3, 4)]
    + [("symmetric_n5_min", build_symmetric_lp(5, "min"))],
    ids=["2", "3", "4", "symmetric-5"],
)
def test_export_matches_golden_file(name: str, lp: LinearProgram) -> None:
    assert export_lp(lp) == (GOLDEN / f"{name}.lp").read_text()


# --------------------------------------------------------------- validation


def test_program_validation() -> None:
    row = Row("", ((0, F(1)),), "<=", F(1))
    with pytest.raises(LPError):
        LinearProgram(0, (), "min", (), ())
    with pytest.raises(LPError):
        LinearProgram(2, ("x",), "min", (), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "x"), "min", (), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "y z"), "min", (), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "y"), "least", (), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "y"), "min", ((0, F(1)), (0, F(1))), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "y"), "min", ((5, F(1)),), (row,))
    with pytest.raises(LPError):
        LinearProgram(2, ("x", "y"), "min", (), (Row("", (), "<=", F(1)),))
    with pytest.raises(LPError):
        Row("", ((0, F(1)),), "==", F(1))
    with pytest.raises(LPError, match="unsupported relation '='"):
        Row("", ((0, F(1)),), "=", F(1))


_NOT_RATIONAL = [None, "z", float("nan")]


@pytest.mark.parametrize(
    "build",
    [
        lambda v: Row("", ((0, 1), (1, v)), "<=", 1),
        lambda v: Row("", ((0, 1),), "<=", v),
        lambda v: LinearProgram(2, ("x", "y"), "min", ((0, 1), (1, v)), ()),
    ],
    ids=["row-coefficient", "row-rhs", "objective-coefficient"],
)
@pytest.mark.parametrize("value", _NOT_RATIONAL, ids=repr)
def test_program_names_a_number_that_is_not_rational(build, value: object) -> None:
    with pytest.raises(LPError, match=re.escape(f"value {value!r} is not a rational number")):
        build(value)


@pytest.mark.parametrize("value", _NOT_RATIONAL, ids=repr)
def test_vertex_assignment_names_a_value_that_is_not_rational(value: object) -> None:
    values = {(False,): F(0), (True,): value}
    message = f"corner value {value!r} is not a rational number"
    with pytest.raises(LPError, match=re.escape(message)):
        VertexAssignment(NBox(((F(0), F(1)),)), values)


def test_row_is_canonical_from_construction() -> None:
    row = Row("", ((3, 2), (0, F(0)), (1, F(-1, 2))), ">=", 1)
    assert row.coeffs == ((1, F(-1, 2)), (3, F(2)))
    assert all(type(c) is Fraction for _, c in row.coeffs) and type(row.rhs) is Fraction
    # the numbers are held once, as integers over the lcm of the reduced denominators
    assert (row.den, row.terms, row.num) == (2, ((1, -1), (3, 4)), 2)
    assert all(type(a) is int for _, a in row.terms)
    with pytest.raises(LPError, match="duplicate variable index 2 in row"):
        Row("", ((2, F(1)), (0, F(1)), (2, F(0))), "<=", F(1))
    with pytest.raises(LPError, match="negative variable index -1 in row"):
        Row("", ((0, F(1)), (-1, F(1))), "<=", F(1))
    with pytest.raises(LPError, match="row references no variables"):
        Row("", (), "<=", F(1))
    with pytest.raises(LPError, match="row references no variables"):
        Row("", ((0, F(0)),), "<=", F(1))
    # a new right-hand side gives a new denominator for every term
    other = Row("", row.coeffs, ">=", F(1, 3))
    assert (other.den, other.terms, other.num) == (6, ((1, -3), (3, 12)), 2)
    assert other.coeffs == row.coeffs and other != row


def test_row_equality_is_rational_equality() -> None:
    half = F(1, 2)
    equal_pairs = [
        (Row("E", ((0, F(2, 4)), (1, 1)), "<=", F(3, 6)), Row("E", ((0, half), (1, 1)), "<=", half)),
        (Row("E", ((0, 1), (2, -1)), ">=", 1), Row("E", ((0, F(1)), (2, F(-1))), ">=", F(1))),
        (Row("E", ((2, half), (0, -1)), "<=", 0), Row("E", ((0, -1), (2, half)), "<=", 0)),
        (Row("E", ((0, -1), (1, 0), (2, half)), "<=", 0), Row("E", ((0, -1), (2, half)), "<=", 0)),
        (Row("E", ((0, "-1"), (1, "0"), (2, "2/4")), "<=", "0"), Row("E", ((0, -1), (2, half)), "<=", 0)),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)
        assert (a.den, a.terms, a.num) == (b.den, b.terms, b.num)
    base = Row("E", ((0, 1), (2, half)), "<=", 1)
    for other in (
        Row("E", ((0, 1), (2, F(1, 3))), "<=", 1),
        Row("E", ((0, 1), (2, half)), ">=", 1),
        Row("F", ((0, 1), (2, half)), "<=", 1),
    ):
        assert other != base


def test_one_row_written_several_ways_has_one_form() -> None:
    # Each group spells one row, as (coeffs, rhs), in several ways: ints,
    # Fractions, ratio and decimal strings, bools, ints and Fractions mixed.
    groups = [
        ("<=", [
            (((0, 1), (3, 1), (5, 0)), 1),
            (((0, F(1)), (3, F(2, 2)), (5, F(0))), F(1)),
            (((0, "1"), (3, "2/2"), (5, "0.0")), "1.00"),
            (((0, True), (3, True), (5, False)), True),
            (((3, F(3, 3)), (0, 1), (5, 0)), F(1)),
        ]),
        (">=", [
            (((0, -2), (4, 3)), 0),
            (((0, F(-2)), (4, F(6, 2))), F(0)),
            (((0, "-4/2"), (4, "3.0")), "-0.0"),
            (((0, -2), (4, F(3))), False),
        ]),
        ("<=", [
            (((1, F(1, 2)), (2, F(-2)), (6, F(3, 4))), F(-5, 6)),
            (((1, "1/2"), (2, "-2"), (6, "0.75")), "-10/12"),
            (((1, "0.5"), (2, "-4/2"), (6, "3/4")), "-5/6"),
            (((6, F(6, 8)), (2, -2), (1, F(2, 4))), F(-5, 6)),
        ]),
    ]
    dens = []
    for relation, spellings in groups:
        rows = [Row("F", coeffs, relation, rhs) for coeffs, rhs in spellings]
        first = rows[0]
        for row in rows[1:]:
            assert (row.den, row.terms, row.num) == (first.den, first.terms, first.num)
            assert row == first and hash(row) == hash(first)
        assert all(type(a) is int for _, a in first.terms) and type(first.num) is int
        dens.append(first.den)
    assert dens == [1, 1, 12]


def test_row_den_is_one_exactly_for_integer_values() -> None:
    rng = random.Random("row-den")

    def value() -> Fraction:
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 1, 2, 3, 4)))

    def spell(v: Fraction) -> int | Fraction:
        """An integer value written as an int half the time."""
        return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v

    for _ in range(500):
        rhs = rng.choice((F(0), value()))
        coeffs = [(j, value()) for j in range(rng.randint(1, 4))]
        row = Row("", [(j, spell(c)) for j, c in coeffs], "<=", spell(rhs))
        assert (row.den == 1) == all(v.denominator == 1 for v in [rhs, *dict(coeffs).values()])
        assert row.rhs == rhs and row.coeffs == tuple(coeffs)


def test_program_keeps_the_rows_it_is_given(monkeypatch) -> None:
    lp, _ = build_extremal_lp(3, "min")
    rows = lp.rows
    built = []
    init = Row.__init__
    monkeypatch.setattr(Row, "__init__", lambda row, *args: built.append(row) or init(row, *args))
    again = LinearProgram(lp.num_vars, lp.var_names, lp.sense, lp.objective, list(rows))
    assert not built
    assert all(again.rows[k] is rows[k] for k in range(len(rows)))
    with pytest.raises(LPError, match="variable index 7 out of range in row 0"):
        LinearProgram(7, [f"x{j}" for j in range(7)], "min", (), (Row("", ((7, F(1)),), "<=", F(1)),))


def test_each_extremal_row_is_canonicalized_once(monkeypatch) -> None:
    from qcmass import lp as lp_module

    calls = []
    canonical_terms = lp_module._canonical_terms
    monkeypatch.setattr(
        lp_module, "_canonical_terms", lambda terms, where: calls.append(where) or canonical_terms(terms, where)
    )
    for sense in ("min", "max"):
        calls.clear()
        lp, _ = build_extremal_lp(5, sense)
        assert calls.count("row") == len(lp.rows) == 5 + 11 * 2**5
        assert calls.count("objective") == 1 and len(calls) == len(lp.rows) + 1


def test_each_extremal_row_is_converted_once(monkeypatch) -> None:
    # Building the program makes each row once and the objective's integers
    # once; solving it, checking a feasible point and certifying it make no
    # row and read none of a row's Fraction views.
    from qcmass import lp as lp_module, simplex

    reads = []
    for name in ("coeffs", "rhs"):
        view = getattr(Row, name)
        monkeypatch.setattr(Row, name, property(lambda row, view=view: reads.append(row) or view.fget(row)))
    built = []
    init = Row.__init__
    monkeypatch.setattr(Row, "__init__", lambda row, *args: built.append(row) or init(row, *args))
    calls = []
    over_one_den = lp_module._over_one_den

    def counted(values):
        calls.append(None)
        return over_one_den(values)

    monkeypatch.setattr(lp_module, "_over_one_den", counted)
    assert not hasattr(simplex, "_over_one_den")  # certify reads the point through lp
    for sense in ("min", "max"):
        built.clear()
        calls.clear()
        lp, _ = build_extremal_lp(5, sense)
        assert len(built) == len(lp.rows) == 5 + 11 * 2**5
        assert len(calls) == 1  # the objective
        built.clear()
        calls.clear()
        solution = solve(lp)
        assert not calls
        assert certify(lp, solution).ok
        assert len(calls) == 1  # the point, in the one pass check_point and certify share
        x = [solution.assignment[j] for j in range(lp.num_vars)]
        assert check_point(lp, x).feasible
        assert not built
        assert not reads
    export_lp(lp)  # the text export reads both views of every row, so the count is live
    assert len(reads) == 2 * len(lp.rows)


def test_extremal_rows_are_small() -> None:
    # Each row holds its numbers once, as ints: at n = 10 the built program
    # holds about 365 bytes a row on CPython 3.10-3.13.  The bound fails a
    # row that keeps Fraction coefficients beside its ints (510-560 bytes).
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    with pytest.warns(UserWarning, match="expect it to be slow"):
        lp, _ = build_extremal_lp(10, "min")
    held = tracemalloc.get_traced_memory()[0] - before
    if not tracing:
        tracemalloc.stop()
    assert held / len(lp.rows) < 450


def test_zero_coefficients_dropped() -> None:
    lp = LinearProgram(
        2,
        ("x", "y"),
        "min",
        ((0, F(1)), (1, F(0))),
        (Row("", ((1, F(1)), (0, F(0))), "<=", F(1)),),
    )
    assert lp.objective == ((0, F(1)),)
    assert lp.rows[0].coeffs == ((1, F(1)),)


def test_evaluate_objective() -> None:
    lp, layout = build_extremal_lp(2, "min")
    x = [F(0)] * 8
    x[layout.vertex_vars[(True, True)]] = F(1, 3)
    x[layout.vertex_vars[(False, True)]] = F(1, 6)
    assert check_point(lp, x).objective_value == F(1, 3) - F(1, 6)
