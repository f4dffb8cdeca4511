"""Construction and checking of the extremal programs."""

from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from qcmass.grid import NBox
from qcmass.lp import (
    LinearProgram,
    LPError,
    Row,
    VertexAssignment,
    assignment_vector,
    build_extremal_lp,
    candidate_pattern,
    check_assignment,
    conjectured_bound,
    conjectured_box,
    export_lp,
    parse_lp,
    reference_witness,
)

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
    assert report.objective_value == F(-9, 7) == witness.objective()

    witness = reference_witness(4, "max")
    report = check_assignment(lp, layout, witness)
    assert report.feasible
    assert report.objective_value == F(2) == witness.objective()


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
    assert conjectured_box(4) == NBox(((F(3, 7), F(6, 7)),) * 4)
    assert conjectured_box(5) == NBox(((F(4, 9), F(8, 9)),) * 5)
    with pytest.raises(LPError):
        conjectured_box(1)
    with pytest.raises(LPError):
        conjectured_bound(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_candidate_pattern_feasible_at_conjectured_value(n: int) -> None:
    lp, layout = build_extremal_lp(n, "min")
    pattern = candidate_pattern(n)
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
    assert candidate_pattern(4) == reference_witness(4, "min") == recorded


# -------------------------------------------------------------- text format


@pytest.mark.parametrize("n,sense", [(2, "min"), (3, "max")])
def test_export_parse_roundtrip(n: int, sense: str) -> None:
    lp, _ = build_extremal_lp(n, sense)
    again = parse_lp(export_lp(lp))
    assert again == lp


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
    assert parse_lp(text) == lp


def test_export_header_and_shape() -> None:
    lp, _ = build_extremal_lp(2, "min")
    lines = export_lp(lp).splitlines()
    assert lines[0] == "qclp 1 8 min"
    assert sum(1 for ln in lines if ln.startswith("var ")) == 8
    assert sum(1 for ln in lines if ln.startswith("row ")) == 22
    assert lines[-1].startswith("obj 4 ")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_export_matches_golden_file(n: int) -> None:
    lp, _ = build_extremal_lp(n, "min")
    golden = (GOLDEN / f"extremal_n{n}_min.lp").read_text()
    assert export_lp(lp) == golden


@pytest.mark.parametrize(
    "text",
    [
        "",
        "qclp 2 8 min\nobj 0",
        "qclp 1 min\nobj 0",
        "qclp 1 x min\nobj 0",
        "qclp 1 0 up\nvar 0 x\nobj 0",
        "qclp 1 1 min\nvar 0 x\nvar 0 y\nobj 0",
        "qclp 1 1 min\nvar 1 x\nobj 0",
        "qclp 1 1 min\nobj 0\nvar 0 x",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 1 0:1",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 2 0:1\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 1 0;1\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 1 0:z\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D <= bad 1 0:1\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D = 1 1 0:1\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 1 5:1\nobj 0",
        "qclp 1 1 min\nvar 0 x\nobj 1 0:1\nobj 1 0:1",
        "qclp 1 1 min\nvar 0 x\nnope 1\nobj 0",
        "qclp 1 2 min\nvar 0 x\nobj 0",
        "qclp 1 1 min\nvar 0 x\nrow D <= 1 0\nobj 0",
    ],
)
def test_parse_rejects(text: str) -> None:
    with pytest.raises(LPError):
        parse_lp(text)


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
    assert lp.evaluate_objective(x) == F(1, 3) - F(1, 6)
