"""The exit-code contract under generated malformed input.

Every malformed box, grid file or dimension option must end in exit code 2
with an ``error:`` line (or click's usage text), never in a traceback.  The
strategies for malformed input draw only inputs that are malformed by
construction, so a zero or one exit is a fault, not bad luck.  Wide grid
files of up to 40 axes, on the other hand, are valid: ``volume`` must answer
on them with one rational line whatever the size of their node lattice.
The draws are derandomized, so a failure replays from the test id alone.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from qcmass import cli
from qcmass.grid import builtin_grid, grid_to_json
from qcmass.lp import LPError
from qcmass.rational import parse_rational

SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# No digit in the alphabet, so no piece of a junk string parses as a rational
# or an integer.
JUNK = st.text(alphabet="abxyz:,/-. +eE_[]{}", max_size=12)
# Longer than the 4300 digits int() converts, or far outside [0, 1].
HUGE = st.integers(4301, 6000).map(lambda k: "9" * k)
OUT_OF_UNIT = st.integers(2, 40).map(lambda k: "9" * k)
# Lists of lists, never a flat list of integers, so never a valid cell.
NESTED = st.lists(st.lists(st.integers(-2, 9), max_size=2), min_size=1, max_size=3)
BAD_VALUE = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False), NESTED, JUNK, HUGE
)
# A raw JSON integer literal too long to convert, spliced in after dumping.
RAW_HUGE = "__raw_huge__"

# q1's file without its optional "schema" key, so dropping any key breaks it.
Q1 = json.loads(grid_to_json(builtin_grid("q1")))
del Q1["schema"]
Q1_BOX = "0:1,0:1,0:1,0:1"


def run(*args: str):
    return CliRunner().invoke(cli.main, list(args))


def assert_usage_error(result, args) -> None:
    assert result.exit_code == 2, (args, result.output, result.exception)
    assert isinstance(result.exception, SystemExit), (args, result.exception)
    assert result.output.startswith("error:") or result.output.startswith("Usage:"), (
        args,
        result.output,
    )


# ------------------------------------------------------------------- boxes


def _intervals(draw, count: int) -> list[str]:
    return [
        draw(st.sampled_from(["0:1", "1/3:2/3", "0.25:0.5", "1/2:1/2"]))
        for _ in range(count)
    ]


@st.composite
def malformed_boxes(draw) -> str:
    kind = draw(st.sampled_from(["junk", "literal", "reversed", "arity", "colon"]))
    if kind == "junk":
        return draw(JUNK)
    if kind == "arity":
        return ",".join(_intervals(draw, draw(st.sampled_from([1, 2, 3, 5, 6]))))
    pieces = _intervals(draw, 4)
    k = draw(st.integers(0, 3))
    if kind == "literal":
        lo, hi = pieces[k].split(":")
        bad = draw(st.one_of(HUGE, OUT_OF_UNIT, OUT_OF_UNIT.map("-".__add__)))
        pieces[k] = draw(st.sampled_from([f"{bad}:{hi}", f"{lo}:{bad}"]))
    elif kind == "reversed":
        pieces[k] = draw(st.sampled_from(["1:0", "2/3:1/3", "0.5:0.25"]))
    else:
        pieces[k] = pieces[k].replace(":", draw(st.sampled_from(["", ";", "::", " "])))
    return ",".join(pieces)


@SEEDED
@given(box=malformed_boxes(), example=st.sampled_from(["q1", "q2"]))
def test_volume_rejects_malformed_box(box: str, example: str) -> None:
    args = ("volume", "--example", example, "--box", box)
    assert_usage_error(run(*args), args)


# -------------------------------------------------------------- grid files


@st.composite
def malformed_grid_texts(draw) -> str:
    """A grid file text: q1's payload with one fault, or no JSON object at all."""
    payload = json.loads(json.dumps(Q1))  # a deep copy
    kind = draw(
        st.sampled_from(
            ["not-json", "not-object", "missing", "extra", "value", "boolean", "arity",
             "raw-huge"]
        )
    )
    if kind == "not-json":
        return draw(st.sampled_from(["", "{", "[1,", "{'dimension': 4}"])) + draw(JUNK)
    if kind == "not-object":
        return json.dumps(draw(st.one_of(st.booleans(), st.none(), NESTED, JUNK)))
    if kind == "missing":
        entry = payload["masses"][draw(st.integers(0, len(payload["masses"]) - 1))]
        holder = draw(st.sampled_from([payload, entry]))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif kind == "boolean":
        # true and false load as Python bools, which are ints
        entry = draw(st.sampled_from(payload["masses"]))
        entry["cell"][draw(st.integers(0, 3))] = draw(st.booleans())
    elif kind == "extra":
        payload[draw(st.sampled_from(["dims", "mass", "partition", "cells"]))] = 1
    elif kind == "arity":
        where = draw(st.sampled_from(["dimension", "partitions", "cell"]))
        if where == "dimension":
            payload["dimension"] = draw(st.integers(-3, 9).filter(lambda d: d != 4))
        elif where == "partitions":
            payload["partitions"] = payload["partitions"][: draw(st.integers(0, 3))]
            payload["dimension"] = len(payload["partitions"])
            if not payload["partitions"]:
                payload["masses"] = []
        else:
            entry = draw(st.sampled_from(payload["masses"]))
            entry["cell"] = entry["cell"][: draw(st.integers(0, 3))]
    else:
        bad = RAW_HUGE if kind == "raw-huge" else draw(BAD_VALUE)
        entry = draw(st.sampled_from(payload["masses"]))
        axis = draw(st.sampled_from(payload["partitions"]))
        target = draw(st.sampled_from(["dimension", "partitions", "axis", "breakpoint",
                                       "masses", "entry", "cell", "index", "mass"]))
        if target in ("dimension", "partitions", "masses"):
            payload[target] = bad
        elif target == "axis":
            payload["partitions"][payload["partitions"].index(axis)] = bad
        elif target == "breakpoint":
            axis[draw(st.integers(0, len(axis) - 1))] = bad
        elif target == "entry":
            payload["masses"][payload["masses"].index(entry)] = bad
        elif target == "index":
            entry["cell"][draw(st.integers(0, 3))] = bad
        else:
            entry[target] = bad
        if target == "partitions" and isinstance(bad, list):
            payload["dimension"] = len(bad)
    return json.dumps(payload).replace(json.dumps(RAW_HUGE), "9" * 4400)


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    return tmp_path_factory.mktemp("grids") / "grid.json"


GRID_ARGS = {"verify": (), "volume": ("--box", Q1_BOX), "margin": ("--drop-axis", "1")}


@settings(SEEDED, max_examples=150)
@given(text=malformed_grid_texts(), command=st.sampled_from(list(GRID_ARGS)))
def test_grid_commands_reject_malformed_file(grid_file, text: str, command: str) -> None:
    grid_file.write_text(text)
    args = (command, "--file", str(grid_file), *GRID_ARGS[command])
    assert_usage_error(run(*args), (args[0], text[:200]))


# Files that are not text: a UTF-16 byte-order mark followed by bytes that
# are no JSON, a lone UTF-8 continuation byte, and a truncated UTF-8 sequence.
# The last, nested past the JSON parser's recursion limit, is named by its id.
UNDECODABLE = [
    b"\xff\xfe\x00{",
    b"\x80",
    b'{"dimension": 1\xc3}',
    pytest.param(b"[" * 200000, id="nested-200000"),
]


@pytest.mark.parametrize("data", UNDECODABLE)
@pytest.mark.parametrize("command", list(GRID_ARGS))
def test_grid_commands_reject_undecodable_file(grid_file, data: bytes, command: str) -> None:
    grid_file.write_bytes(data)
    args = (command, "--file", str(grid_file), *GRID_ARGS[command])
    result = run(*args)
    assert_usage_error(result, (command, data))
    assert result.output.startswith("error: invalid JSON"), result.output


@settings(SEEDED, max_examples=150)
@given(text=malformed_grid_texts())
def test_loader_refuses_malformed_file_like_reference(text: str) -> None:
    assert support.assert_loaders_agree(text) is None


# -------------------------------------------------------------- wide grids

BREAKS = ["1/2", "1/3", "2/3", "1/7", "0.25"]
ENDS = ["0", "1/4", "1/3", "1/2", "5/7", "1"]


@st.composite
def wide_grids(draw) -> dict:
    """A grid file payload of up to 40 axes, 2-3 breakpoints each, and 0-3 cells."""
    n = draw(st.integers(1, 40))
    parts = [
        ["0", *draw(st.lists(st.sampled_from(BREAKS), max_size=1)), "1"] for _ in range(n)
    ]
    cells = draw(
        st.lists(
            st.tuples(*(st.integers(0, len(axis) - 2) for axis in parts)),
            max_size=3,
            unique=True,
        )
    )
    masses = [
        {"cell": list(cell), "mass": draw(st.sampled_from(["1", "-1/3", "7/2", "0", "0.125"]))}
        for cell in cells
    ]
    return {"dimension": n, "partitions": parts, "masses": masses}


def _wide_box(draw, n: int) -> str:
    """``n`` intervals, all [0, 1] but up to three, so that many answers are nonzero."""
    pieces = ["0:1"] * n
    for axis in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        lo, hi = sorted((draw(st.sampled_from(ENDS)) for _ in range(2)), key=parse_rational)
        pieces[axis] = f"{lo}:{hi}"
    return ",".join(pieces)


@st.composite
def wide_volume_queries(draw) -> tuple[dict, str]:
    payload = draw(wide_grids())
    return payload, _wide_box(draw, payload["dimension"])


@st.composite
def wide_arity_mismatches(draw) -> tuple[dict, str]:
    payload = draw(wide_grids())
    n = payload["dimension"]
    arity = draw(st.integers(1, 41).filter(lambda k: k != n))
    return payload, _wide_box(draw, arity)


@SEEDED
@given(query=wide_volume_queries())
def test_volume_answers_on_wide_grids(grid_file, query) -> None:
    payload, box = query
    grid_file.write_text(json.dumps(payload))
    result = run("volume", "--file", str(grid_file), "--box", box)
    assert result.exit_code == 0, (box, result.output, result.exception)
    lines = result.output.splitlines()
    assert len(lines) == 1 and result.output.endswith("\n"), result.output
    grid = support.assert_loaders_agree(json.dumps(payload))
    want = support.box_mass_direct(grid, cli._parse_box(box))
    assert parse_rational(lines[0]) == want, (box, result.output)


@SEEDED
@given(query=wide_arity_mismatches())
def test_volume_rejects_box_of_wrong_arity_on_wide_grids(grid_file, query) -> None:
    payload, box = query
    grid_file.write_text(json.dumps(payload))
    args = ("volume", "--file", str(grid_file), "--box", box)
    result = run(*args)
    assert_usage_error(result, args)
    assert result.output.startswith("error: box has arity"), result.output


# ------------------------------------------------------------ output files


def test_emit_lp_to_missing_directory_exits_2(tmp_path) -> None:
    target = tmp_path / "missing" / "x.lp"
    args = ("extremize", "-n", "2", "--direction", "min", "--emit-lp", str(target))
    result = run(*args)
    assert_usage_error(result, args)
    assert str(target) in result.output
    assert not target.exists()


# ------------------------------------------------------- dimension options

NOT_AN_INT = st.one_of(JUNK.filter(bool), HUGE)


@SEEDED
@given(value=st.one_of(st.integers(max_value=1), NOT_AN_INT).map(str))
def test_dimension_options_reject_small_or_junk(value: str) -> None:
    for args in (
        ("extremize", "-n", value, "--direction", "min"),
        ("conjecture", "--max-dim", value),
    ):
        assert_usage_error(run(*args), args)


@SEEDED
@given(
    value=st.one_of(st.integers(min_value=cli.MAX_CONJECTURE_DIM + 1), st.just(10**20)).map(str)
)
def test_conjecture_rejects_too_many_dimensions(value: str) -> None:
    # Each dimension up to --max-dim is solved in turn; past the limit the
    # command must refuse at once, before any program is built or solved.
    def no_build(*args):
        raise AssertionError("program built for a --max-dim above the limit")

    args = ("conjecture", "--max-dim", value)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_symmetric_lp", no_build)
        mp.setattr(cli, "solve", no_build)
        result = run(*args)
    assert_usage_error(result, args)
    assert f"at most {cli.MAX_CONJECTURE_DIM}" in result.output


def test_conjecture_accepts_the_largest_dimension(monkeypatch: pytest.MonkeyPatch) -> None:
    # The limit itself is a valid --max-dim: it reaches the solver.
    def stop(*args):
        raise LPError("reached the solver")

    monkeypatch.setattr(cli, "solve", stop)
    result = run("conjecture", "--max-dim", str(cli.MAX_CONJECTURE_DIM))
    assert result.exit_code == 2
    assert result.output == "error: reached the solver\n"


@SEEDED
@given(
    value=st.one_of(st.integers(max_value=0), st.integers(min_value=5), NOT_AN_INT).map(str),
    example=st.sampled_from(["q1", "q2"]),
)
def test_drop_axis_rejects_out_of_range_or_junk(value: str, example: str) -> None:
    args = ("margin", "--example", example, "--drop-axis", value)
    assert_usage_error(run(*args), args)


@SEEDED
@given(
    value=st.one_of(st.integers(max_value=1), st.integers(5, 60), NOT_AN_INT).map(str),
    direction=st.sampled_from(["min", "max", "both"]),
)
def test_check_witness_rejects_unrecorded_dimension(value: str, direction: str) -> None:
    def no_build(*args):
        raise AssertionError("extremal program built for an unrecorded dimension")

    args = ("check-witness", "-n", value, "--direction", direction)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_extremal_lp", no_build)
        assert_usage_error(run(*args), args)
