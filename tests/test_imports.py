"""What each entry point imports: ``import qcmass`` and every command load only what they use.

qcmass has two halves: the grid half (:mod:`qcmass.grid`) and the LP half
(:mod:`qcmass.lp` and :mod:`qcmass.simplex`).  ``import qcmass`` loads a
submodule the first time one of its names is read, ``import qcmass.cli``
loads neither half, and each command loads only the half it runs.  A command
runs in a fresh process, so each module it does not load is source it does
not compile at start-up.

This test process has imported every module already, so each check runs in
a fresh interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import qcmass
from qcmass.grid import builtin_grid, grid_to_json, marginalize

SRC = Path(qcmass.__file__).resolve().parents[1]
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

LP_HALF = ("qcmass.lp", "qcmass.simplex")

# The package's public names.
PUBLIC = [
    "AxiomReport", "AxisPartition", "CertificateReport", "ExtremalLayout",
    "FeasibilityReport", "GridError", "GridQuasiCopula", "LPError",
    "LinearProgram", "MassGrid", "NBox", "RationalParseError", "Row",
    "RowViolation", "SimplexSolution", "SolveStats", "VertexAssignment",
    "Violation", "assignment_vector", "build_extremal_lp", "build_symmetric_lp",
    "builtin_example", "builtin_grid", "certify", "check_assignment",
    "check_point", "conjectured_bound", "corner_sign", "export_lp",
    "format_rational", "grid_from_json", "grid_to_json", "lift_symmetric",
    "make_grid_qc", "marginalize", "parse_rational", "reference_witness",
    "solution_to_assignment", "solve", "symmetric_candidate",
]


# The names a module imports only for others to read from it, as its comments say.
REEXPORTS = {
    "grid.py": {"NBox", "GridError", "corner_sign"},
    "lp.py": {"LPError"},
}


def _unused_imports(path: Path) -> set[str]:
    """The names ``path`` imports and never reads, quoted annotations counted as reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    # Arguments and assignments have an ``annotation``, functions ``returns``.
    annotations = [
        getattr(n, slot) for n in ast.walk(tree) for slot in ("annotation", "returns")
        if getattr(n, slot, None) is not None
    ]
    quoted = [
        ast.parse(n.value, mode="eval")
        for a in annotations
        for n in ast.walk(a) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses() -> None:
    # A deleted routine takes its imports with it; only the documented re-exports stay unread.
    modules = sorted((SRC / "qcmass").glob("*.py"))
    assert {p.name for p in modules} >= {"__init__.py", "box.py", "cli.py", "grid.py", "lp.py"}
    unused = {p.name: _unused_imports(p) - REEXPORTS.get(p.name, set()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_check_sees_a_stale_import(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from bisect import bisect_right\n"
        "from typing import Mapping, Sequence as Seq\n"
        "def f(x: 'Mapping[int, int]') -> Seq:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(path) == {"bisect_right"}


def _fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports qcmass from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set[str]:
    """The qcmass modules loaded once ``code`` has run in a fresh interpreter."""
    out = _fresh(textwrap.dedent(code) + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    return {m for m in json.loads(out.splitlines()[-1]) if m.startswith("qcmass")}


def test_import_qcmass_loads_no_submodule() -> None:
    assert _loaded("import qcmass") == {"qcmass"}


def test_import_cli_loads_neither_half() -> None:
    assert _loaded("import qcmass.cli") == {
        "qcmass", "qcmass.box", "qcmass.cli", "qcmass.rational",
    }


def test_lazy_exports_are_the_submodules_objects() -> None:
    out = _fresh("""
        import importlib, json, qcmass
        for name in qcmass.__all__:
            value = getattr(qcmass, name)
            modules = [importlib.import_module(f"qcmass.{m}")
                       for m in ("box", "grid", "lp", "rational", "simplex")]
            # Every submodule that binds the name binds this very object.
            bound = [getattr(m, name) for m in modules if hasattr(m, name)]
            assert bound and all(b is value for b in bound), name
        print(json.dumps(qcmass.__all__))
    """)
    assert json.loads(out) == PUBLIC


def test_star_import_and_dir_list_every_export() -> None:
    out = _fresh("""
        import json
        namespace = {}
        exec("from qcmass import *", namespace)
        import qcmass
        print(json.dumps([sorted(set(qcmass.__all__) - set(namespace)),
                          sorted(set(qcmass.__all__) - set(dir(qcmass)))]))
    """)
    assert json.loads(out) == [[], []]


def test_unknown_name_raises_attribute_error() -> None:
    out = _fresh("""
        import qcmass, qcmass.cli
        for module in (qcmass, qcmass.cli):
            try:
                module.no_such_name
            except AttributeError as exc:
                print(exc)
            print(hasattr(module, "no_such_name"))
    """)
    assert out.splitlines() == [
        "module 'qcmass' has no attribute 'no_such_name'", "False",
        "module 'qcmass.cli' has no attribute 'no_such_name'", "False",
    ]


def test_submodules_are_attributes_of_the_package() -> None:
    out = _fresh("""
        import importlib, qcmass
        for m in ("box", "grid", "lp", "rational", "simplex"):
            assert getattr(qcmass, m) is importlib.import_module(f"qcmass.{m}"), m
        print("ok")
    """)
    assert out == "ok\n"


def test_lp_box_is_the_grid_box() -> None:
    out = _fresh("""
        from qcmass import build_extremal_lp, solution_to_assignment, solve
        from qcmass.grid import NBox, GridError, corner_sign
        import qcmass.box, qcmass.lp, qcmass.simplex
        lp, layout = build_extremal_lp(2, "min")
        box = solution_to_assignment(layout, solve(lp)).box
        assert type(box) is NBox and box == NBox(box.intervals)
        assert qcmass.lp.NBox is qcmass.simplex.NBox is NBox is qcmass.box.NBox
        assert qcmass.box.GridError is GridError and qcmass.box.corner_sign is corner_sign
        print(box.intervals)
    """)
    assert out == "((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3)))\n"


def test_lp_error_loads_with_the_box_alone() -> None:
    out = _fresh("""
        import json, sys
        from qcmass.box import LPError
        loaded = sorted(m for m in sys.modules if m.startswith("qcmass"))
        import qcmass, qcmass.lp
        assert qcmass.LPError is qcmass.lp.LPError is qcmass.box.LPError is LPError
        print(json.dumps(loaded))
    """)
    assert json.loads(out) == ["qcmass", "qcmass.box"]


def test_cli_binds_only_the_package_exports() -> None:
    # Each name a command binds on qcmass.cli comes from the package's one
    # export table and is the package's object.
    out = _fresh("""
        import json, qcmass
        from qcmass import cli
        before = set(vars(cli))
        runs = sorted(name for name in before if name.startswith("run_"))
        assert cli.run_extremize(2, "min", "text", None).exit_code == 0
        assert cli.run_conjecture(3).exit_code == 0
        assert cli.run_check_witness(4, "both").exit_code == 0
        assert cli.run_verify("q1", None).exit_code == 0
        assert cli.run_volume("q1", None, "0:1,0:1,0:1,0:1").exit_code == 0
        assert cli.run_margin("q2", None, 1, "csv").exit_code == 0
        gained = set(vars(cli)) - before
        for name in gained:
            assert getattr(cli, name) is getattr(qcmass, name), name
        for name in qcmass._HOME:
            assert getattr(cli, name) is getattr(qcmass, name), name
        print(json.dumps([runs, sorted(gained)]))
    """)
    runs, gained = json.loads(out)
    assert runs == [
        "run_check_witness", "run_conjecture", "run_extremize",
        "run_margin", "run_verify", "run_volume",
    ]
    halves = ("grid", "lp", "simplex")
    assert gained == sorted(name for m in halves for name in qcmass._EXPORTS[m])


def test_grid_commands_load_no_lp_half(tmp_path: Path) -> None:
    path = tmp_path / "margin.json"
    path.write_text(grid_to_json(marginalize(builtin_grid("q1"), 0)))
    loaded = _loaded(f"""
        from qcmass import cli
        assert cli.run_verify("q1", None).exit_code == 0
        assert cli.run_verify(None, {str(path)!r}).exit_code == 0
        assert cli.run_volume("q1", None, "3/7:6/7,3/7:6/7,3/7:6/7,3/7:6/7").exit_code == 0
        assert cli.run_margin("q2", None, 1, "csv").exit_code == 0
    """)
    assert "qcmass.grid" in loaded
    assert not loaded & set(LP_HALF)


def test_grid_command_errors_exit_2_without_the_lp_half() -> None:
    loaded = _loaded("""
        from click.testing import CliRunner
        from qcmass import cli
        result = CliRunner().invoke(cli.main, ["volume", "--example", "q1", "--box", "0:2"])
        assert result.exit_code == 2 and result.output.startswith("error: "), result.output
    """)
    assert not loaded & set(LP_HALF)


def test_lp_commands_load_no_grid() -> None:
    loaded = _loaded("""
        from qcmass import cli
        assert cli.run_extremize(2, "min", "text", None).exit_code == 0
        assert cli.run_conjecture(3).exit_code == 0
        assert cli.run_check_witness(4, "both").exit_code == 0
    """)
    assert set(LP_HALF) <= loaded
    assert "qcmass.grid" not in loaded


def test_lp_command_errors_exit_2_without_grid() -> None:
    loaded = _loaded("""
        from click.testing import CliRunner
        from qcmass import cli
        for args in (["conjecture", "--max-dim", "1"], ["check-witness", "-n", "5"]):
            result = CliRunner().invoke(cli.main, args)
            assert result.exit_code == 2 and result.output.startswith("error: "), result.output
    """)
    assert "qcmass.grid" not in loaded


def test_tracer_reads_every_wrapped_name_before_any_command() -> None:
    # The names the benchmark's span recorder reads and replaces on qcmass.cli.
    out = _fresh(f"""
        import sys
        sys.path.insert(0, {str(BENCHMARKS)!r})
        from spans import _CLI_NAMES
        from qcmass import cli
        for name in _CLI_NAMES:
            assert callable(getattr(cli, name)), name
        print(len(_CLI_NAMES))
    """)
    assert out == "9\n"


def test_wrappers_set_before_any_command_see_its_calls(tmp_path: Path) -> None:
    path = tmp_path / "q2.json"
    path.write_text(grid_to_json(builtin_grid("q2")))
    out = _fresh(f"""
        from collections import Counter
        from qcmass import cli
        calls = Counter()

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            setattr(cli, name, wrapper)

        counting("solve")
        counting("grid_from_json")
        assert cli.run_extremize(2, "min", "text", None).exit_code == 0
        assert cli.run_verify(None, {str(path)!r}).exit_code == 0
        print(calls["solve"], calls["grid_from_json"])
    """)
    assert out == "1 1\n"
