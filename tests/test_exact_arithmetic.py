"""No floating point anywhere in the package: a static check of its source.

Every quantity is a ``Fraction`` or an ``int``.  This parses each module of
``qcmass`` and fails on a float literal, a ``float(...)`` or ``round(...)``
call, or a ``math`` import other than the integer helpers ``gcd``, ``lcm``
and ``prod``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qcmass").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "prod"}


def float_uses(source: str) -> list[str]:
    """One line per float literal, float()/round() call or non-integer math import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {line}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append(f"line {line}: call to {node.func.id}()")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math" or alias.name.startswith("math."):
                    found.append(f"line {line}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    found.append(f"line {line}: from math import {alias.name}")
    return found


def test_package_sources_found() -> None:
    assert {p.name for p in SOURCES} >= {"grid.py", "lp.py", "simplex.py", "rational.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path: Path) -> None:
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "y = float(x)",
        "y = round(x)",
        "import math",
        "import math as m",
        "from math import sqrt",
        "from math import gcd, floor",
    ],
)
def test_check_catches(source: str) -> None:
    assert len(float_uses(source)) == 1


def test_check_allows_integer_math() -> None:
    assert float_uses("from math import gcd, lcm, prod\nx = 1 // 2\ny = 'float(x)'") == []
