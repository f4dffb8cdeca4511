"""Exact-rational toolkit for the extreme masses quasi-copulas place on boxes.

Two halves, sharing one arithmetic (``fractions.Fraction`` everywhere):

* :mod:`qcmass.grid` represents piecewise-uniform signed mass grids on the
  unit cube, evaluates the functions they induce, verifies the quasi-copula
  axioms exactly, and bundles the two known 4-dimensional extreme examples;
* :mod:`qcmass.lp` and :mod:`qcmass.simplex` pose the linear relaxation of
  "how much mass can an n-quasi-copula give one box" and solve it with an
  exact two-phase simplex whose optima are certified independently.

``qcmass.cli`` wires both into a deterministic command line tool.  The
halves share only :mod:`qcmass.box` (boxes in the unit cube, re-exported by
:mod:`qcmass.grid`, and both error types, ``GridError`` and ``LPError``)
and :mod:`qcmass.rational`.

Every name in ``__all__`` is imported from its submodule the first time it
is read, and so is each submodule read as an attribute (``qcmass.lp``).
``import qcmass`` therefore loads no submodule, and each ``qcmass`` command,
which runs in a fresh process, loads only the half it uses.  The objects
are the submodules' own: ``qcmass.NBox is qcmass.grid.NBox``.  One table,
``_EXPORTS``, says which submodule each name lives in; ``qcmass.cli`` binds
each half's names from it too.
"""

from importlib import import_module

# The names each submodule exports from the package.  A name is imported
# the first time it is read, so ``import qcmass`` (and ``import qcmass.cli``,
# which runs this file first) loads neither half.
_EXPORTS = {
    "box": ("GridError", "LPError", "NBox", "corner_sign"),
    "grid": (
        "AxiomReport",
        "AxisPartition",
        "GridQuasiCopula",
        "MassGrid",
        "Violation",
        "builtin_example",
        "builtin_grid",
        "grid_from_json",
        "grid_to_json",
        "make_grid_qc",
        "marginalize",
    ),
    "lp": (
        "ExtremalLayout",
        "FeasibilityReport",
        "LinearProgram",
        "Row",
        "RowViolation",
        "VertexAssignment",
        "assignment_vector",
        "build_extremal_lp",
        "build_symmetric_lp",
        "check_assignment",
        "check_point",
        "conjectured_bound",
        "export_lp",
        "lift_symmetric",
        "reference_witness",
        "symmetric_candidate",
    ),
    "rational": ("RationalParseError", "format_rational", "parse_rational"),
    "simplex": (
        "CertificateReport",
        "SimplexSolution",
        "SolveStats",
        "certify",
        "solution_to_assignment",
        "solve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name, or a submodule, the first time it is read."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
