"""Exact-rational toolkit for the extreme masses quasi-copulas place on boxes.

Two halves, sharing one arithmetic (``fractions.Fraction`` everywhere):

* :mod:`qcmass.grid` represents piecewise-uniform signed mass grids on the
  unit cube, evaluates the functions they induce, verifies the quasi-copula
  axioms exactly, and bundles the two known 4-dimensional extreme examples;
* :mod:`qcmass.lp` and :mod:`qcmass.simplex` pose the linear relaxation of
  "how much mass can an n-quasi-copula give one box" and solve it with an
  exact two-phase simplex whose optima are certified independently.

``qcmass.cli`` wires both into a deterministic command line tool.
"""

from .grid import (
    AxiomReport,
    AxisPartition,
    GridError,
    GridQuasiCopula,
    MassGrid,
    NBox,
    Violation,
    builtin_example,
    builtin_grid,
    corner_sign,
    grid_from_json,
    grid_payload,
    grid_to_json,
    make_grid_qc,
    marginalize,
)
from .lp import (
    ExtremalLayout,
    FeasibilityReport,
    LinearProgram,
    LPError,
    Row,
    RowViolation,
    VertexAssignment,
    assignment_vector,
    build_extremal_lp,
    build_symmetric_lp,
    candidate_pattern,
    check_assignment,
    check_point,
    conjectured_bound,
    conjectured_box,
    export_lp,
    lift_symmetric,
    parse_lp,
    reference_witness,
    symmetric_candidate,
)
from .rational import RationalParseError, format_rational, parse_rational
from .simplex import (
    CertificateReport,
    SimplexSolution,
    SolveStats,
    certify,
    solution_to_assignment,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AxisPartition",
    "CertificateReport",
    "ExtremalLayout",
    "FeasibilityReport",
    "GridError",
    "GridQuasiCopula",
    "LPError",
    "LinearProgram",
    "MassGrid",
    "NBox",
    "RationalParseError",
    "Row",
    "RowViolation",
    "SimplexSolution",
    "SolveStats",
    "VertexAssignment",
    "Violation",
    "assignment_vector",
    "build_extremal_lp",
    "build_symmetric_lp",
    "builtin_example",
    "builtin_grid",
    "candidate_pattern",
    "certify",
    "check_assignment",
    "check_point",
    "conjectured_bound",
    "conjectured_box",
    "corner_sign",
    "export_lp",
    "format_rational",
    "grid_from_json",
    "grid_payload",
    "grid_to_json",
    "lift_symmetric",
    "make_grid_qc",
    "marginalize",
    "parse_lp",
    "parse_rational",
    "reference_witness",
    "solution_to_assignment",
    "solve",
    "symmetric_candidate",
]
