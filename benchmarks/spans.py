"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: :func:`installed` swaps
the public functions ``qcmass.cli`` imports, plus the ``GridQuasiCopula``
methods, for wrappers that open a span around each call and read counts off
the returned objects, and puts the originals back afterwards.  The program
itself is not edited.  A span's self time is its duration minus the time
its child spans cover; calls run on one thread, so children nest and never
overlap.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Spans as parallel arrays (parent, name, start, end) plus per-name totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._child = array("d")
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._child.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.end[idx] = end
            self._stack.pop()
            duration = end - self.start[idx]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - self._child[idx]
            if self._stack:
                self._child[self._stack[-1]] += duration

    def span_rows(self) -> list[list]:
        """One ``[parent, name, start_ms, duration_ms]`` row per span; the id is the position."""
        t0 = self.start[0] if self.start else 0.0
        return [
            [self.parent[i], self.names[self.name[i]],
             (self.start[i] - t0) * 1e3, (self.end[i] - self.start[i]) * 1e3]
            for i in range(len(self.start))
        ]


# Counts read from returned objects, keyed by span name.
def _solve_counts(counts, args, solution) -> None:
    counts["simplex.solve.pivots"] += solution.pivots
    counts["simplex.solve.peak_den_bits"] = max(
        counts["simplex.solve.peak_den_bits"], solution.peak_denominator_bits
    )
    if solution.status == "optimal":
        counts["simplex.solve.rows_dropped"] += len(args[0].rows) - len(solution.kept_rows)


def _certify_counts(counts, args, report) -> None:
    counts["simplex.certify.passes"] += report.ok


def _build_counts(counts, args, result) -> None:
    counts["lp.rows_built"] += len(result[0].rows)


def _check_counts(counts, args, report) -> None:
    counts["lp.check_assignment.feasible"] += report.feasible


def _nodes_counts(counts, args, qc) -> None:
    counts["grid.make_grid_qc.nodes"] += len(qc.node_values)


def _axiom_counts(counts, args, report) -> None:
    counts["grid.violations"] += len(report.violations)


def _envelope_counts(counts, args, violations) -> None:
    counts["grid.violations"] += len(violations)


def _evaluate_counts(counts, args, value) -> None:
    # Interpolation reads at most the 2^n nodes of one cell.
    counts["grid.evaluate.node_reads_bound"] += 2 ** len(args[1])


_INSPECT = {
    "simplex.solve": _solve_counts,
    "simplex.certify": _certify_counts,
    "lp.build_extremal_lp": _build_counts,
    "lp.check_assignment": _check_counts,
    "grid.make_grid_qc": _nodes_counts,
    "grid.verify_axioms": _axiom_counts,
    "grid.frechet_envelope_check": _envelope_counts,
    "grid.evaluate": _evaluate_counts,
}

# Module attributes to wrap: the names qcmass.cli imports, and the same
# functions where qcmass.grid calls them itself (builtin_example builds its
# grids with make_grid_qc, grid_from_json parses with parse_rational).
_CLI_NAMES = (
    "build_extremal_lp", "solve", "certify", "solution_to_assignment",
    "check_assignment", "grid_from_json", "make_grid_qc", "marginalize",
    "parse_rational",
)
_GRID_NAMES = ("make_grid_qc", "parse_rational")
_METHODS = ("verify_axioms", "frechet_envelope_check", "box_volume", "evaluate")


def _wrap(rec: Recorder, name: str, fn):
    inspect = _INSPECT.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if inspect is not None:
            inspect(rec.counts, args, result)
        return result

    return traced


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def installed(rec: Recorder, cli, grid_module):
    """Wrap the traced functions for the duration of the block."""
    targets = [(cli, n) for n in _CLI_NAMES] + [(grid_module, n) for n in _GRID_NAMES]
    targets += [(grid_module.GridQuasiCopula, n) for n in _METHODS]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    wrappers: dict[int, object] = {}
    try:
        for owner, attr, fn in saved:
            if id(fn) not in wrappers:
                name = f"grid.{attr}" if isinstance(owner, type) else _layer_name(fn)
                wrappers[id(fn)] = _wrap(rec, name, fn)
            setattr(owner, attr, wrappers[id(fn)])
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


COMMANDS = ("extremize", "conjecture", "verify", "margin", "volume")


def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sweep: name -> (value, unit)."""
    self_ms = {k: v * 1e3 for k, v in rec.self_s.items()}
    calls, counts = rec.calls, rec.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["simplex.certify.ms"] = (self_ms.get("simplex.certify", 0.0), "ms")
    m["simplex.certify.calls"] = (calls["simplex.certify"], "count")
    m["simplex.certify.pass_ratio"] = (
        ratio(counts["simplex.certify.passes"], calls["simplex.certify"]), "ratio")
    m["simplex.solve.ms"] = (self_ms.get("simplex.solve", 0.0), "ms")
    m["simplex.solve.calls"] = (calls["simplex.solve"], "count")
    m["simplex.solve.pivots"] = (counts["simplex.solve.pivots"], "count")
    m["simplex.solve.ms_per_pivot"] = (
        ratio(self_ms.get("simplex.solve", 0.0), counts["simplex.solve.pivots"]), "ms")
    m["simplex.solve.peak_den_bits"] = (counts["simplex.solve.peak_den_bits"], "bits")
    m["simplex.solve.rows_dropped"] = (counts["simplex.solve.rows_dropped"], "count")
    m["simplex.solution_to_assignment.ms"] = (
        self_ms.get("simplex.solution_to_assignment", 0.0), "ms")
    m["lp.build_extremal_lp.ms"] = (self_ms.get("lp.build_extremal_lp", 0.0), "ms")
    m["lp.rows_built"] = (counts["lp.rows_built"], "count")
    m["lp.check_assignment.ms"] = (self_ms.get("lp.check_assignment", 0.0), "ms")
    m["lp.check_assignment.feasible_ratio"] = (
        ratio(counts["lp.check_assignment.feasible"], calls["lp.check_assignment"]), "ratio")
    m["grid.verify_axioms.ms"] = (self_ms.get("grid.verify_axioms", 0.0), "ms")
    m["grid.verify_axioms.calls"] = (calls["grid.verify_axioms"], "count")
    m["grid.frechet_envelope_check.ms"] = (
        self_ms.get("grid.frechet_envelope_check", 0.0), "ms")
    m["grid.violations"] = (counts["grid.violations"], "count")
    m["grid.marginalize.ms"] = (self_ms.get("grid.marginalize", 0.0), "ms")
    m["grid.make_grid_qc.ms"] = (self_ms.get("grid.make_grid_qc", 0.0), "ms")
    m["grid.make_grid_qc.nodes"] = (counts["grid.make_grid_qc.nodes"], "count")
    # An upper bound: evaluate calls x 2^n over nodes built, not nodes actually read.
    m["grid.make_grid_qc.nodes_read_share"] = (
        ratio(counts["grid.evaluate.node_reads_bound"], counts["grid.make_grid_qc.nodes"]),
        "ratio_ub")
    m["grid.box_volume.ms"] = (self_ms.get("grid.box_volume", 0.0), "ms")
    m["grid.box_volume.calls"] = (calls["grid.box_volume"], "count")
    m["grid.evaluate.ms"] = (self_ms.get("grid.evaluate", 0.0), "ms")
    m["grid.evaluate.calls"] = (calls["grid.evaluate"], "count")
    m["grid.grid_from_json.ms"] = (self_ms.get("grid.grid_from_json", 0.0), "ms")
    m["rational.parse_rational.ms"] = (self_ms.get("rational.parse_rational", 0.0), "ms")
    m["rational.parse_rational.calls"] = (calls["rational.parse_rational"], "count")
    for command in COMMANDS:
        name = f"cli.run_{command}"
        m[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def layer_table(rec: Recorder) -> list[str]:
    """Calls, total and self time per span name, largest self time first."""
    lines = [f"{'span':36} {'calls':>8} {'total_ms':>12} {'self_ms':>12}"]
    for name in sorted(rec.names, key=lambda k: -rec.self_s[k]):
        lines.append(
            f"{name:36} {rec.calls[name]:>8} {rec.total_s[name] * 1e3:>12.1f} "
            f"{rec.self_s[name] * 1e3:>12.1f}"
        )
    return lines
