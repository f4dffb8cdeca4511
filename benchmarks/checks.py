"""Exact checks of one op's result against the manifest's expectation.

Each check returns ``None`` when the result is right and a one-line reason
otherwise.  They run between sweeps, outside every timed span.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

VERIFY_CHECKS = (
    "grounded", "uniform-margins", "monotone", "lipschitz", "frechet-envelope", "total-mass",
)


class Checker:
    def __init__(self) -> None:
        # Imported here, after the benchmark has put the checkout's src first.
        from qcmass.grid import NBox
        from qcmass.lp import VertexAssignment, build_extremal_lp, check_assignment

        self._nbox = NBox
        self._assignment = VertexAssignment
        self._build = build_extremal_lp
        self._check_assignment = check_assignment
        self._programs: dict[tuple[int, str], tuple] = {}

    def __call__(self, op: dict, result) -> str | None:
        return getattr(self, "_" + op["cmd"])(op, result)

    def _extremize(self, op: dict, result) -> str | None:
        if result.exit_code != 0:
            return f"exit {result.exit_code}"
        n = op["n"]
        if op["format"] == "json":
            payload = json.loads(result.output)
            optimum, certificate = payload["optimum"], payload["certificate"]
            box = [tuple(iv) for iv in payload["box"]]
            values = payload["vertex_values"]
        else:
            optimum = certificate = None
            box, values = [], {}
            for line in result.output.splitlines():
                key, _, rest = line.partition(" ")
                if key == "optimum":
                    optimum = rest
                elif key == "certificate":
                    certificate = rest
                elif key == "box":
                    lo, hi = rest.split("[", 1)[1].rstrip("]").split(", ")
                    box.append((lo, hi))
                elif key == "vertex":
                    name, value = rest.split()
                    values[name.removeprefix("q_")] = value
        if optimum != op["expect"]:
            return f"optimum {optimum}, expected {op['expect']}"
        if certificate != "pass":
            return f"certificate {certificate}"
        if len(box) != n or len(values) != 2**n:
            return "output lacks the box or the corner values"
        key = (n, op["direction"])
        if key not in self._programs:
            self._programs[key] = self._build(n, op["direction"])
        lp, layout = self._programs[key]
        corners = {
            flags: Fraction(values["".join("u" if f else "l" for f in flags)])
            for flags in product((False, True), repeat=n)
        }
        box_value = self._nbox(tuple((Fraction(lo), Fraction(hi)) for lo, hi in box))
        report = self._check_assignment(lp, layout, self._assignment(box_value, corners))
        if not report.feasible:
            return f"printed optimum violates {len(report.violations)} rows"
        if report.objective_value != Fraction(op["expect"]):
            return f"printed corners give {report.objective_value}"
        return None

    def _conjecture(self, op: dict, result) -> str | None:
        if result.exit_code != 0:
            return f"exit {result.exit_code}"
        return None if result.output == op["expect"] else "table differs from README"

    def _verify(self, op: dict, result) -> str | None:
        expect = op["expect"]
        if result.exit_code != expect["exit"]:
            return f"exit {result.exit_code}, expected {expect['exit']}"
        status: dict[str, str] = {}
        kinds: dict[str, int] = {}
        verdict = None
        for line in result.output.splitlines():
            head, _, rest = line.partition(" ")
            if head == "violation":
                kind = rest.split()[0]
                kinds[kind] = kinds.get(kind, 0) + 1
            elif head == "verdict":
                verdict = rest
            else:
                status[head] = rest
        failing = sorted(c for c in VERIFY_CHECKS if status.get(c) == "fail")
        if set(status) != set(VERIFY_CHECKS):
            return f"check lines {sorted(status)}"
        if failing != expect["failing"]:
            return f"failing checks {failing}, expected {expect['failing']}"
        if verdict != ("pass" if expect["exit"] == 0 else "fail"):
            return f"verdict {verdict}"
        if set(kinds) != set(expect["kinds"]):
            return f"violation kinds {sorted(kinds)}, expected {sorted(expect['kinds'])}"
        for kind, count in expect["kinds"].items():
            if count is not None and kinds[kind] != count:
                return f"{kinds[kind]} {kind} violations, expected {count}"
        return None

    def _margin(self, op: dict, result) -> str | None:
        if result.exit_code != 0:
            return f"exit {result.exit_code}"
        if hashlib.sha256(result.output.encode()).hexdigest() != op["expect_sha256"]:
            lines = result.output.count("\n")
            return f"margin csv differs ({lines} lines, expected {op['expect_lines']})"
        return None

    def _volume(self, op: dict, result) -> str | None:
        if result.exit_code != 0:
            return f"exit {result.exit_code}"
        if result.output != op["expect"] + "\n":
            return f"volume {result.output.strip()}, expected {op['expect']}"
        return None
