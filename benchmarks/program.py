"""Loading the program under test from the checkout, and its warm-up.

Shared by the benchmark process and by the set-up probe, so that the probe
times exactly the set-up the benchmark does before its first timed op.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One small op per workload, run once before timing starts.
WARM_UPS = {
    "extremize": ("run_extremize", (2, "min", "text", None)),
    "conjecture": ("run_conjecture", (2,)),
    "grid-verify": ("run_verify", ("q2", None)),
    "grid-query": ("run_volume", ("q2", None, "0:1,0:1,0:1,0:1")),
}


def load_cli():
    """Import ``qcmass.cli`` from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "qcmass" / "cli.py").is_file():
        raise SystemExit(f"no qcmass sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("qcmass.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported qcmass from {cli.__file__}, not from {src}")
    return cli


def warm_up(cli, workload: str) -> None:
    fn, args = WARM_UPS[workload]
    result = getattr(cli, fn)(*args)
    if result.exit_code != 0:
        raise SystemExit(f"warm-up {fn}{args} exited {result.exit_code}")
