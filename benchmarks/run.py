"""The qcmass benchmark: one command, four workloads, exact output checks.

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Workloads (reasons in BENCHMARK.json):
``extremize``, ``conjecture``, ``grid-verify`` and ``grid-query``.  Each op
is one in-process call of a public ``qcmass.cli.run_*`` function, the code
path ``qcmass <command>`` runs, made from a single-threaded closed loop.

1. ``gen.py`` writes the seeded inputs and their expected answers into a
   temporary directory under ``benchmarks/out`` (its own process, so its
   memory stays out of ``peak_rss_mb``).
2. ``--trace 0`` times eleven set-up probes (``probe.py``: start, import
   qcmass.cli, warm up, exit) and reports the median as ``setup_s``.
3. The workload's fixed op list (one sweep) is run again and again for
   ``--seconds`` seconds, at least once; every result is checked exactly
   after its sweep.  ``wall_s`` is the median sweep time, ``op_p50_ms`` and
   ``op_p90_ms`` are over every op of every sweep.
4. ``--trace 1`` then runs one more sweep with span recorders installed and
   reports per-layer metrics instead; ``trace.overhead_ratio`` is that
   sweep's wall time over the untraced median.

The times of steps 2 and 3 are reported at a reference host speed, as
``speed.py`` explains: the host's own speed changes by more than the
regression bounds while a run lasts.  The raw wall times are in the record
file.  Per-layer times (step 4) are raw.

Every run also writes ``benchmarks/out/<workload>-trace<0|1>.json``: seed,
Python version, nproc and git commit, the metrics, every op latency, and
for a traced run every span.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any set-up error exits non-zero
before that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from program import ROOT, load_cli, warm_up
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("extremize", "conjecture", "grid-verify", "grid-query")
SETUP_PROBES = 11
# Speed samples taken just before and just after each set-up probe.
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 120


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time of the probes: (at the reference speed, raw)."""
    speed = SpeedSampler()
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        speed.burst(SETUP_SAMPLES)
        t0 = time.perf_counter()
        # No timeout here: Popen.wait polls with up to 50 ms sleeps when given
        # one, which would quantize the sample.
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT, check=True)
        t1 = time.perf_counter()
        speed.burst(SETUP_SAMPLES)
        ref.append(speed.reference_seconds(t0, t1))
        raw.append(t1 - t0)
    return statistics.median(ref), statistics.median(raw)


def _op_call(cli, op: dict):
    """The cli function and arguments of one op."""
    cmd = op["cmd"]
    if cmd == "extremize":
        return cli.run_extremize, (op["n"], op["direction"], op["format"], None)
    if cmd == "conjecture":
        return cli.run_conjecture, (op["max_dim"],)
    if cmd == "verify":
        return cli.run_verify, (op["example"], op["file"])
    if cmd == "margin":
        return cli.run_margin, (op["example"], op["file"], op["drop_axis"], "csv")
    return cli.run_volume, (op["example"], op["file"], op["box"])


class Runner:
    def __init__(self, cli, ops: list[dict], checker) -> None:
        self.cli, self.ops, self.checker = cli, ops, checker
        self.sweep_latencies_ms: list[list[float]] = []
        self.sweeps_s: list[float] = []
        # perf_counter intervals of each untraced sweep and of each of its ops.
        self.sweep_spans: list[tuple[float, float]] = []
        self.op_spans: list[list[tuple[float, float]]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def sweep(self, recorder=None) -> float:
        """Run every op once, then check the results; return the sweep's wall time."""
        results = []
        t_sweep = time.perf_counter()
        for op in self.ops:
            fn, args = _op_call(self.cli, op)
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = fn(*args)
                else:
                    result = recorder.call(f"cli.run_{op['cmd']}", fn, *args)
            except Exception as exc:  # an op that raises counts as failed
                result = exc
            results.append((result, (t0, time.perf_counter())))
        t_end = time.perf_counter()
        wall = t_end - t_sweep
        if recorder is None:
            self.sweep_spans.append((t_sweep, t_end))
            self.op_spans.append([span for _, span in results])
        for op, (result, _) in zip(self.ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                reason = f"raised {type(result).__name__}: {result}"
            else:
                try:
                    reason = self.checker(op, result)
                except Exception as exc:  # output too malformed to parse
                    reason = f"unreadable output ({type(exc).__name__}: {exc})"
            if reason is not None:
                self.failures.append(f"{_describe(op)}: {reason}")
        return wall

    def run_for(self, seconds: float, speed: SpeedSampler) -> None:
        """Sweep until starting another would overrun ``seconds``; at least once.

        Afterwards ``sweeps_s`` holds each sweep's raw wall time less the
        speed sampling inside it, and ``sweep_latencies_ms`` every op's time
        at the reference speed.
        """
        t0 = time.perf_counter()
        with speed:
            while True:
                wall = self.sweep()
                if time.perf_counter() - t0 + wall > seconds:
                    break
        for (s0, s1), intervals in zip(self.sweep_spans, self.op_spans):
            self.sweeps_s.append(s1 - s0 - speed.sampled_inside(s0, s1))
            self.sweep_latencies_ms.append(
                [speed.reference_seconds(a, b) * 1e3 for a, b in intervals])


def _describe(op: dict) -> str:
    shown = dict(op, file=Path(op["file"]).name if op.get("file") else None)
    keys = ("n", "direction", "example", "file", "drop_axis", "box")
    return " ".join([op["cmd"]] + [f"{k}={shown[k]}" for k in keys if shown.get(k) is not None])


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; every time is at the reference speed."""
    lat_ms = [x for sweep in runner.sweep_latencies_ms for x in sweep]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(sweep) / 1e3 for sweep in runner.sweep_latencies_ms), "s"),
        "op_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "op_p90_ms": (_percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _declared_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description="qcmass benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    from checks import Checker

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", tmp],
            cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
        )
        ops = json.loads((Path(tmp) / "manifest.json").read_text())["ops"]
        setup_s, setup_raw_s = (None, None) if args.trace else _setup_seconds(args.workload)
        warm_up(cli, args.workload)
        runner = Runner(cli, ops, Checker())
        runner.run_for(args.seconds, SpeedSampler())
        if args.trace:
            import spans
            from qcmass import grid

            recorder = spans.Recorder()
            with spans.installed(recorder, cli, grid):
                traced_wall = runner.sweep(recorder)
            overhead = traced_wall / statistics.median(runner.sweeps_s)
            metrics = spans.layer_metrics(recorder, overhead)
        else:
            metrics = _end_to_end(runner, setup_s)

    failed = len(runner.failures)
    print(f"# qcmass benchmark {json.dumps(meta, sort_keys=True)}")
    print(f"# {len(ops)} ops per sweep; untraced sweeps took"
          f" {', '.join(f'{s:.3f}' for s in runner.sweeps_s)} s raw")
    for reason in runner.failures[:20]:
        print(f"# FAIL {reason}")
    record = {"meta": meta, "metrics": metrics, "raw_setup_s": setup_raw_s,
              "raw_sweeps_s": runner.sweeps_s,
              "raw_op_ms": [[(b - a) * 1e3 for a, b in sweep] for sweep in runner.op_spans],
              "reference_op_ms": runner.sweep_latencies_ms, "failures": runner.failures}
    if args.trace:
        for line in spans.layer_table(recorder):
            print(f"# {line}")
        record.update(span_names=recorder.names, span_columns=["parent", "name", "start_ms", "duration_ms"],
                      spans=recorder.span_rows())
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    samples = sum(len(sweep) for sweep in runner.sweep_latencies_ms)
    for name, (value, unit) in metrics.items():
        note = f"  (over {samples} ops)" if name.startswith("op_p") else ""
        if name == "grid.make_grid_qc.nodes_read_share":
            note = "  (upper bound: evaluate calls x 2^n / nodes built)"
        print(f"# {name:40} {value:>14.4f} {unit}{note}")
    if not args.trace:
        print(f"# {'fail_ratio':40} {failed / runner.attempted:>14.4f} ratio"
              f"  ({failed} of {runner.attempted} ops)")
    if sorted(metrics) != sorted(_declared_names(args.trace)):
        raise SystemExit("reported metrics differ from those BENCHMARK.json declares")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
