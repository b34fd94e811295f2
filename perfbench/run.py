"""Steady-state pipeline benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lambda-solve --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but the
workload's own calls timed; ``--trace 1`` is the separate traced run
that decomposes the same work into per-layer numbers.  Every metric is
printed by name with its unit, then the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.  Without the
program's source next to the benchmark it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload -> (the program modules a caller imports, module, runner,
#: size configuration).  BENCHMARK.json lists all but ``serve-mix``,
#: whose failure count does not repeat (see serve_mix.py).
WORKLOADS = {
    "lambda-solve": (("repro",), "closed", "run_lambda_solve", "PhageLambda"),
    "toggle-sweep": (("repro", "repro.sweep"), "closed", "run_toggle_sweep",
                     "ToggleSweep"),
    "serve-mix": (("repro", "repro.serve"), "serve_mix", "run_serve_mix",
                  "ServeMix"),
    "lambda-fsp": (("repro", "repro.fsp"), "closed", "run_lambda_fsp",
                   "PhageLambda"),
}

#: Fresh interpreters that time the program's import, next to this one.
IMPORT_SAMPLES = 4


def fresh_import_s(modules) -> float:
    """Seconds one fresh interpreter takes to import *modules*."""
    code = ("import importlib, time\n"
            "t0 = time.perf_counter()\n"
            f"for m in {list(modules)!r}:\n"
            "    importlib.import_module(m)\n"
            "print(time.perf_counter() - t0)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 config=None):
    """Import the program, run one workload, return its ``Report``.

    ``setup_s`` is the median import time of the program (this
    interpreter's and :data:`IMPORT_SAMPLES` fresh ones', half of them
    timed before the workload runs and half after, so that the median
    spans the run rather than one moment of the host) plus the
    workload's median set-up (model build, service construction, first
    calls).  *config* replaces the workload's full sizes (the smoke
    tests pass tiny ones).
    """
    modules, module, runner, default = WORKLOADS[name]
    t0 = time.perf_counter()
    for mod in modules:
        importlib.import_module(mod)
    imports = [time.perf_counter() - t0]
    if not trace:
        imports += [fresh_import_s(modules)
                    for _ in range(IMPORT_SAMPLES // 2)]

    import bench

    workload = importlib.import_module(module)
    cfg = config if config is not None else getattr(workload, default)()
    report = getattr(workload, runner)(cfg, seed=seed, seconds=seconds,
                                       trace=trace)
    if trace:
        expected = bench.PER_LAYER
    else:
        imports += [fresh_import_s(modules)
                    for _ in range(IMPORT_SAMPLES + 1 - len(imports))]
        report.metrics["setup_s"] += statistics.median(imports)
        expected = bench.END_TO_END
    missing = set(expected) - set(report.metrics)
    if missing:
        report.invalid(f"metrics not measured: {sorted(missing)}")
    report.metrics = {k: report.metrics.get(k, 0) for k in expected}
    return report


def result_line(report, units: dict) -> str:
    """The JSON result: every metric with its unit, numbers as measured."""
    metrics = {}
    for name, value in report.metrics.items():
        value = value.item() if hasattr(value, "item") else value
        if isinstance(value, float) and value != value:
            value = 0.0
        metrics[name] = {"value": value, "unit": units[name][0]}
    return json.dumps({"correct": report.correct,
                       "attempted": report.attempted,
                       "failed": report.failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src}/repro); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    report = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace))
    import bench

    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    for name, value in report.metrics.items():
        unit, better = units[name]
        print(f"{name:26s} {value:>16.6g} {unit:10s} ({better} is better)")
    for name, value in report.extra.items():
        unit, better = bench.WORKLOAD_ONLY[name]
        print(f"{name:26s} {value:>16.6g} {unit:10s} ({better} is better;"
              " this workload only)")
    print(f"{'latency samples':26s} {report.latency_samples:>16d}")
    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(result_line(report, units))
    return 0 if report.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
