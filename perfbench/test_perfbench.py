"""Tests of the benchmark itself: seeding, the metric catalogue, the
output checks, and a tiny-size smoke run of every workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bench
import closed
import run
import serve_mix

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "lambda-solve": closed.PhageLambda(max_monomer=3, max_dimer=1),
    "toggle-sweep": closed.ToggleSweep(max_protein=8, points=4, batch=2),
    # Enough requests in the smoke run's half second to meet
    # serve_mix.MIN_REQUESTS.
    "serve-mix": serve_mix.ServeMix(
        rate_per_s=serve_mix.MIN_REQUESTS / 0.5, repeat_set=2,
        models=(
            serve_mix.ModelSpec("toggle_switch", (("max_protein", 6),),
                                0.4, "degA"),
            serve_mix.ModelSpec("brusselator", (("max_x", 8), ("max_y", 4)),
                                0.25, "drain"),
            serve_mix.ModelSpec("schnakenberg", (("max_x", 8), ("max_y", 4)),
                                0.25, "decX"),
            serve_mix.ModelSpec("phage_lambda",
                                (("max_monomer", 3), ("max_dimer", 1)),
                                0.1, "degCI"),
        )),
    "lambda-fsp": closed.PhageLambda(max_monomer=3, max_dimer=1),
}

#: The one validity flag a tiny serve-mix run may raise: its solves end
#: within one interpreter switch interval, so the generator's own
#: lateness can be the tail.
LATE_FLAG = "generator lateness"


def test_same_seed_same_arrivals_conditions_and_tenants():
    cfg = serve_mix.ServeMix()
    first = serve_mix.schedule(cfg, 7, 25.0)
    assert first == serve_mix.schedule(cfg, 7, 25.0)
    assert first != serve_mix.schedule(cfg, 8, 25.0)
    assert closed.sweep_grid(closed.ToggleSweep(), 7) == \
        closed.sweep_grid(closed.ToggleSweep(), 7)
    assert closed.sweep_grid(closed.ToggleSweep(), 7) != \
        closed.sweep_grid(closed.ToggleSweep(), 8)


def test_schedule_offers_the_stated_mix_exactly():
    cfg = serve_mix.ServeMix()
    arrivals = serve_mix.schedule(cfg, 3, 25.0)
    n = len(arrivals)
    assert n == round(cfg.rate_per_s * 25.0) >= serve_mix.MIN_REQUESTS
    assert all(a.at <= b.at for a, b in zip(arrivals, arrivals[1:]))
    models = np.bincount([a.model for a in arrivals],
                         minlength=len(cfg.models))
    for count, spec in zip(models, cfg.models):
        assert abs(count - spec.share * n) < 1
    gold = sum(a.tenant == "gold" for a in arrivals)
    assert abs(gold - n * 10 / 11) < 1
    repeats = [a for a in arrivals if a.repeat]
    assert abs(len(repeats) - n / 2) <= len(cfg.models)
    keys = {(a.model, a.multiplier) for a in repeats}
    assert len(keys) == len(cfg.models) * cfg.repeat_set
    uniques = [a.multiplier for a in arrivals if not a.repeat]
    assert len(set(uniques)) == len(uniques)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in run.WORKLOADS if name != "serve-mix"]
    for key, catalogue in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert listed == catalogue
    assert not set(bench.WORKLOAD_ONLY) & set(bench.PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_checker_rejects_a_wrong_answer():
    from repro import build_rate_matrix, enumerate_state_space, \
        solve_steady_state, toggle_switch

    net = toggle_switch(max_protein=6)
    result = solve_steady_state(net, damping=0.9)
    checker = bench.Checker(build_rate_matrix(enumerate_state_space(net)))
    report = bench.Report()
    assert checker.check(report, "good", result.x, tol=1e-8) <= 1e-8
    assert report.correct and report.failed == 0
    uniform = np.full_like(result.x, 1.0 / result.x.size)
    assert checker.check(report, "uniform", uniform, tol=1e-8) is None
    assert not report.correct and report.failed == 1
    report = bench.Report()
    report.fail("stopped early")
    assert report.correct and bench.ok_frac(report) == 0.0


def test_fallbacks_count_dispatches_another_backend_served(monkeypatch):
    from repro import backends

    before = backends.kernel_stats()
    backends.serving("", "jacobi_sweep")
    assert bench.fallbacks(before) == 0
    monkeypatch.setattr(backends, "resolve",
                        lambda backend=None: SimpleNamespace(name="other"))
    assert bench.fallbacks(before) == 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_smoke(name, trace):
    report = run.run_workload(name, seed=1, seconds=0.5, trace=trace,
                              config=TINY[name])
    if name == "serve-mix":
        assert all(p.startswith(LATE_FLAG) for p in report.problems), \
            report.problems
    else:
        assert report.correct, report.problems
    assert report.attempted >= 1 and report.failed == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(report.metrics) == list(expected)
    assert all(math.isfinite(v) for v in report.metrics.values())
    line = json.loads(run.result_line(report, expected))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(report.extra) <= set(bench.WORKLOAD_ONLY)
    if trace:
        assert all(report.metrics[name] > 0 for name, (unit, _) in
                   bench.PER_LAYER.items() if unit in ("s", "us"))
    else:
        assert report.metrics["ok_frac"] == 1.0
        assert report.metrics["latency_p50_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lambda-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
