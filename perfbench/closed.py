"""The three closed-loop workloads (one client, next call after the last).

``lambda-solve`` is the paper's use: one large bandwidth-bound system
from network to landscape.  ``toggle-sweep`` is its exploratory use:
many small cache-resident conditions on the stacked multi-RHS path.
``lambda-fsp`` is the only workload that runs adaptive FSP, which
enumerates incrementally where ``lambda-solve`` enumerates at once.

Each ``run_*`` function returns a :class:`bench.Report`.  The measured
loop keeps each answer's vector and the first answer's state order;
``peak_rss_mb`` is read when the loop ends, and only then are the
checkers' matrices built and every answer checked.  Untraced runs fill
the end-to-end metrics.  Traced runs fill the per-layer metrics:
``lambda-solve`` and ``toggle-sweep`` alternate one untraced call with
one call decomposed layer by layer through the program's public
functions; ``lambda-fsp`` reads its layers from the rounds each solve
returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import bench
from bench import Checker, Report, timed

#: The front door's default tolerance, which every answer must meet.
TOL = 1e-8
#: Latency limits behind ``slo_met_frac``: one front-door solve, one
#: sweep, one certified FSP solve.
LAMBDA_SLO_S = 12.0
SWEEP_SLO_S = 6.0
FSP_SLO_S = 16.0
#: The toggle sweep's ``degA`` range, damping and iteration budget.
SWEEP_LOW, SWEEP_HIGH = 0.8, 1.5
SWEEP_DAMPING = 0.9
SWEEP_MAX_ITERATIONS = 200_000
#: The truncation bound a certified FSP answer must meet.
FSP_TOL = 1e-6


@dataclass(frozen=True)
class PhageLambda:
    """Phage lambda's buffer sizes (the paper's model at full size)."""

    max_monomer: int = 15
    max_dimer: int = 7


@dataclass(frozen=True)
class ToggleSweep:
    """The toggle switch's size and the sweep's shape."""

    max_protein: int = 40
    points: int = 16
    batch: int = 8


def _keep(report: Report, label: str, result, first: dict, states):
    """What a solve's check after the loop needs: its vector.

    ``None`` when it already failed in the loop: it stopped without
    converging, or its state order is not the first answer's.
    """
    from repro import StopReason

    if result.stop_reason is not StopReason.CONVERGED:
        report.fail(f"{label} stopped {result.stop_reason.value} "
                    f"after {result.iterations} iterations")
        return None
    if not bench.same_states(first, states):
        report.wrong(f"{label}: state order differs from the first answer's")
        return None
    return result.x


def _decomposition(report: Report, layers: dict, parts: list, traced: list,
                   untraced: list, *, gate: bool = False) -> None:
    """Layer sums against the untraced calls; traced against untraced.

    Each side takes its fastest call: the calls alternate, and noise
    from other tenants of the host only ever adds time.  With *gate*,
    a layer sum further than the stated residual from the untraced
    time fails the run.
    """
    parts, traced, untraced = ([t for t in ts if t == t]
                               for ts in (parts, traced, untraced))
    if not (parts and traced and untraced):
        report.invalid("no traced and untraced call pair completed")
        return
    base = min(untraced)
    residual = min(parts) / base - 1.0
    layers["trace.residual_frac"] = residual
    layers["trace.overhead_frac"] = min(traced) / base - 1.0
    if gate and abs(residual) > bench.DECOMPOSITION_RESIDUAL:
        report.invalid(
            f"layer times sum to {min(parts):.3f}s against {base:.3f}s "
            f"untraced ({residual:+.1%}, stated bound "
            f"{bench.DECOMPOSITION_RESIDUAL:.0%})")


def _solver_layers(seconds: float, iterations: int, residuals: list) -> dict:
    return {"solver.solve_s": seconds,
            "solver.iterations": iterations,
            "solver.us_per_iter": seconds / max(iterations, 1) * 1e6,
            "solver.residual": max(residuals, default=0.0)}


# -- lambda-solve -------------------------------------------------------------

def run_lambda_solve(size: PhageLambda, *, seed: int, seconds: float,
                     trace: bool) -> Report:
    """The model is the paper's fixed network: *seed* has nothing to vary."""
    from repro import (
        JacobiSolver,
        backends,
        build_rate_matrix,
        enumerate_state_space,
        phage_lambda,
        solve_steady_state,
    )

    del seed
    report = Report()
    net, setup_s = bench.build_median(
        lambda: phage_lambda(max_monomer=size.max_monomer,
                             max_dimer=size.max_dimer))
    first: dict = {}

    def front_door():
        report.attempted += 1
        try:
            result, dt = timed(solve_steady_state, net)
        except Exception as exc:  # noqa: BLE001 - count it, keep measuring
            report.fail(f"solve raised {type(exc).__name__}: {exc}")
            return float("nan"), []
        return dt, [_keep(report, "solve", result, first,
                          result.landscape.space.states)]

    untraced, parts, walls, last = [], [], [], {}

    def pair():
        t0 = time.perf_counter()
        dt, answers = front_door()
        untraced.append(dt)
        t1 = time.perf_counter()
        report.attempted += 1
        space_t, t_enum = timed(enumerate_state_space, net)
        A, t_asm = timed(build_rate_matrix, space_t)
        solver = JacobiSolver(A, tol=TOL, max_iterations=500_000)
        result, t_solve = timed(solver.solve)
        walls.append(time.perf_counter() - t1)
        parts.append((t_enum, t_asm, t_solve))
        last.update(A=A, iterations=result.iterations)
        answers.append(_keep(report, "traced solve", result, first,
                             space_t.states))
        return time.perf_counter() - t0, answers

    dispatches = backends.kernel_stats()
    ops = bench.closed_loop(pair if trace else front_door, seconds)
    rss = bench.peak_rss_mb()
    fallbacks = bench.fallbacks(dispatches)

    space = enumerate_state_space(net)
    checker = Checker(build_rate_matrix(space), space.states)
    residuals: list = []

    def check(x) -> bool:
        res = checker.check(report, "solve", x, tol=TOL,
                            states=first["states"])
        if res is not None:
            residuals.append(res)
        return res is not None

    bench.check_ops(ops, check)
    if not trace:
        bench.closed_loop_metrics(report, ops, setup_s=setup_s,
                                  slo_s=LAMBDA_SLO_S)
        report.metrics["peak_rss_mb"] = rss
        return report

    t_enum, t_asm, t_solve = (bench.median(p) for p in zip(*parts))
    A = last["A"]
    layers = bench.zero_layers()
    layers.update({
        "cme.enumerate_s": t_enum,
        "cme.states": A.shape[0],
        "cme.assemble_s": t_asm,
        "cme.nnz": A.nnz,
        "kernel.fallbacks": fallbacks,
        **_solver_layers(t_solve, last["iterations"], residuals),
    })
    _decomposition(report, layers, [sum(p) for p in parts], walls, untraced,
                   gate=True)
    report.metrics = {**layers, **bench.kernel_layers(A)}
    return report


# -- toggle-sweep -------------------------------------------------------------

def sweep_grid(size: ToggleSweep, seed: int) -> list[float]:
    """The midpoints of equal slices of the ``degA`` range, jittered.

    The seed moves each point by at most a twentieth of a slice.  Solve
    cost climbs steeply towards the symmetric, bistable point, so a
    wider jitter would make the seed, not the program, set the sweep's
    time; this one changes every value and keeps the work comparable.
    """
    rng = np.random.default_rng(seed)
    step = (SWEEP_HIGH - SWEEP_LOW) / size.points
    offsets = 0.5 + rng.uniform(-0.05, 0.05, size.points)
    return [float(SWEEP_LOW + (i + u) * step) for i, u in enumerate(offsets)]


def run_toggle_sweep(size: ToggleSweep, *, seed: int, seconds: float,
                     trace: bool) -> Report:
    from repro import (
        backends,
        build_rate_matrix,
        enumerate_state_space,
        toggle_switch,
    )
    from repro.cme.statespace import StateSpace
    from repro.solvers import BatchedJacobiSolver
    from repro.sweep import ParameterSweep

    report = Report()
    grid = {"degA": sweep_grid(size, seed)}
    net, setup_s = bench.build_median(
        lambda: toggle_switch(max_protein=size.max_protein))
    conditions = ParameterSweep(net, grid).conditions()
    first: dict = {}

    def keep(i: int, label: str, result, states):
        x = _keep(report, label, result, first, states)
        return None if x is None else (i, x)

    def one_sweep():
        report.attempted += len(conditions)
        try:
            points, dt = timed(ParameterSweep(net, grid).run,
                               batch=size.batch, tol=TOL,
                               max_iterations=SWEEP_MAX_ITERATIONS,
                               solver_kwargs={"damping": SWEEP_DAMPING})
        except Exception as exc:  # noqa: BLE001 - count it, keep measuring
            for _ in conditions:
                report.fail(f"sweep raised {type(exc).__name__}: {exc}")
            return float("nan"), []
        for _ in range(len(conditions) - len(points)):
            report.fail("sweep returned fewer points than conditions")
        answers = []
        for i, point in enumerate(points[:len(conditions)]):
            if point.overrides != conditions[i]:
                report.wrong(f"point {i} answers {point.overrides}, "
                             f"asked {conditions[i]}")
                answers.append(None)
                continue
            answers.append(keep(i, f"point {i}", point.result,
                                point.landscape.space.states))
        return dt, answers

    untraced, parts, walls, last = [], [], [], {}

    def pair():
        t0 = time.perf_counter()
        dt, answers = one_sweep()
        untraced.append(dt)
        t1 = time.perf_counter()
        report.attempted += len(conditions)
        space, t_enum = timed(enumerate_state_space, net)
        matrices, t_one = [], []
        for ov in conditions:
            A, dt = timed(build_rate_matrix, StateSpace(
                network=net.with_rates(ov), states=space.states))
            matrices.append(A)
            t_one.append(dt)
        results, t2 = [], time.perf_counter()
        for lo in range(0, len(matrices), size.batch):
            solver = BatchedJacobiSolver.stacked(
                matrices[lo:lo + size.batch], tol=TOL,
                max_iterations=SWEEP_MAX_ITERATIONS, damping=SWEEP_DAMPING)
            results.extend(solver.solve_many())
        t_solve = time.perf_counter() - t2
        walls.append(time.perf_counter() - t1)
        parts.append((t_enum, bench.median(t_one), sum(t_one), t_solve))
        last.update(matrices=matrices,
                    iterations=sum(r.iterations for r in results))
        answers.extend(keep(i, f"traced point {i}", r, space.states)
                       for i, r in enumerate(results))
        return time.perf_counter() - t0, answers

    dispatches = backends.kernel_stats()
    ops = bench.closed_loop(pair if trace else one_sweep, seconds)
    rss = bench.peak_rss_mb()
    fallbacks = bench.fallbacks(dispatches)

    base = enumerate_state_space(net)
    checkers = [Checker(build_rate_matrix(StateSpace(
        network=net.with_rates(ov), states=base.states)), base.states)
        for ov in conditions]
    residuals: list = []

    def check(answer) -> bool:
        i, x = answer
        res = checkers[i].check(report, f"point {i}", x, tol=TOL,
                                states=first["states"])
        if res is not None:
            residuals.append(res)
        return res is not None

    bench.check_ops(ops, check)
    if not trace:
        bench.closed_loop_metrics(report, ops, setup_s=setup_s,
                                  slo_s=SWEEP_SLO_S)
        report.metrics["peak_rss_mb"] = rss
        return report

    t_enum, t_one, t_asm, t_solve = (bench.median(p) for p in zip(*parts))
    matrices = last["matrices"]
    layers = bench.zero_layers()
    layers.update({
        "cme.enumerate_s": t_enum,
        "cme.states": matrices[0].shape[0],
        "cme.assemble_s": t_one,
        "cme.nnz": matrices[0].nnz,
        "kernel.fallbacks": fallbacks,
        "sweep.iterations": last["iterations"],
        **_solver_layers(t_solve, last["iterations"], residuals),
    })
    _decomposition(report, layers, [p[0] + p[2] + p[3] for p in parts],
                   walls, untraced)
    report.extra = {"sweep.assemble_s": t_asm, "sweep.solve_s": t_solve}
    stacked = sp.block_diag(matrices[:size.batch], format="csr")
    report.metrics = {**layers,
                      **bench.kernel_layers(stacked, damping=SWEEP_DAMPING)}
    return report


# -- lambda-fsp ---------------------------------------------------------------

def run_lambda_fsp(size: PhageLambda, *, seed: int, seconds: float,
                   trace: bool) -> Report:
    """The model is the paper's fixed network: *seed* has nothing to vary.

    The traced run is the same loop: its per-layer numbers come from
    the rounds each solve returns (``FspResult.rounds``), so there is no
    separately traced call and ``trace.overhead_frac`` reads 0.
    """
    from repro import (
        backends,
        build_rate_matrix,
        enumerate_state_space,
        phage_lambda,
    )
    from repro.cme.expansion import ProjectionAssembler
    from repro.fsp import AdaptiveFspController

    del seed
    report = Report()

    def make():
        net = phage_lambda(max_monomer=size.max_monomer,
                           max_dimer=size.max_dimer)
        AdaptiveFspController(net, fsp_tol=FSP_TOL)
        return net

    net, setup_s = bench.build_median(make)
    first: dict = {}
    solves = []  # (seconds, the solve's rounds)

    def one_solve():
        report.attempted += 1
        try:
            fr, dt = timed(lambda: AdaptiveFspController(
                net, fsp_tol=FSP_TOL).solve())
        except Exception as exc:  # noqa: BLE001 - count it, keep measuring
            report.fail(f"fsp raised {type(exc).__name__}: {exc}")
            return float("nan"), []
        solves.append((dt, fr.rounds))
        if not fr.converged:
            report.fail(f"fsp stopped {fr.reason} with bound "
                        f"{fr.truncation_mass:.3e}")
            return dt, [None]
        if not fr.truncation_mass <= FSP_TOL:
            report.wrong(f"fsp: truncation_mass {fr.truncation_mass:.3e} "
                         f"> fsp_tol {FSP_TOL:.1e}")
            return dt, [None]
        # One projection is held for all answers that share it.
        if bench.same_states(first, fr.space.states):
            return dt, [(fr.x, first.setdefault("space", fr.space))]
        return dt, [(fr.x, fr.space)]

    dispatches = backends.kernel_stats()
    ops = bench.closed_loop(one_solve, seconds)
    rss = bench.peak_rss_mb()
    fallbacks = bench.fallbacks(dispatches)

    full, t_enum = timed(enumerate_state_space, net)
    A_full, t_asm = timed(build_rate_matrix, full)
    checker = Checker(A_full)
    residuals: list = []

    def check(answer) -> bool:
        x, space = answer
        problem = bench.distribution_problem(x)
        if problem is None and np.any(full.lookup(space.states) < 0):
            problem = "projection holds states outside the model's buffers"
        if problem is not None:
            report.wrong(f"fsp: {problem}")
            return False
        residuals.append(_projected_residual(checker, full, x, space))
        return True

    bench.check_ops(ops, check)
    if not trace:
        bench.closed_loop_metrics(report, ops, setup_s=setup_s,
                                  slo_s=FSP_SLO_S)
        report.metrics["peak_rss_mb"] = rss
        return report

    kept = [a for op in ops for a in op.answers if a is not None]
    if not kept:
        report.invalid("no certified fsp solve completed")
        report.metrics = bench.zero_layers()
        return report
    space = kept[-1][1]
    rounds = solves[-1][1]
    sums = [sum(r.runtime_s for r in rs) for _, rs in solves]
    rounds_s = bench.median(sums)
    iterations = sum(r.iterations for r in rounds)
    layers = bench.zero_layers()
    layers.update({
        # The one-shot enumeration of the same model, which the
        # projection loop replaces with incremental growth.
        "cme.enumerate_s": t_enum,
        "cme.states": full.size,
        "cme.assemble_s": t_asm,
        "cme.nnz": A_full.nnz,
        "kernel.fallbacks": fallbacks,
        # The inner solves, from the rounds FspResult records; a
        # round's wall time includes its projection assembly.
        **_solver_layers(rounds_s, iterations, residuals),
        "fsp.rounds": len(rounds),
        "fsp.iterations": iterations,
        "fsp.final_states": space.size,
        "fsp.states_added": sum(r.added for r in rounds),
        "fsp.states_pruned": sum(r.pruned for r in rounds),
        "trace.residual_frac": bench.median(
            s / dt - 1.0 for s, (dt, _) in zip(sums, solves)),
    })
    report.extra = {"fsp.round_s": rounds_s / len(rounds)}
    A, _ = ProjectionAssembler(net).assemble(space)
    report.metrics = {**layers, **bench.kernel_layers(A)}
    return report


def _projected_residual(checker: Checker, full, x, space) -> float:
    """The answer's normalized residual on the model's own generator.

    Rows and columns restricted to the final projection, minus the one
    row where the certificate's sink re-injects mass.  Reported, not
    gated: the answer's claim is its truncation bound.
    """
    idx = full.lookup(space.states)
    sub = checker.A[idx][:, idx]
    r = np.abs(sub @ x)
    # The sink returns to the initial state, or to projection state 0
    # when the projection does not hold it.
    redirect = space.lookup(np.asarray(
        space.network.initial_state, dtype=np.int64)[None, :])[0]
    r[max(int(redirect), 0)] = 0.0
    norm = float(abs(sub).sum(axis=1).max())
    return float(r.max()) / (norm * float(x.max()))
