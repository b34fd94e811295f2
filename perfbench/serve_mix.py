"""The open-loop ``serve-mix`` workload and its load generator.

Independent users send requests whether or not earlier ones finished,
so arrivals are an open loop: Poisson at a fixed rate, conditioned on
the count (``rate x seconds`` arrival times drawn uniformly over the
window and sorted), so every run offers the same number of requests.
Each request is timed from its *scheduled* send time, so a stall
charges every request queued behind it; a refused or failed request
counts as a miss against the latency limit.  The generator measures
its own lateness, and a run whose tail is set by that lateness rather
than by the service is flagged invalid.

Serve, queue, cache and warm-start work happen only in this workload.
BENCHMARK.json does not list it: the service serves warm-started
toggle_switch answers that stopped ``stagnated`` (residual above the
tolerance), and how many depends on which warm-start donors finished
first, so the failure count of one seed does not repeat.  It runs by
name and counts each such answer as a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import bench
from bench import Checker, Report

#: ``SolveService``'s default Jacobi damping, which every request here
#: gets (none spells out its own).
SERVE_DAMPING = 0.9
#: The latency limit behind ``slo_met_frac``; quoted, with the default
#: rate, in the workload's ``why`` in BENCHMARK.json (a test keeps them
#: equal).
SLO_S = 0.25
#: Tenants and their fair-queuing weights.
TENANTS = (("gold", 10), ("free", 1))
#: Share of each model's requests drawn from its small repeat set.
REPEAT_FRACTION = 0.5
#: Every service's construction: solve workers, batch size, tolerance.
WORKERS = 2
BATCH_MAX = 4
TOL = 1e-6
#: Fewer requests leave the p90 fewer than 10 samples beyond it.
MIN_REQUESTS = 100
#: How long the run waits for the last answers after the last send.
DRAIN_TIMEOUT_S = 90.0
#: The run is invalid when the generator's p99 lateness exceeds this
#: share of the measured latency p90.
LATE_SHARE_LIMIT = 0.5

#: Snapshot counters summed across the per-model services.
_COUNTERS = ("coalesced", "batched", "warm_started", "rejected", "retried",
             "cache_lookup_hits", "cache_lookup_misses")


@dataclass(frozen=True)
class ModelSpec:
    """One model of the mix: factory arguments, share, swept rate."""

    factory: str
    kwargs: tuple
    share: float
    rate: str


@dataclass(frozen=True)
class ServeMix:
    """The traffic: arrival rate, repeat-set size and the model mix."""

    rate_per_s: float = 10.0
    repeat_set: int = 4
    models: tuple = (
        ModelSpec("toggle_switch", (("max_protein", 30),), 0.4, "degA"),
        ModelSpec("brusselator", (("max_x", 40), ("max_y", 20)), 0.25,
                  "drain"),
        ModelSpec("schnakenberg", (("max_x", 40), ("max_y", 20)), 0.25,
                  "decX"),
        ModelSpec("phage_lambda", (("max_monomer", 6), ("max_dimer", 3)),
                  0.1, "degCI"),
    )


@dataclass(frozen=True)
class Arrival:
    """One scheduled request."""

    at: float          #: Send time, seconds after the window opens.
    model: int         #: Index into ``ServeMix.models``.
    tenant: str
    multiplier: float  #: Swept rate = base rate x multiplier.
    repeat: bool       #: Drawn from the small repeat set.


def schedule(cfg: ServeMix, seed: int, seconds: float) -> list[Arrival]:
    """The seeded arrival schedule: times, models, tenants, conditions.

    Times are the only free draw.  Everything else is stratified and
    then shuffled, so every seed offers the same model shares, tenant
    skew and repeat fraction exactly, and spreads each model's unique
    conditions evenly over the multiplier range: seeds differ in which
    values and in what order, not in how much work they offer.
    """
    rng = np.random.default_rng(seed)
    n = max(1, round(cfg.rate_per_s * seconds))
    times = np.sort(rng.uniform(0.0, seconds, n))
    models = rng.permutation(_exact(n, [m.share for m in cfg.models]))
    tenants = rng.permutation(_exact(n, [w for _, w in TENANTS]))
    multiplier = np.empty(n)
    repeat = np.zeros(n, dtype=bool)
    for m in range(len(cfg.models)):
        mine = rng.permutation(np.flatnonzero(models == m))
        k = round(len(mine) * REPEAT_FRACTION)
        repeat_set = _stratified(rng, cfg.repeat_set, 0.6, 1.6)
        repeat[mine[:k]] = True
        multiplier[mine[:k]] = repeat_set[np.arange(k) % cfg.repeat_set]
        multiplier[mine[k:]] = rng.permutation(
            _stratified(rng, len(mine) - k, 0.5, 2.0))
    return [Arrival(at=float(times[i]), model=int(models[i]),
                    tenant=TENANTS[int(tenants[i])][0],
                    multiplier=float(multiplier[i]), repeat=bool(repeat[i]))
            for i in range(n)]


def _exact(n: int, weights: list) -> np.ndarray:
    """*n* category labels in exact proportion (largest remainder)."""
    w = np.asarray(weights, dtype=float) / sum(weights)
    counts = np.floor(w * n).astype(int)
    short = n - counts.sum()
    counts[np.argsort(-(w * n - counts), kind="stable")[:short]] += 1
    return np.repeat(np.arange(len(w)), counts)


def _stratified(rng, k: int, low: float, high: float) -> np.ndarray:
    """One uniform draw in each of *k* equal slices of ``[low, high)``."""
    step = (high - low) / max(k, 1)
    return low + (np.arange(k) + rng.uniform(0.0, 1.0, k)) * step


def _networks(cfg: ServeMix) -> list:
    import repro

    return [getattr(repro, m.factory)(**dict(m.kwargs)) for m in cfg.models]


def _services(networks: list) -> list:
    """One service per model, each warmed by one first request."""
    from repro.serve import SolveService

    services = [SolveService(net, workers=WORKERS, executor="thread",
                             batch_max=BATCH_MAX, warm_start=True, tol=TOL,
                             tenant_weights=dict(TENANTS))
                for net in networks]
    for svc in services:
        svc.submit({}).result(timeout=DRAIN_TIMEOUT_S)
    return services


def _close(services: list) -> None:
    for svc in services:
        svc.close(wait=True)


def _counters(services: list) -> dict:
    snaps = [svc.snapshot() for svc in services]
    return {name: sum(s.get(name, 0) for s in snaps) for name in _COUNTERS}


def run_serve_mix(cfg: ServeMix, *, seed: int, seconds: float,
                  trace: bool) -> Report:
    from repro import backends, build_rate_matrix, enumerate_state_space
    from repro.cme.statespace import StateSpace

    report = Report()
    arrivals = schedule(cfg, seed, seconds)
    if len(arrivals) < MIN_REQUESTS:
        report.invalid(f"{len(arrivals)} requests offered, fewer than "
                       f"{MIN_REQUESTS}: p90 lacks 10 samples beyond it")

    def make():
        nets = _networks(cfg)
        return nets, _services(nets)

    (networks, services), setup_s = bench.build_median(
        make, discard=lambda built: _close(built[1]))
    try:
        base_rates = [next(r.rate for r in net.reactions if r.name == m.rate)
                      for net, m in zip(networks, cfg.models)]
        before = _counters(services)
        dispatches = backends.kernel_stats()
        run = _offer(cfg, services, arrivals, base_rates, trace)
        rss = bench.peak_rss_mb()
        fallbacks = bench.fallbacks(dispatches)
        after = _counters(services)
    finally:
        _close(services)

    # Only now the benchmark's own matrices: the base enumerations, and
    # one checker per request key.
    cme = {"enumerate_s": 0.0, "states": 0, "assemble_s": 0.0, "nnz": 0}
    bases = []
    for net in networks:
        space, t_enum = bench.timed(enumerate_state_space, net)
        A, t_asm = bench.timed(build_rate_matrix, space)
        cme["enumerate_s"] += t_enum
        cme["assemble_s"] += t_asm
        cme["states"] += space.size
        cme["nnz"] += A.nnz
        bases.append(space)

    checkers: dict = {}

    def checker_for(i: int, overrides: dict) -> Checker:
        key = (i, tuple(sorted(overrides.items())))
        if key not in checkers:
            net = networks[i].with_rates(overrides)
            checkers[key] = Checker(build_rate_matrix(StateSpace(
                network=net, states=bases[i].states)), bases[i].states)
        return checkers[key]

    first: dict = {}
    seen: set = set()
    latencies, solve_times, queue_waits, explained = [], [], [], []
    met = 0
    for arrival, rec in zip(arrivals, run["records"]):
        report.attempted += 1
        label = (f"request at {arrival.at:.3f}s "
                 f"({cfg.models[arrival.model].factory})")
        if rec["error"] is not None:
            report.fail(f"{label}: {rec['error']}")
            continue
        job, outcome = rec["job"], rec["outcome"]
        latency = rec["finished"] - rec["due"]
        latencies.append(latency)
        coalesced = id(job) in seen
        seen.add(id(job))
        if not outcome.cached and not coalesced:
            solve_times.append(outcome.solve_seconds)
            if job.started_at is not None and job.submitted_at is not None:
                wait = job.started_at - job.submitted_at
                queue_waits.append(wait)
                explained.append(1.0 - (rec["late"] + wait
                                        + outcome.solve_seconds) / latency)
        if _served_ok(report, label, outcome, coalesced, first, checker_for(
                arrival.model, rec["overrides"]), TOL):
            met += latency <= SLO_S

    late_p99 = bench.quantile(run["late"], 0.99)
    p90 = bench.quantile(latencies, 0.9)
    if latencies and late_p99 > LATE_SHARE_LIMIT * p90:
        report.invalid(f"generator lateness p99 {late_p99:.4f}s exceeds "
                       f"{LATE_SHARE_LIMIT:.0%} of latency p90 {p90:.4f}s:"
                       " the generator, not the service, sets the tail")
    report.latency_samples = len(latencies)
    if not trace:
        span = max(run["last_finish"] - run["opened"], 1e-9)
        report.metrics.update({
            "setup_s": setup_s,
            "ok_frac": bench.ok_frac(report),
            "latency_p50_s": bench.median(latencies),
            "completed_per_s": len(latencies) / span,
            "slo_met_frac": met / len(arrivals),
            "peak_rss_mb": rss,
        })
        return report

    delta = {k: after[k] - before[k] for k in _COUNTERS}
    lookups = delta["cache_lookup_hits"] + delta["cache_lookup_misses"]
    layers = bench.zero_layers()
    layers.update({f"cme.{k}": v for k, v in cme.items()})
    layers.update(_solver_layer(report, bases[0]))
    layers.update({
        "kernel.fallbacks": fallbacks,
        "trace.overhead_frac": run["sampling_s"] / seconds,
        "trace.residual_frac": bench.median(explained),
    })
    report.extra = {
        "serve.cache_hit_rate": (delta["cache_lookup_hits"] / lookups
                                 if lookups else 0.0),
        "serve.coalesced": delta["coalesced"],
        "serve.batched": delta["batched"],
        "serve.warm_started": delta["warm_started"],
        "serve.rejected": delta["rejected"],
        "serve.retried": delta["retried"],
        "serve.queue_depth_max": max(run["depths"], default=0),
        "serve.latency_p90_s": p90,
        "serve.queue_wait_p50_s": bench.median(queue_waits),
        "serve.solve_p50_s": bench.median(solve_times),
        "serve.gen_late_p99_s": late_p99,
    }
    # The kernel on the mix's heaviest-share model, at serve's default
    # damping.
    report.metrics = {**layers, **bench.kernel_layers(
        build_rate_matrix(bases[0]), damping=SERVE_DAMPING)}
    return report


def _solver_layer(report: Report, space) -> dict:
    """The solver layer alone on the mix's heaviest-share model.

    One direct solve of its base rates at the service's tolerance and
    default damping, so ``serve.solve_p50_s`` can be read against it.
    """
    from repro import JacobiSolver, build_rate_matrix

    A = build_rate_matrix(space)
    report.attempted += 1
    result, dt = bench.timed(
        JacobiSolver(A, tol=TOL, damping=SERVE_DAMPING).solve)
    residual = None
    if not result.converged:
        report.fail(f"direct solve stopped {result.stop_reason.value}")
    else:
        residual = Checker(A, space.states).check(
            report, "direct solve", result.x, tol=TOL)
    return {"solver.solve_s": dt,
            "solver.iterations": result.iterations,
            "solver.us_per_iter": dt / max(result.iterations, 1) * 1e6,
            "solver.residual": residual or 0.0}


def _served_ok(report: Report, label: str, outcome, coalesced: bool,
               first: dict, checker: Checker, tol: float) -> bool:
    """Check one served answer; a repeat must equal its key's first."""
    if not outcome.result.converged:
        report.fail(f"{label}: served a {outcome.result.stop_reason.value} "
                    f"answer (residual {outcome.result.residual:.3e})")
        return False
    if outcome.degraded:
        report.wrong(f"{label}: served a degraded answer as exact")
        return False
    x = outcome.result.x
    if checker.check(report, label, x, tol=tol,
                     states=outcome.landscape.space.states) is None:
        return False
    if outcome.key not in first:
        first[outcome.key] = x
    elif (outcome.cached or coalesced) and not np.array_equal(
            first[outcome.key], x):
        report.wrong(f"{label}: cached/coalesced answer differs from the "
                     "first answer for its key")
        return False
    return True


def _offer(cfg: ServeMix, services: list, arrivals: list, base_rates: list,
           trace: bool) -> dict:
    """Send every arrival on schedule from this one thread; wait for all.

    Completion times come from done callbacks (worker threads, or this
    thread for cache hits).  With *trace*, the queue depth of every
    service is sampled before each send and the sampling time is kept
    apart as the tracing overhead.
    """
    n = len(arrivals)
    finished = [0.0] * n
    records = []
    late, depths = [], []
    sampling_s = 0.0

    def on_done(i):
        def _cb(_job):
            finished[i] = time.perf_counter()
        return _cb

    opened = time.perf_counter() + 0.05
    for i, arrival in enumerate(arrivals):
        due = opened + arrival.at
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        if trace:
            t0 = time.perf_counter()
            depths.append(sum(svc.snapshot()["queue_depth"]
                              for svc in services))
            sampling_s += time.perf_counter() - t0
        rate = cfg.models[arrival.model].rate
        overrides = {rate: base_rates[arrival.model] * arrival.multiplier}
        sent = time.perf_counter()
        late.append(sent - due)
        rec = {"due": due, "late": sent - due, "overrides": overrides,
               "job": None, "outcome": None, "error": None, "finished": 0.0}
        records.append(rec)
        try:
            rec["job"] = services[arrival.model].submit(
                overrides, tenant=arrival.tenant)
        except Exception as exc:  # noqa: BLE001 - a refusal is a miss
            rec["error"] = f"refused: {type(exc).__name__}: {exc}"
            continue
        rec["job"].add_done_callback(on_done(i))

    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for i, rec in enumerate(records):
        if rec["job"] is None:
            continue
        try:
            rec["outcome"] = rec["job"].result(
                timeout=max(deadline - time.perf_counter(), 0.001))
        except Exception as exc:  # noqa: BLE001 - a failure is a miss
            rec["error"] = f"failed: {type(exc).__name__}: {exc}"
            continue
        # result() can return just before the done callback has run.
        while finished[i] == 0.0 and time.perf_counter() < deadline:
            time.sleep(0.0005)
        rec["finished"] = finished[i]
    done = [r["finished"] for r in records if r["outcome"] is not None]
    return {"records": records, "late": late, "depths": depths,
            "sampling_s": sampling_s, "opened": opened,
            "last_finish": max(done, default=opened)}
