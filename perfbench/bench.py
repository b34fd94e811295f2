"""Shared pieces of the steady-state benchmark.

The metric catalogue, the output checks that feed ``ok_frac``, the
computed-traffic model of one Jacobi sweep, the same-run bandwidth
anchor, and the result line the runner prints.  Everything here is
measured from outside the program: the benchmark times its own calls
into the program's public functions and reads the records those
functions return.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: End-to-end metrics: name -> (unit, better).  Every untraced run
#: prints all of them; each is defined for every workload (see
#: README.md for what one "answer" is on each).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
    "latency_p50_s": ("s", "lower"),
    "completed_per_s": ("1/s", "higher"),
    "slo_met_frac": ("fraction", "higher"),
}

#: Per-layer metrics: name -> (unit, better).  Every traced run prints
#: all of them.  Every time among them is measured on every workload;
#: a count or share of a layer the workload does not drive reads 0.
PER_LAYER = {
    "cme.enumerate_s": ("s", "lower"),
    "cme.states": ("count", "lower"),
    "cme.assemble_s": ("s", "lower"),
    "cme.nnz": ("count", "lower"),
    "sparse.bytes_per_sweep": ("bytes", "lower"),
    "sparse.flops_per_byte": ("flop/byte", "higher"),
    "kernel.sweep_us": ("us", "lower"),
    "kernel.gbps": ("GB/s", "higher"),
    "kernel.frac_of_triad": ("fraction", "higher"),
    "kernel.fallbacks": ("count", "lower"),
    "host.triad_gbps": ("GB/s", "higher"),
    "host.triad_array_bytes": ("bytes", "higher"),
    "host.l2_bytes": ("bytes", "higher"),
    "host.l3_bytes": ("bytes", "higher"),
    "solver.solve_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.us_per_iter": ("us", "lower"),
    "solver.residual": ("ratio", "lower"),
    "sweep.iterations": ("count", "lower"),
    "fsp.rounds": ("count", "lower"),
    "fsp.iterations": ("count", "lower"),
    "fsp.final_states": ("count", "lower"),
    "fsp.states_added": ("count", "lower"),
    "fsp.states_pruned": ("count", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.residual_frac": ("fraction", "lower"),
}

#: Per-layer metrics only one workload can measure.  Its traced run
#: prints them with the rest, but they stay out of the result line,
#: where every other workload would report a constant 0 for them.  The
#: serve layer's are all here: only ``serve-mix`` drives it, and
#: BENCHMARK.json does not list that workload (see README.md).
WORKLOAD_ONLY = {
    "sweep.assemble_s": ("s", "lower"),
    "sweep.solve_s": ("s", "lower"),
    "fsp.round_s": ("s", "lower"),
    "serve.cache_hit_rate": ("fraction", "higher"),
    "serve.coalesced": ("count", "higher"),
    "serve.batched": ("count", "higher"),
    "serve.warm_started": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.retried": ("count", "lower"),
    "serve.queue_depth_max": ("count", "lower"),
    "serve.latency_p90_s": ("s", "lower"),
    "serve.queue_wait_p50_s": ("s", "lower"),
    "serve.solve_p50_s": ("s", "lower"),
    "serve.gen_late_p99_s": ("s", "lower"),
}

#: Stated bound on ``|trace.residual_frac|`` on ``lambda-solve``: the
#: traced layer times (enumerate + assemble + solve) must sum to the
#: untraced front-door time within this share, or the run fails.
DECOMPOSITION_RESIDUAL = 0.25

#: Slack on a recomputed residual against the tolerance the answer
#: claims: the same inf-norms summed in another order.
RESIDUAL_SLACK = 1e-6

#: Array length of the triad anchor: three float64 arrays of 32 MiB,
#: and its repetitions (the median is reported).
TRIAD_N = 4 * 1024 * 1024
TRIAD_REPEATS = 5

#: Timed sweeps behind ``kernel.sweep_us`` (the median is reported).
KERNEL_REPEATS = 60

#: Builds of the workload's objects behind ``setup_s`` (median).
BUILD_SAMPLES = 3


@dataclass
class Report:
    """What one workload run hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: The traced run's :data:`WORKLOAD_ONLY` metrics.
    extra: dict = field(default_factory=dict)
    #: Answers behind the latency percentiles, for the printout.
    latency_samples: int = 0
    incorrect: bool = False

    def fail(self, message: str) -> None:
        """One operation failed without claiming success: it raised, was
        refused, or stopped unconverged.  Counts against ``ok_frac``."""
        self.failed += 1
        self._note(message)

    def wrong(self, message: str) -> None:
        """An answer claimed success but failed an output check."""
        self.failed += 1
        self.incorrect = True
        self._note(message)

    def invalid(self, message: str) -> None:
        """The run's measurement itself cannot be trusted."""
        self.incorrect = True
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.incorrect


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default), 0 when empty."""
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux).

    Every workload reads it right after its measured loop, before it
    builds the checkers' matrices, so the peak is the program's.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def build_median(make, discard=None):
    """Build the workload's program objects :data:`BUILD_SAMPLES` times.

    Returns the last build and the median build time; *discard*
    releases every earlier build.  The runner adds the program's
    measured import time to get ``setup_s``.
    """
    times, built = [], None
    for i in range(BUILD_SAMPLES):
        built, dt = timed(make)
        times.append(dt)
        if discard is not None and i < BUILD_SAMPLES - 1:
            discard(built)
    return built, median(times)


def own_copy(A) -> sp.csr_matrix:
    """The checker's private CSR copy of a generator."""
    return sp.csr_matrix(A, dtype=np.float64, copy=True)


class Checker:
    """Recomputes an answer's quality on the benchmark's own matrix.

    The normalized residual ``||A x||_inf / (||A||_inf ||x||_inf)`` is
    the paper's stopping metric; here SciPy computes it from scratch
    instead of trusting ``result.residual``.
    """

    def __init__(self, A, states: np.ndarray | None = None):
        self.A = own_copy(A)
        self.norm = float(abs(self.A).sum(axis=1).max())
        self.states = None if states is None else np.array(states)

    def residual(self, x: np.ndarray) -> float:
        denom = self.norm * float(np.abs(x).max())
        if denom == 0.0:
            return math.inf
        return float(np.abs(self.A @ x).max()) / denom

    def check(self, report: Report, label: str, x: np.ndarray, *,
              tol: float, states: np.ndarray | None = None) -> float | None:
        """Check one answer; records a failure and returns ``None`` if bad."""
        problem = distribution_problem(x)
        if problem is None and states is not None and self.states is not None \
                and not np.array_equal(states, self.states):
            problem = "state order differs from the checker's enumeration"
        res = None
        if problem is None:
            res = self.residual(x)
            if not res <= tol * (1.0 + RESIDUAL_SLACK):
                problem = f"recomputed residual {res:.3e} > tol {tol:.1e}"
        if problem is not None:
            report.wrong(f"{label}: {problem}")
            return None
        return res


def same_states(first: dict, states: np.ndarray) -> bool:
    """Whether *states* is the first answer's state order.

    The loop keeps that one state array in *first* and compares every
    later answer's with it, so what it holds does not grow with the
    number of calls; the checks after the loop compare the first with
    the checker's own enumeration.
    """
    ref = first.setdefault("states", states)
    return ref is states or np.array_equal(ref, states)


def distribution_problem(x: np.ndarray) -> str | None:
    """Why *x* is not a probability vector (``None`` when it is)."""
    if x.ndim != 1 or x.size == 0:
        return f"answer has shape {x.shape}"
    if not np.all(np.isfinite(x)):
        return "answer has non-finite entries"
    if float(x.min()) < 0.0:
        return f"answer has negative entries (min {float(x.min()):.3e})"
    if abs(float(x.sum()) - 1.0) > 1e-9:
        return f"answer sums to {float(x.sum())!r}, not 1"
    return None


def sweep_traffic(A: sp.csr_matrix, damping: float = 1.0) -> tuple[int, int]:
    """Computed ``(bytes, flops)`` of one fused Jacobi sweep on CSR *A*.

    Bytes are the compulsory traffic read off the CSR layout: the three
    CSR arrays once, the iterate and the diagonal read once, the new
    iterate written once.  Cache misses and temporaries are ignored, so
    this is a lower bound labelled *computed*, never a measurement.
    Flops: two per stored entry (multiply-add) plus the three-op
    diagonal update per row, three more per row when damped.
    """
    n = A.shape[0]
    nbytes = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
              + 3 * n * np.dtype(np.float64).itemsize)
    flops = 2 * A.nnz + 3 * n + (3 * n if damping != 1.0 else 0)
    return int(nbytes), int(flops)


def triad_gbps() -> float:
    """Same-run bandwidth anchor: NumPy triad ``a = b + s*c``.

    NumPy runs it as two passes (``a = s*c`` then ``a += b``), so each
    repetition moves five arrays' worth of bytes: read c, write a,
    read a, read b, write a.  Median of :data:`TRIAD_REPEATS`, after
    one warm-up repetition.
    """
    n = TRIAD_N
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    times = []
    for _ in range(TRIAD_REPEATS + 1):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    return 5 * 8 * n / median(times[1:]) / 1e9


def host_caches() -> dict:
    """L2/L3 sizes as the host reports them (0 when it does not)."""
    sizes = {2: 0, 3: 0}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(root.glob("index*")):
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
            if level in sizes:
                sizes[level] = max(sizes[level],
                                   int(text.rstrip("KM")) * scale)
    except (OSError, ValueError):
        pass  # a host that does not report its caches reads 0
    return {"host.l2_bytes": sizes[2], "host.l3_bytes": sizes[3]}


def fallbacks(before: dict) -> int:
    """Kernel dispatches since *before* (a ``kernel_stats()`` snapshot)
    that the registry served from another backend than the one a
    caller resolves with no settings: its silent-fallback volume."""
    from repro import backends

    name = backends.resolve().name
    return sum(count - before.get(key, 0)
               for key, count in backends.kernel_stats().items()
               if key[0] != name)


def kernel_layers(A, *, damping: float = 1.0) -> dict:
    """Time the Jacobi sweep the solvers dispatch to, against the anchor.

    The matrix is what the workload's solves sweep; the backend is the
    one ``backends.serving("", "jacobi_sweep")`` hands the solvers with
    no settings.  The NumPy triad runs in the same process right after,
    as the bandwidth anchor.
    """
    from repro import backends

    A = own_copy(A)
    be = backends.serving("", "jacobi_sweep")
    diag = A.diagonal()
    x = np.full(A.shape[0], 1.0 / A.shape[0])
    be.jacobi_sweep(A, diag, x, damping=damping)  # first touch
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        be.jacobi_sweep(A, diag, x, damping=damping)
        times.append(time.perf_counter() - t0)
    sweep_s = median(times)
    nbytes, flops = sweep_traffic(A, damping)
    anchor = triad_gbps()
    return {
        "sparse.bytes_per_sweep": nbytes,
        "sparse.flops_per_byte": flops / nbytes,
        "kernel.sweep_us": sweep_s * 1e6,
        "kernel.gbps": nbytes / sweep_s / 1e9,
        "kernel.frac_of_triad": nbytes / sweep_s / 1e9 / anchor,
        "host.triad_gbps": anchor,
        "host.triad_array_bytes": TRIAD_N * 8,
        **host_caches(),
    }


@dataclass
class Op:
    """One closed-loop call: its wall time and the answers it returned.

    An answer is what its check after the loop needs, or ``None`` when
    it already failed in the loop (stopped unconverged, wrong states).
    """

    seconds: float
    answers: list
    ok: int = 0


def closed_loop(call, seconds: float) -> list:
    """Run *call* back to back for about *seconds*; one client.

    *call* returns ``(latency, answers)`` and records on the report the
    failures it can see without a checker.  Another call starts only
    if, taking as long as the last one, it would end inside the window;
    the first call always runs.
    """
    ops: list = []
    start = time.perf_counter()
    last = 0.0
    while not ops or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        latency, answers = call()
        last = time.perf_counter() - t0
        ops.append(Op(latency, answers))
    return ops


def check_ops(ops: list, check) -> None:
    """Check every answer after the loop; *check* returns whether it
    passed, and records a failure on the report when it did not."""
    for op in ops:
        op.ok = sum(1 for a in op.answers if a is not None and check(a))


def closed_loop_metrics(report: Report, ops: list, *, setup_s: float,
                        slo_s: float) -> None:
    """End-to-end metrics of a closed loop (one client), after the checks.

    An op's answers all arrive when it returns, so each carries the
    op's latency; answers that failed a check, or came later than
    *slo_s*, miss the latency limit.
    """
    done = [op for op in ops if op.answers]
    busy = sum(op.seconds for op in done)
    report.metrics.update({
        "setup_s": setup_s,
        "ok_frac": ok_frac(report),
        "latency_p50_s": median(op.seconds for op in done),
        "completed_per_s": (sum(len(op.answers) for op in done) / busy
                            if busy > 0 else 0.0),
        "slo_met_frac": (sum(op.ok for op in done if op.seconds <= slo_s)
                         / report.attempted if report.attempted else 0.0),
    })
    report.latency_samples = len(done)


def ok_frac(report: Report) -> float:
    """Share of attempted operations that returned a checked answer."""
    if not report.attempted:
        return 0.0
    return (report.attempted - report.failed) / report.attempted


def zero_layers() -> dict:
    """Every per-layer metric at 0 (for layers a workload skips)."""
    return {name: 0 for name in PER_LAYER}
