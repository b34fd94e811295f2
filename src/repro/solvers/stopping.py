"""The paper's stopping criterion (Section IV).

Since the right-hand side is zero, the residual is normalized by the
matrix and solution norms::

    ||A x||_inf / (||A||_inf * ||x||_inf)  <=  epsilon

A practical criterion also caps the iteration count and detects
*stagnation* — the residual no longer decreasing (or decreasing too
slowly) between consecutive checks::

    (||r_{k+1}||_inf - ||r_k||_inf) / ||r_k||_inf  >=  -stagnation_tol

Because the residual evaluation costs about as much as an iteration,
the solver invokes this object only every ``check_interval`` steps.

:class:`Period2Detector` rides on the same checks.  On the CME's nearly
bipartite chains the plain Jacobi iteration matrix has an eigenvalue
close to ``-1``: the dominant error mode flips sign every sweep and
decays by a factor ``|lambda|`` per sweep, so an undamped solve can
take 10^4-10^5 sweeps where weighted Jacobi takes a few hundred.  The
detector spots that mode from the two Jacobi steps around a check and
switches the rest of the solve to damped steps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.solvers.result import StopReason


class StoppingCriterion:
    """Stateful convergence test for zero-RHS iterations.

    Parameters
    ----------
    matrix_inf_norm:
        ``||A||_inf`` (precomputed once).
    tol:
        The paper's ``epsilon`` (1e-8 in Section VII-D).
    max_iterations:
        Hard cap (1e6 in Section VII-D).
    stagnation_tol:
        Minimum relative residual decrease per check to keep going;
        ``None`` disables the stagnation test.
    min_checks_before_stagnation:
        Grace period — early checks often plateau before the dominant
        eigen-gap kicks in.
    stagnation_patience:
        Consecutive stagnant checks required before stopping; guards
        against the oscillating residuals of operators with complex
        subdominant eigenvalues (the Brusselator's rotating dynamics).
    backend:
        Optional :class:`~repro.backends.protocol.KernelBackend` whose
        ``residual`` primitive computes the two inf-norms (``None``
        keeps the inline NumPy reductions).  Both produce the exact
        same floats — ``|.|`` and ``max`` involve no rounding.
    """

    def __init__(self, matrix_inf_norm: float, *, tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 stagnation_tol: float | None = 1e-6,
                 min_checks_before_stagnation: int = 5,
                 stagnation_patience: int = 3,
                 backend=None):
        if matrix_inf_norm < 0:
            raise ValidationError("matrix norm must be non-negative")
        if tol <= 0:
            raise ValidationError("tol must be positive")
        if max_iterations <= 0:
            raise ValidationError("max_iterations must be positive")
        self.matrix_inf_norm = float(matrix_inf_norm)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.stagnation_tol = stagnation_tol
        self.min_checks = int(min_checks_before_stagnation)
        self.stagnation_patience = max(1, int(stagnation_patience))
        self._backend = backend
        self._best_residual: float | None = None
        self._checks = 0
        self._stagnant_streak = 0

    def normalized_residual(self, residual_vec: np.ndarray,
                            x: np.ndarray) -> float:
        """``||r||_inf / (||A||_inf ||x||_inf)`` (0 when degenerate)."""
        if self._backend is not None:
            y_norm, x_norm = self._backend.residual(residual_vec, x)
        else:
            x_norm = float(np.abs(x).max()) if x.size else 0.0
            y_norm = None
        denom = self.matrix_inf_norm * x_norm
        if denom == 0.0:
            return 0.0
        if y_norm is None:
            y_norm = float(np.abs(residual_vec).max())
        return y_norm / denom

    def check(self, iteration: int, residual_vec: np.ndarray,
              x: np.ndarray) -> tuple[StopReason | None, float]:
        """Evaluate the criterion; returns ``(reason or None, residual)``."""
        if not np.all(np.isfinite(x)):
            return StopReason.DIVERGED, float("inf")
        res = self.normalized_residual(residual_vec, x)
        self._checks += 1
        if res <= self.tol:
            return StopReason.CONVERGED, res
        # Stagnation against the best residual seen so far: residuals of
        # operators with complex subdominant eigenvalues *oscillate*
        # while their envelope decreases, so a previous-check comparison
        # would fire spuriously mid-swing.
        if self._best_residual is None or not np.isfinite(self._best_residual):
            self._best_residual = res
        elif (self.stagnation_tol is not None
              and self._checks > self.min_checks
              and self._best_residual > 0):
            improvement = (self._best_residual - res) / self._best_residual
            if improvement < self.stagnation_tol:
                self._stagnant_streak += 1
                if self._stagnant_streak >= self.stagnation_patience:
                    return StopReason.STAGNATED, res
            else:
                self._stagnant_streak = 0
        self._best_residual = min(self._best_residual, res)
        if iteration >= self.max_iterations:
            return StopReason.MAX_ITERATIONS, res
        return None, res

    def reset(self) -> None:
        """Clear the stagnation state for a fresh solve."""
        self._best_residual = None
        self._checks = 0
        self._stagnant_streak = 0

    def state_dict(self) -> dict:
        """The mutable criterion state, JSON-serializable.

        Captured into durable checkpoints so a resumed solve makes the
        *same* stagnation decisions the uninterrupted one would — the
        test compares against the best residual seen so far, which
        would otherwise restart empty.
        """
        return {"best_residual": self._best_residual,
                "checks": self._checks,
                "stagnant_streak": self._stagnant_streak}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
        best = state.get("best_residual")
        self._best_residual = None if best is None else float(best)
        self._checks = int(state.get("checks", 0))
        self._stagnant_streak = int(state.get("stagnant_streak", 0))


#: Weighted-Jacobi factor a solve switches to when it detects period-2
#: oscillation.  It maps an eigenvalue ``-1 + eps`` of the plain
#: iteration matrix to about ``-0.8`` and slows the slowest positive
#: mode by at most a factor ``1 / 0.9``.
PERIOD2_DAMPING = 0.9

#: Cosine between consecutive Jacobi steps at or below which the
#: dominant error mode is taken to flip sign every sweep.  Phage lambda
#: (where damping would cost 10% more sweeps) reads about ``+0.96``;
#: the toggle switch's oscillating solve reads ``-1.0`` by its second
#: check.
PERIOD2_COSINE = -0.9


def step_cosine(x: np.ndarray, x_prev: np.ndarray, y: np.ndarray,
                diagonal: np.ndarray) -> float:
    """Cosine between the next plain Jacobi step and the last one.

    ``x`` is the (renormalized) iterate at a check, ``x_prev`` the
    iterate one sweep earlier and ``y = A @ x``.  The next step is
    ``-y / diagonal``; the last is ``x - x_prev``, with ``x_prev``
    scaled to unit mass so that the renormalization between the two
    does not leak into the difference.  A value near ``-1`` means the
    error flips sign each sweep.  Returns ``0.0`` (no verdict) when
    either step is zero or anything is non-finite.
    """
    total = float(x_prev.sum())
    if not (np.isfinite(total) and total > 0.0):
        return 0.0
    nxt = y / diagonal
    last = x - x_prev / total
    # Plain NumPy reductions, not ``np.dot``: BLAS would wake its
    # thread pool, whose spinning threads then compete with the sweeps.
    denom = float(np.sqrt((nxt * nxt).sum() * (last * last).sum()))
    if not (np.isfinite(denom) and denom > 0.0):
        return 0.0
    # nxt is the negated next step, so the cosine flips sign once.
    return -float((nxt * last).sum()) / denom


class Period2Detector:
    """One-way switch from plain to damped Jacobi on period-2 oscillation.

    A solve whose caller gave no ``damping`` runs the paper's plain
    iteration and consults :meth:`observe` at every residual check that
    does not stop it.  Once the steps around a check anti-align
    (:func:`step_cosine` at or below :data:`PERIOD2_COSINE`), the rest
    of the solve runs at :data:`PERIOD2_DAMPING`.  The decision depends
    only on the iterates, so the serial, batched (per column) and
    barrier-sharded loops, which produce the same iterates bit for bit,
    switch at the same check.  The state is carried in durable
    checkpoints next to the :class:`StoppingCriterion`'s.
    """

    def __init__(self) -> None:
        #: Iteration of the check that switched to damping, or ``None``.
        self.switched_at: int | None = None

    @property
    def damping(self) -> float:
        """The damping the solve's next sweeps apply."""
        return 1.0 if self.switched_at is None else PERIOD2_DAMPING

    def observe(self, iteration: int, x: np.ndarray,
                x_prev: np.ndarray | None,
                y: np.ndarray, diagonal: np.ndarray) -> bool:
        """Test one check; True when this call switches to damping.

        ``x_prev`` is ``None`` when no sweep ran since the solve began.
        """
        if self.switched_at is not None or x_prev is None:
            return False
        if step_cosine(x, x_prev, y, diagonal) > PERIOD2_COSINE:
            return False
        self.switched_at = int(iteration)
        return True

    def state_dict(self) -> dict:
        """The switch state, JSON-serializable (durable checkpoints)."""
        return {"switched_at": self.switched_at}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
        at = state.get("switched_at")
        self.switched_at = None if at is None else int(at)
