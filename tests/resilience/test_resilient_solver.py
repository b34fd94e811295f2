"""The fallback-chain solver: convergence, fallbacks, hook contract."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SingularSystemError, ValidationError
from repro.solvers import (
    SOLVER_REGISTRY,
    JacobiSolver,
    ResilientSolver,
    StopReason,
)
from repro.telemetry import RecordingHooks


class TestConstruction:
    def test_registered(self):
        assert SOLVER_REGISTRY["resilient"] is ResilientSolver

    def test_empty_chain_rejected(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="at least one"):
            ResilientSolver(birth_death_matrix, chain=())

    def test_unknown_chain_method_rejected(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="unknown chain"):
            ResilientSolver(birth_death_matrix, chain=("jacobi", "sor"))

    def test_chain_names_normalized(self, birth_death_matrix):
        solver = ResilientSolver(birth_death_matrix,
                                 chain=("gauss_seidel", "GMRES"))
        assert solver.chain == ("gauss-seidel", "gmres")

    def test_options_validated_against_chain_union(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="unknown solver options"):
            ResilientSolver(birth_death_matrix, chain=("gauss-seidel",),
                            damping=0.8)  # a Jacobi-only option
        # ... but fine when the chain includes Jacobi.
        ResilientSolver(birth_death_matrix, damping=0.8)

    def test_zero_row_raises_singular(self):
        A = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, -1.0]]))
        # Construction succeeds (the chain members are built lazily);
        # the solve surfaces the chain's terminal SingularSystemError.
        solver = ResilientSolver(A, chain=("jacobi",))
        with pytest.raises(SingularSystemError, match="all-zero row"):
            solver.solve()


class TestSolve:
    def test_converges_like_jacobi(self, birth_death_matrix):
        resilient = ResilientSolver(birth_death_matrix, tol=1e-10,
                                    damping=0.8).solve()
        jacobi = JacobiSolver(birth_death_matrix, tol=1e-10,
                              damping=0.8).solve()
        assert resilient.converged
        np.testing.assert_allclose(resilient.x, jacobi.x, atol=1e-9)
        assert resilient.recovery is not None
        assert resilient.recovery.fallback_chain == ["jacobi"]

    def test_falls_back_when_jacobi_stagnates(self, birth_death_matrix):
        # Plain Jacobi oscillates on the bipartite-ish birth-death
        # chain and stagnates; the chain should hand its iterate to
        # Gauss-Seidel, which finishes the job.
        result = ResilientSolver(birth_death_matrix, tol=1e-10,
                                 damping=1.0).solve()
        assert result.converged
        assert result.recovery.fallback_chain[:2] == ["jacobi",
                                                      "gauss-seidel"]
        assert result.recovery.recovered
        direct = JacobiSolver(birth_death_matrix, tol=1e-10,
                              damping=0.8).solve()
        np.testing.assert_allclose(result.x, direct.x, atol=1e-8)
        # The default Jacobi attempt detects the oscillation itself.
        default = ResilientSolver(birth_death_matrix, tol=1e-10).solve()
        assert default.converged
        assert default.recovery.fallback_chain == ["jacobi"]

    def test_iterations_sum_across_attempts(self, birth_death_matrix):
        result = ResilientSolver(birth_death_matrix, tol=1e-10,
                                 damping=1.0).solve()
        assert len(result.recovery.fallback_chain) >= 2
        # The combined count includes the stagnated Jacobi attempt.
        stagnated = JacobiSolver(birth_death_matrix, tol=1e-10,
                                 damping=1.0).solve()
        assert result.iterations > stagnated.iterations
        # By default the Jacobi attempt converges and is the only one.
        default = ResilientSolver(birth_death_matrix, tol=1e-10).solve()
        assert default.iterations == JacobiSolver(
            birth_death_matrix, tol=1e-10).solve().iterations

    def test_gmres_last_resort(self, birth_death_matrix):
        result = ResilientSolver(birth_death_matrix, tol=1e-10,
                                 chain=("gmres",)).solve()
        assert result.converged
        direct = JacobiSolver(birth_death_matrix, tol=1e-10,
                              damping=0.8).solve()
        np.testing.assert_allclose(result.x, direct.x, atol=1e-8)

    def test_hooks_fire_stop_exactly_once_across_fallbacks(
            self, birth_death_matrix):
        hooks = RecordingHooks()
        result = ResilientSolver(birth_death_matrix, tol=1e-10,
                                 damping=1.0).solve(hooks=hooks)
        assert len(result.recovery.fallback_chain) >= 2
        assert hooks.stop_calls == 1
        assert hooks.stop_reason is result.stop_reason
        assert hooks.iterations == result.iterations
        # The default converges on its first attempt, hooks still once.
        hooks = RecordingHooks()
        result = ResilientSolver(birth_death_matrix,
                                 tol=1e-10).solve(hooks=hooks)
        assert result.converged
        assert hooks.stop_calls == 1
        assert hooks.iterations == result.iterations

    def test_time_budget_returns_partial_result(self, birth_death_matrix):
        result = ResilientSolver(birth_death_matrix, tol=1e-300,
                                 stagnation_tol=None, damping=0.8,
                                 check_interval=5).solve(time_budget_s=1e-9)
        assert result.stop_reason is StopReason.TIMED_OUT
        assert result.x.sum() == pytest.approx(1.0)

    def test_rejects_non_positive_budget(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="time_budget_s"):
            ResilientSolver(birth_death_matrix).solve(time_budget_s=0)
