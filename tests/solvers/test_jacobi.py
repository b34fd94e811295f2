"""Unit + correctness tests for the Jacobi steady-state solver.

A mathematical subtlety these tests document: on a pure birth-death
chain the Jacobi iteration matrix ``M = I - D^{-1}A`` is *bipartite*
(states split by parity, ``diag(M) = 0``), so it has an eigenvalue at
exactly -1 and the plain iteration oscillates forever — whereas any
damping ``omega < 1`` maps that eigenvalue inside the unit circle and
converges rapidly.  Realistic CME networks (the paper's benchmarks)
have parity-mixing reactions and converge plain, as Table IV shows.
"""

import numpy as np
import pytest

from repro.errors import SingularMatrixError, ValidationError
from repro.solvers import JacobiSolver
from repro.solvers.result import StopReason
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell_dia import ELLDIAMatrix
from repro.sparse.warped_ell import WarpedELLMatrix
from tests.conftest import truncated_poisson


class TestCorrectness:
    def test_birth_death_analytic(self, birth_death_matrix):
        result = JacobiSolver(birth_death_matrix, tol=1e-12, damping=0.6,
                              max_iterations=50_000).solve()
        assert result.converged
        np.testing.assert_allclose(result.x, truncated_poisson(4.0, 30),
                                   atol=1e-9)

    def test_bipartite_oscillation_needs_damping(self, birth_death_matrix):
        """Plain Jacobi oscillates on the bipartite chain; damped converges."""
        plain = JacobiSolver(birth_death_matrix, tol=1e-10, damping=1.0,
                             max_iterations=20_000).solve()
        damped = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                              max_iterations=20_000).solve()
        assert not plain.converged
        assert damped.converged
        # With no explicit damping the loop detects the oscillation.
        default = JacobiSolver(birth_death_matrix, tol=1e-10,
                               max_iterations=20_000).solve()
        assert default.converged

    def test_probability_vector_maintained(self, tiny_toggle_matrix):
        result = JacobiSolver(tiny_toggle_matrix, tol=1e-9, damping=0.7,
                              max_iterations=50_000).solve()
        assert result.x.min() >= 0
        assert result.x.sum() == pytest.approx(1.0)

    def test_custom_x0(self, birth_death_matrix):
        n = birth_death_matrix.shape[0]
        x0 = np.zeros(n)
        x0[0] = 1.0
        result = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                              max_iterations=50_000).solve(x0)
        np.testing.assert_allclose(result.x, truncated_poisson(4.0, 30),
                                   atol=1e-7)

    def test_steady_start_converges_immediately(self, birth_death_matrix):
        p = truncated_poisson(4.0, 30)
        result = JacobiSolver(birth_death_matrix, tol=1e-8,
                              check_interval=10).solve(p)
        assert result.converged
        assert result.iterations <= 10


class TestBackends:
    @pytest.mark.parametrize("build", [
        CSRMatrix,
        ELLDIAMatrix,
        lambda A: WarpedELLMatrix(A, separate_diagonal=True),
    ])
    def test_format_backend_matches_fast(self, build, birth_death_matrix):
        fmt = build(birth_death_matrix)
        fast = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                            max_iterations=20_000).solve()
        via_fmt = JacobiSolver(fmt, step="format", tol=1e-10, damping=0.6,
                               max_iterations=20_000).solve()
        assert fast.converged and via_fmt.converged
        np.testing.assert_allclose(via_fmt.x, fast.x, atol=1e-9)

    def test_format_backend_requires_capability(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="jacobi_step"):
            JacobiSolver(birth_death_matrix, step="format")

    def test_unknown_backend(self, birth_death_matrix):
        with pytest.raises(ValidationError):
            JacobiSolver(birth_death_matrix, step="magic")


class TestDamping:
    def test_damped_step_blend(self, birth_death_matrix, rng):
        x = rng.random(birth_death_matrix.shape[0])
        full = JacobiSolver(birth_death_matrix).step_once(x)
        half = JacobiSolver(birth_death_matrix, damping=0.5).step_once(x)
        np.testing.assert_allclose(half, 0.5 * x + 0.5 * full, rtol=1e-12)

    def test_damping_factors_agree_on_fixed_point(self, birth_death_matrix):
        a = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                         max_iterations=50_000).solve()
        b = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.9,
                         max_iterations=50_000).solve()
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, atol=1e-8)

    @pytest.mark.parametrize("omega", [0.0, 1.5, -0.2])
    def test_range_validated(self, birth_death_matrix, omega):
        with pytest.raises(ValidationError):
            JacobiSolver(birth_death_matrix, damping=omega)


class TestStoppingIntegration:
    def test_max_iterations_reported(self, tiny_toggle_matrix):
        result = JacobiSolver(tiny_toggle_matrix, tol=1e-15,
                              max_iterations=50, check_interval=25,
                              stagnation_tol=None).solve()
        assert result.stop_reason is StopReason.MAX_ITERATIONS
        assert result.iterations == 50

    def test_history_recorded(self, birth_death_matrix):
        result = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                              check_interval=50,
                              max_iterations=20_000).solve()
        assert len(result.residual_history) >= 1
        iterations = [it for it, _ in result.residual_history]
        assert iterations == sorted(iterations)

    def test_residual_is_normalized_metric(self, birth_death_matrix):
        result = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                              max_iterations=20_000).solve()
        A = birth_death_matrix
        norm = abs(A).sum(axis=1).max() * np.abs(result.x).max()
        expected = np.abs(A @ result.x).max() / norm
        assert result.residual == pytest.approx(expected, rel=1e-9)


class TestValidation:
    def test_zero_diagonal_rejected(self):
        with pytest.raises(SingularMatrixError):
            JacobiSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rectangular_rejected(self):
        import scipy.sparse as sp
        with pytest.raises(ValidationError):
            JacobiSolver(sp.random(3, 4, density=0.9, random_state=0))

    def test_wrong_x0_length(self, birth_death_matrix):
        with pytest.raises(ValidationError):
            JacobiSolver(birth_death_matrix).solve(np.ones(7) / 7)


class TestWarmStartValidation:
    def test_negative_x0_rejected(self, birth_death_matrix):
        n = birth_death_matrix.shape[0]
        x0 = np.ones(n)
        x0[3] = -0.1
        with pytest.raises(ValidationError, match="negative"):
            JacobiSolver(birth_death_matrix).solve(x0)

    def test_non_finite_x0_rejected(self, birth_death_matrix):
        n = birth_death_matrix.shape[0]
        for bad in (np.nan, np.inf):
            x0 = np.ones(n)
            x0[0] = bad
            with pytest.raises(ValidationError, match="finite"):
                JacobiSolver(birth_death_matrix).solve(x0)

    def test_zero_mass_x0_rejected(self, birth_death_matrix):
        n = birth_death_matrix.shape[0]
        with pytest.raises(ValidationError):
            JacobiSolver(birth_death_matrix).solve(np.zeros(n))

    def test_unnormalized_x0_renormalized(self, birth_death_matrix):
        """An unscaled but shape-correct guess converges to the same answer."""
        solver = JacobiSolver(birth_death_matrix, tol=1e-10, damping=0.6,
                              max_iterations=50_000)
        reference = solver.solve()
        scaled = solver.solve(1000.0 * reference.x)
        np.testing.assert_allclose(scaled.x, reference.x, atol=1e-9)
        assert scaled.iterations <= reference.iterations


class TestWarmStartRegression:
    def test_nearby_toggle_solution_converges_faster(self):
        """A converged neighbor distribution beats the uniform start."""
        from repro.cme.models.toggle_switch import toggle_switch
        from repro.cme.ratematrix import build_rate_matrix
        from repro.cme.statespace import StateSpace, enumerate_state_space

        base = toggle_switch(max_protein=12)
        space = enumerate_state_space(base)
        opts = dict(tol=1e-10, damping=0.8, check_interval=10,
                    max_iterations=100_000)
        donor = JacobiSolver(build_rate_matrix(space), **opts).solve()

        varied = base.with_rates({"degA": 0.95, "degB": 1.05})
        A = build_rate_matrix(StateSpace(network=varied, states=space.states))
        solver = JacobiSolver(A, **opts)
        cold = solver.solve()
        warm = solver.solve(x0=donor.x)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)


class TestTimeBudget:
    def test_expiry_reports_timed_out(self, tiny_toggle_matrix):
        result = JacobiSolver(tiny_toggle_matrix, tol=1e-15,
                              check_interval=10, stagnation_tol=None,
                              max_iterations=10_000_000).solve(
                                  time_budget_s=1e-6)
        assert result.stop_reason is StopReason.TIMED_OUT
        assert 0 < result.iterations < 10_000_000
        assert result.x.sum() == pytest.approx(1.0), \
            "partial iterate still a distribution"

    def test_generous_budget_converges(self, birth_death_matrix):
        result = JacobiSolver(birth_death_matrix, tol=1e-8, damping=0.6,
                              max_iterations=50_000).solve(
                                  time_budget_s=60.0)
        assert result.converged

    def test_budget_validated(self, birth_death_matrix):
        with pytest.raises(ValidationError, match="time_budget_s"):
            JacobiSolver(birth_death_matrix).solve(time_budget_s=0.0)
