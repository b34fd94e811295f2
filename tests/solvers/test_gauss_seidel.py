"""Tests for the Gauss-Seidel contrast solver."""

import numpy as np
import pytest

from repro.errors import SingularMatrixError, ValidationError
from repro.solvers import GaussSeidelSolver, JacobiSolver
from tests.conftest import truncated_poisson


class TestCorrectness:
    def test_birth_death_analytic(self, birth_death_matrix):
        result = GaussSeidelSolver(birth_death_matrix, tol=1e-11,
                                   max_iterations=20_000).solve()
        assert result.converged
        np.testing.assert_allclose(result.x, truncated_poisson(4.0, 30),
                                   atol=1e-8)

    def test_no_bipartite_oscillation(self, birth_death_matrix):
        """GS's triangular solve breaks the parity mode plain Jacobi hits."""
        gs = GaussSeidelSolver(birth_death_matrix, tol=1e-10,
                               max_iterations=20_000).solve()
        plain_jacobi = JacobiSolver(birth_death_matrix, tol=1e-10,
                                    damping=1.0,
                                    max_iterations=20_000).solve()
        assert gs.converged
        assert not plain_jacobi.converged
        # Jacobi's default detects the parity mode and damps it.
        assert JacobiSolver(birth_death_matrix, tol=1e-10,
                            max_iterations=20_000).solve().converged

    def test_agrees_with_jacobi_on_toggle(self, tiny_toggle_matrix):
        gs = GaussSeidelSolver(tiny_toggle_matrix, tol=1e-10,
                               max_iterations=50_000).solve()
        ja = JacobiSolver(tiny_toggle_matrix, tol=1e-10, damping=0.7,
                          max_iterations=200_000).solve()
        assert gs.converged and ja.converged
        np.testing.assert_allclose(gs.x, ja.x, atol=1e-8)

    def test_fewer_iterations_than_jacobi(self, tiny_toggle_matrix):
        """The Section IV trade-off: GS converges in fewer sweeps."""
        gs = GaussSeidelSolver(tiny_toggle_matrix, tol=1e-9,
                               check_interval=10,
                               max_iterations=50_000).solve()
        ja = JacobiSolver(tiny_toggle_matrix, tol=1e-9, damping=0.7,
                          check_interval=10,
                          max_iterations=200_000).solve()
        assert gs.iterations < ja.iterations


class TestStep:
    def test_step_is_triangular_solve(self, birth_death_matrix, rng):
        solver = GaussSeidelSolver(birth_death_matrix)
        x = rng.random(31)
        new = solver.step_once(x)
        # (D + L) x' = -U x  must hold exactly.
        lhs = solver.lower @ new
        rhs = -(solver.upper @ x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestValidation:
    def test_zero_diagonal(self):
        with pytest.raises(SingularMatrixError):
            GaussSeidelSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rectangular(self):
        import scipy.sparse as sp
        with pytest.raises(ValidationError):
            GaussSeidelSolver(sp.random(3, 4, density=0.9, random_state=0))

    def test_probability_maintained(self, tiny_toggle_matrix):
        result = GaussSeidelSolver(tiny_toggle_matrix, tol=1e-9,
                                   max_iterations=50_000).solve()
        assert result.x.min() >= 0
        assert result.x.sum() == pytest.approx(1.0)
