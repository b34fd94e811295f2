"""Resume parity: a resumed solve must match the uninterrupted run.

For the serial solvers and barrier-mode sharding the bar is *bitwise*:
checkpoints are taken at residual-check boundaries (post-renormalize),
the iterate is restored verbatim, and the recomputed pending product is
deterministic — so the resumed trajectory is the uninterrupted one.
The batched and FSP layers assert the same identity on their richer
state (retired columns, per-column histories, round trajectories).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cme.models import toggle_switch
from repro.cme.ratematrix import build_rate_matrix
from repro.cme.statespace import enumerate_state_space
from repro.durability import CheckpointPolicy, Checkpointer, system_signature
from repro.errors import ValidationError
from repro.solvers import GaussSeidelSolver, JacobiSolver, PowerIterationSolver
from repro.sparse.base import as_csr
from repro.sparse.conversion import to_scipy

DAMPING = 0.7
TOL = 1e-10


@pytest.fixture(scope="module")
def system():
    A = build_rate_matrix(
        enumerate_state_space(toggle_switch(max_protein=10)))
    return A


def make_ck(tmp_path, A, *, every=50, resume=False, method="jacobi"):
    return Checkpointer(
        tmp_path, resume=resume,
        signature=system_signature(as_csr(to_scipy(A)), method=method,
                                   tol=TOL),
        policy=CheckpointPolicy(every_iterations=every, keep_last=3))


def assert_identical(reference, resumed):
    assert resumed.stop_reason == reference.stop_reason
    assert resumed.iterations == reference.iterations
    assert resumed.residual == reference.residual
    assert resumed.residual_history == reference.residual_history
    np.testing.assert_array_equal(resumed.x, reference.x)


class TestSerialResume:
    @pytest.mark.parametrize("solver_cls,kwargs", [
        (JacobiSolver, {"damping": DAMPING}),
        (GaussSeidelSolver, {}),
        (PowerIterationSolver, {}),
    ])
    def test_bitwise_equal_to_uninterrupted(self, system, tmp_path,
                                            solver_cls, kwargs):
        reference = solver_cls(system, tol=TOL, **kwargs).solve()
        assert reference.iterations > 100  # enough room to interrupt

        # "Crash" partway: a tight iteration budget stops the first
        # process just past the first check-boundary checkpoint.
        partial_dir = tmp_path / solver_cls.__name__
        ck = make_ck(partial_dir, system, every=50)
        solver_cls(system, tol=TOL, max_iterations=120, **kwargs).solve(
            checkpointer=ck)
        assert ck.saves >= 1

        ck2 = make_ck(partial_dir, system, every=50, resume=True)
        resumed = solver_cls(system, tol=TOL, **kwargs).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert_identical(reference, resumed)

    def test_resume_without_checkpoints_starts_fresh(self, system,
                                                     tmp_path):
        ck = make_ck(tmp_path, system, resume=True)
        result = JacobiSolver(system, tol=TOL, damping=DAMPING).solve(
            checkpointer=ck)
        assert ck.resumed_from is None
        reference = JacobiSolver(system, tol=TOL, damping=DAMPING).solve()
        assert_identical(reference, result)

    def test_wrong_shape_checkpoint_is_skipped(self, system, tmp_path):
        ck = make_ck(tmp_path, system)
        ck.save(100, {"x": np.ones(3)}, {"iteration": 100})
        ck2 = make_ck(tmp_path, system, resume=True)
        from repro.errors import CheckpointError
        with pytest.raises(CheckpointError):
            JacobiSolver(system, tol=TOL, damping=DAMPING).solve(
                checkpointer=ck2)


class TestBatchedResume:
    def test_multi_rhs_resume_is_bitwise(self, system, tmp_path):
        from repro.solvers.batched import BatchedJacobiSolver

        tols = [1e-10, 1e-8, 1e-9]
        solver = BatchedJacobiSolver(system, tol=1e-10, damping=DAMPING)
        reference = solver.solve_many(None, k=3, tols=tols)

        ck = make_ck(tmp_path, system, every=100, method="batched")
        partial = BatchedJacobiSolver(system, tol=1e-10,
                                      max_iterations=400,
                                      damping=DAMPING)
        partial.solve_many(None, k=3, tols=tols, checkpointer=ck)
        assert ck.saves >= 1

        ck2 = make_ck(tmp_path, system, every=100, resume=True,
                      method="batched")
        resumed = BatchedJacobiSolver(
            system, tol=1e-10, damping=DAMPING).solve_many(
            None, k=3, tols=tols, checkpointer=ck2)
        assert ck2.resumed_from is not None
        for ref, res in zip(reference, resumed):
            assert res.iterations == ref.iterations
            assert res.residual == ref.residual
            np.testing.assert_array_equal(res.x, ref.x)


class TestPeriod2Resume:
    """Resume after the period-2 switch keeps the damped trajectory.

    With no explicit ``damping`` the toggle switch's solve switches to
    damped steps at its first check (iteration 100); the partial runs
    stop at 150, so every checkpoint they leave is post-switch.
    """

    def saved_switch(self, tmp_path, system, kind, method):
        data = make_ck(tmp_path, system, resume=True,
                       method=method).load_latest(kind=kind)
        return data.meta["period2"]

    def test_serial(self, system, tmp_path):
        reference = JacobiSolver(system, tol=TOL).solve()
        ck = make_ck(tmp_path, system)
        JacobiSolver(system, tol=TOL, max_iterations=150).solve(
            checkpointer=ck)
        assert self.saved_switch(tmp_path, system, "solver",
                                 "jacobi") == {"switched_at": 100}
        ck2 = make_ck(tmp_path, system, resume=True)
        resumed = JacobiSolver(system, tol=TOL).solve(checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert_identical(reference, resumed)

    def test_batched(self, system, tmp_path):
        from repro.solvers.batched import BatchedJacobiSolver

        tols = [1e-10, 1e-8, 1e-9]
        reference = BatchedJacobiSolver(system, tol=TOL).solve_many(
            None, k=3, tols=tols)
        ck = make_ck(tmp_path, system, every=100, method="batched")
        BatchedJacobiSolver(system, tol=TOL, max_iterations=150).solve_many(
            None, k=3, tols=tols, checkpointer=ck)
        assert self.saved_switch(tmp_path, system, "batched",
                                 "batched") == [{"switched_at": 100}] * 3
        ck2 = make_ck(tmp_path, system, every=100, resume=True,
                      method="batched")
        resumed = BatchedJacobiSolver(system, tol=TOL).solve_many(
            None, k=3, tols=tols, checkpointer=ck2)
        assert ck2.resumed_from is not None
        for ref, res in zip(reference, resumed):
            assert res.iterations == ref.iterations
            assert res.residual == ref.residual
            np.testing.assert_array_equal(res.x, ref.x)

    def test_barrier_sharded(self, system, tmp_path):
        from repro.distributed.sharded import ShardedJacobiSolver

        reference = JacobiSolver(system, tol=TOL).solve()
        ck = make_ck(tmp_path, system, method="sharded")
        ShardedJacobiSolver(system, shards=2, tol=TOL,
                            max_iterations=150).solve(checkpointer=ck)
        assert self.saved_switch(tmp_path, system, "solver",
                                 "sharded") == {"switched_at": 100}
        ck2 = make_ck(tmp_path, system, resume=True, method="sharded")
        resumed = ShardedJacobiSolver(system, shards=2, tol=TOL).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert_identical(reference, resumed)


class TestFspResume:
    def test_round_granular_resume_matches(self, tmp_path):
        from repro.durability import network_signature
        from repro.fsp import AdaptiveFspController

        network = toggle_switch(max_protein=12)
        kwargs = dict(fsp_tol=1e-4, tol=1e-8, initial_size=32)
        reference = AdaptiveFspController(network, **kwargs).solve()
        assert len(reference.rounds) >= 3

        sig = network_signature(network, extra="fsp-test")
        ck = Checkpointer(tmp_path, signature=sig,
                          policy=CheckpointPolicy(every_iterations=1))
        partial = AdaptiveFspController(network, max_rounds=2, **kwargs)
        partial.solve(checkpointer=ck)
        assert ck.saves >= 1

        ck2 = Checkpointer(tmp_path, signature=sig, resume=True,
                           policy=CheckpointPolicy(every_iterations=1))
        resumed = AdaptiveFspController(network, **kwargs).solve(
            checkpointer=ck2)
        assert ck2.resumed_from is not None
        assert resumed.converged == reference.converged
        assert resumed.space.size == reference.space.size
        assert resumed.truncation_mass == reference.truncation_mass
        assert [r.round for r in resumed.rounds] == \
            [r.round for r in reference.rounds]
        np.testing.assert_array_equal(resumed.x, reference.x)


class TestFrontDoor:
    def test_solve_steady_state_checkpoint_and_resume(self, tmp_path):
        from repro import solve_steady_state

        network = toggle_switch(max_protein=8)
        reference = solve_steady_state(network, tol=1e-9, damping=DAMPING)
        solve_steady_state(network, tol=1e-9, damping=DAMPING,
                           max_iterations=150,
                           checkpoint=tmp_path, checkpoint_every=50)
        assert list(tmp_path.glob("ckpt-*.ckpt"))
        resumed = solve_steady_state(network, tol=1e-9, damping=DAMPING,
                                     checkpoint=tmp_path, resume=True,
                                     checkpoint_every=50)
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.x, reference.x)

    def test_resume_requires_checkpoint_dir(self):
        from repro import solve_steady_state
        with pytest.raises(ValidationError, match="checkpoint"):
            solve_steady_state(toggle_switch(max_protein=6), resume=True)

    def test_uncheckpointable_method_is_rejected(self, tmp_path):
        from repro import solve_steady_state
        with pytest.raises(ValidationError, match="does not support"):
            solve_steady_state(toggle_switch(max_protein=6),
                               method="resilient", checkpoint=tmp_path)

    def test_signature_isolation_between_methods(self, tmp_path):
        """A jacobi-signed checkpoint never seeds a power resume."""
        from repro import solve_steady_state

        network = toggle_switch(max_protein=8)
        solve_steady_state(network, tol=1e-9, damping=DAMPING,
                           max_iterations=150, checkpoint=tmp_path,
                           checkpoint_every=50)
        reference = solve_steady_state(network, method="power", tol=1e-9)
        resumed = solve_steady_state(network, method="power", tol=1e-9,
                                     checkpoint=tmp_path, resume=True)
        # Mismatched signatures are rejected; the solve runs fresh and
        # still lands on the fresh answer.
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.x, reference.x)
