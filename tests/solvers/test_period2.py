"""Period-2 detection: plain Jacobi switches to damping on oscillation.

With no explicit ``damping`` the Jacobi loop runs the paper's plain
iteration and, at each residual check, compares the next step with the
last one.  An error mode that flips sign every sweep switches the rest
of the solve to :data:`PERIOD2_DAMPING`; an explicit ``damping``
(``1.0`` included) turns detection off.  The serial, batched and
barrier-sharded loops must make the same decision at the same check.
"""

import numpy as np
import pytest

from repro import backends, solve_steady_state
from repro.cme import build_rate_matrix, enumerate_state_space
from repro.cme.models import toggle_switch
from repro.cme.models.phage_lambda import phage_lambda
from repro.cme.statespace import StateSpace
from repro.solvers import BatchedJacobiSolver, JacobiSolver
from repro.solvers.stopping import (
    PERIOD2_DAMPING,
    Period2Detector,
    step_cosine,
)
from repro.telemetry import tracing
from repro.telemetry.tracing import TraceRecorder


@pytest.fixture(scope="module")
def toggle15():
    return build_rate_matrix(enumerate_state_space(
        toggle_switch(max_protein=15)))


def damped_at(A, x0=None, **kwargs):
    """The check at which a serial solve switched (``None``: never)."""
    rec = TraceRecorder()
    with tracing.recording(rec):
        result = JacobiSolver(A, **kwargs).solve(x0)
    (ev,) = [e for e in rec.events if e["name"] == "jacobi.solve"]
    return ev["args"].get("damped_at"), result


class TestStepCosine:
    def test_sign_flipping_error_reads_minus_one(self):
        # x_{k-1} = p + e, x_k = p - e, and a next step of -2(-e) = 2e
        # is what a pure eigenvalue -1 mode produces.
        p = np.full(4, 0.25)
        e = np.array([1e-3, -1e-3, 2e-3, -2e-3])
        d = np.full(4, -2.0)
        y = -d * (2.0 * e)        # next step -y/d = 2e
        assert step_cosine(p - e, p + e, y, d) == pytest.approx(-1.0)

    def test_monotone_error_reads_positive(self):
        p = np.full(4, 0.25)
        e = np.array([1e-3, -1e-3, 2e-3, -2e-3])
        d = np.full(4, -2.0)
        y = -d * (-0.5 * e)       # the error keeps shrinking the same way
        assert step_cosine(p + 0.5 * e, p + e, y, d) > 0.9

    def test_degenerate_inputs_give_no_verdict(self):
        x = np.full(4, 0.25)
        d = np.full(4, -1.0)
        assert step_cosine(x, x, np.zeros(4), d) == 0.0
        assert step_cosine(x, np.zeros(4), np.ones(4), d) == 0.0
        assert step_cosine(x, np.full(4, np.nan), np.ones(4), d) == 0.0

    def test_detector_switches_once_and_round_trips(self):
        det = Period2Detector()
        assert det.damping == 1.0
        p = np.full(4, 0.25)
        e = np.array([1e-3, -1e-3, 2e-3, -2e-3])
        d = np.full(4, -2.0)
        assert det.observe(300, p - e, p + e, -d * 2.0 * e, d)
        assert det.damping == PERIOD2_DAMPING
        assert not det.observe(400, p - e, p + e, -d * 2.0 * e, d)
        clone = Period2Detector()
        clone.load_state(det.state_dict())
        assert clone.switched_at == 300
        assert clone.damping == PERIOD2_DAMPING


class TestFrontDoor:
    def test_toggle_converges_without_options(self):
        net = toggle_switch(max_protein=15)
        default = solve_steady_state(net)
        plain = solve_steady_state(net, damping=1.0)
        assert default.converged
        assert default.iterations <= 1_000
        # The plain paper iteration needs over ten times as many sweeps.
        assert plain.converged
        assert plain.iterations > 10 * default.iterations

    def test_phage_lambda_detector_stays_silent(self):
        net = phage_lambda()
        default = solve_steady_state(net)
        plain = solve_steady_state(net, damping=1.0)
        assert default.converged
        assert default.iterations == 6_200
        assert plain.iterations == default.iterations
        np.testing.assert_array_equal(default.x, plain.x)


class TestParity:
    def test_explicit_damping_disables_detection(self, toggle15):
        at, plain = damped_at(toggle15, damping=1.0, max_iterations=2_000)
        assert at is None
        assert not plain.converged
        at, default = damped_at(toggle15)
        assert at is not None
        assert default.converged

    @pytest.mark.parametrize("backend", backends.available_backends())
    def test_batched_columns_switch_like_serial(self, toggle15, backend):
        """Columns that switch at different checks stay bitwise serial."""
        rng = np.random.default_rng(0)
        x0s = [None, rng.random(toggle15.shape[0])]
        with backends.use(backend):
            switches = [damped_at(toggle15, x0) for x0 in x0s]
            batched = BatchedJacobiSolver(toggle15).solve_many(x0s)
        # The batch spends checks with one column damped and one not.
        assert switches[0][0] != switches[1][0]
        for (_, serial), got in zip(switches, batched):
            assert got.iterations == serial.iterations
            assert got.residual == serial.residual
            np.testing.assert_array_equal(got.x, serial.x)

    def test_stacked_columns_match_serial(self):
        net = toggle_switch(max_protein=15)
        space = enumerate_state_space(net)
        mats = [build_rate_matrix(StateSpace(
            network=net.with_rates({"degA": v}), states=space.states))
            for v in (0.5, 1.0, 2.5)]
        expected = [JacobiSolver(A).solve() for A in mats]
        got = BatchedJacobiSolver.stacked(mats).solve_many()
        for s, b in zip(expected, got):
            assert b.iterations == s.iterations
            np.testing.assert_array_equal(b.x, s.x)

    def test_barrier_sharded_switches_like_serial(self, toggle15):
        from repro.distributed.sharded import ShardedJacobiSolver
        serial = JacobiSolver(toggle15).solve()
        sharded = ShardedJacobiSolver(toggle15, shards=2).solve()
        assert serial.iterations < 1_000
        assert sharded.iterations == serial.iterations
        assert sharded.residual == serial.residual
        np.testing.assert_array_equal(sharded.x, serial.x)
