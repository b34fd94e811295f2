"""The certificate is sound: bound >= true outside-projection mass.

For models small enough to enumerate fully, solve the full-capacity
steady state, measure the probability mass that actually lives outside
the adaptive projection, and check the certified truncation bound
dominates it.  Run at several tolerances so the check covers coarse and
fine projections alike.
"""

import numpy as np
import pytest

from repro.cme import build_rate_matrix, enumerate_state_space
from repro.cme.models import toggle_switch
from repro.cme.models.phage_lambda import phage_lambda
from repro.fsp import AdaptiveFspController
from repro.solvers import JacobiSolver
from repro.telemetry import tracing
from repro.telemetry.tracing import TraceRecorder


def true_outside_mass(network, projection):
    full = enumerate_state_space(network)
    pf = JacobiSolver(build_rate_matrix(full)).solve().x
    idx = full.lookup(projection.states)
    assert idx.min() >= 0, "projection escaped the reachable space"
    return float(1.0 - pf[idx].sum()), full


class TestToggleSwitch:
    @pytest.mark.parametrize("fsp_tol", [1e-2, 1e-4, 1e-6])
    def test_bound_dominates_true_mass(self, fsp_tol):
        net = toggle_switch(max_protein=12)
        result = AdaptiveFspController(net, fsp_tol=fsp_tol,
                                       initial_size=16).solve()
        assert result.converged
        outside, full = true_outside_mass(net, result.space)
        assert result.truncation_mass <= fsp_tol
        assert result.truncation_mass >= outside - 1e-12
        if result.space.size == full.size:
            assert result.truncation_mass == 0.0


class TestPhageLambda:
    @pytest.mark.parametrize("fsp_tol", [1e-2, 1e-4])
    def test_bound_dominates_true_mass(self, fsp_tol):
        net = phage_lambda(max_monomer=5, max_dimer=2)
        result = AdaptiveFspController(net, fsp_tol=fsp_tol,
                                       initial_size=48).solve()
        assert result.converged
        outside, full = true_outside_mass(net, result.space)
        assert result.truncation_mass >= outside - 1e-12
        # The point of FSP: the certified projection is smaller than the
        # full enumeration at coarse tolerances.
        if fsp_tol >= 1e-2:
            assert result.space.size < full.size

    def test_tightening_tolerance_tightens_truth(self):
        """Smaller fsp_tol must not leave MORE true mass outside."""
        net = phage_lambda(max_monomer=5, max_dimer=2)
        masses = []
        for fsp_tol in (1e-2, 1e-5):
            result = AdaptiveFspController(net, fsp_tol=fsp_tol,
                                           initial_size=48).solve()
            assert result.converged
            outside, _ = true_outside_mass(net, result.space)
            masses.append(outside)
        assert masses[1] <= masses[0] + 1e-12


class TestUnmovedWarmStart:
    """After growth the remapped warm start holds zeros on the new
    states; when it already meets the round's loose tolerance, the inner
    solve returns it unmoved and a bound measured on it is blind to the
    new boundary (here it would certify 0 against 1.65e-6 outside)."""

    def test_certificate_stays_sound(self):
        net = phage_lambda(max_monomer=5, max_dimer=2)
        controller = AdaptiveFspController(net, fsp_tol=1e-5, tol=1e-5,
                                           initial_size=48, expand_depth=1)
        rec = TraceRecorder()
        with tracing.recording(rec):
            result = controller.solve()
        assert result.reason == "certified"

        # The scenario happened: a round whose projection grew ran an
        # inner solve that returned its warm start unmoved.
        events = rec.events
        rounds = [e for e in events if e["name"] == "fsp.round"]
        solves = [e for e in events if e["name"] == "jacobi.solve"]

        def inner(round_ev):
            lo, hi = round_ev["start_us"], round_ev["start_us"] + \
                round_ev["dur_us"]
            return [e["args"]["iterations"] for e in
                    sorted(solves, key=lambda e: e["start_us"])
                    if lo <= e["start_us"] <= hi]

        grown = {r.round for r in result.rounds if r.added or r.pruned}
        assert any(inner(e)[0] == 0 for e in rounds
                   if e["args"]["round"] in grown)

        outside, _ = true_outside_mass(net, result.space)
        assert result.truncation_mass <= 1e-5
        assert result.truncation_mass >= outside - 1e-12
        # No round whose projection changed kept an unmoved iterate.
        for r in result.rounds:
            if r.added or r.pruned:
                assert r.iterations > 0
        # The certifying round re-solved the projection the round before
        # it built, and the certificate rests on solves that moved the
        # iterate on that projection.
        cert, built = result.rounds[-1], result.rounds[-2]
        assert cert.added == cert.pruned == 0
        assert cert.states == built.states
        assert built.added > 0
        assert built.iterations + cert.iterations > 0

    def test_round_residuals_use_the_projection_norm(self):
        net = phage_lambda(max_monomer=8, max_dimer=3)
        controller = AdaptiveFspController(net, fsp_tol=1e-4,
                                           initial_size=48)
        result = controller.solve()
        assert result.reason == "certified"
        _, _, _, scale = controller._system(result.space)
        assert scale > 2.0  # the sink's row dominates the system norm
        A, _ = controller.assembler.assemble(result.space)
        r = np.abs(A @ result.x)
        # The one row where the sink re-injects mass differs.
        r[controller._redirect_index(result.space)] = 0.0
        projected = float(r.max()) / (
            float(abs(A).sum(axis=1).max()) * float(result.x.max()))
        last = result.rounds[-1]
        # Normalized by the sink-augmented norm, the reported residual
        # would be ``scale`` times smaller than this recomputation.
        assert projected <= last.residual * (1.0 + 1e-6)
        assert last.residual <= controller.tol
        assert result.to_solver_result().residual == last.residual
