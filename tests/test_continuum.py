"""Tests for the smooth flow, its invariants, and first-order embedding."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dnahm
from dnahm.errors import RangeNotCovered

PAULI1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def euler_f(triple):
    """Extract (f1, f2, f3) from an su(2) Euler-ansatz triple."""
    return (
        (2j * np.asarray(triple.t1)[0, 1]).real,
        (2j * (np.asarray(triple.t2)[0, 1] * 1j)).real,
        (2j * np.asarray(triple.t3)[0, 0]).real,
    )


class TestRhs:
    def test_commuting_diagonals_are_stationary(self):
        state = dnahm.NahmState(
            z=0.0,
            sigma=dnahm.cmatrix(np.diag([1.0, 2.0])),
            tau=dnahm.cmatrix(np.diag([3.0 + 1j, -1.0])),
        )
        dsigma, dtau = dnahm.nahm_rhs(state)
        assert dnahm.max_abs(dsigma) == 0.0
        assert dnahm.max_abs(dtau) == 0.0

    def test_euler_top_reduction(self):
        f = (0.3, 0.4, 0.5)
        state = dnahm.state_from_triple(dnahm.euler_top_triple(f))
        dsigma, dtau = dnahm.nahm_rhs(state)
        # f1' = f2 f3, f2' = f3 f1, f3' = f1 f2 through the su(2) embedding
        assert_allclose(dsigma, (f[1] * f[2] / 2) * PAULI1, atol=1e-15)
        expected_dtau = (f[2] * f[0] / 2) * (-1j * PAULI2) + 1j * (f[0] * f[1] / 2) * (
            -1j * PAULI3
        )
        assert_allclose(dtau, expected_dtau, atol=1e-15)

    def test_finite_difference_oracle(self):
        triple = dnahm.random_skew_triple(3, seed=40, scale=0.3)
        eps = 1e-6
        stepped = dnahm.integrate_nahm(triple, 0.0, eps, 1).states[-1]
        s0 = dnahm.state_from_triple(triple)
        s1 = dnahm.state_from_triple(stepped)
        dsigma, dtau = dnahm.nahm_rhs(s0)
        assert dnahm.max_abs((s1.sigma - s0.sigma) / eps - dsigma) < 1e-5
        assert dnahm.max_abs((s1.tau - s0.tau) / eps - dtau) < 1e-5


class TestIntegrate:
    def test_zero_data_constant(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        traj = dnahm.integrate_nahm(dnahm.NahmTriple(z, z, z), 0.0, 1.0, 50)
        assert dnahm.max_abs(traj.states[-1].t1) == 0.0

    def test_commuting_data_constant(self):
        t = dnahm.NahmTriple(
            dnahm.cmatrix(np.diag([1j, -1j])),
            dnahm.cmatrix(np.diag([2j, 0.5j])),
            dnahm.cmatrix(np.diag([-0.3j, 0.1j])),
        )
        traj = dnahm.integrate_nahm(t, 0.0, 1.0, 50)
        assert dnahm.max_abs(traj.states[-1].t2 - t.t2) < 1e-14

    def test_euler_invariants_conserved(self):
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple((0.3, 0.4, 0.5)), 0.0, 1.0, 2000)
        f0 = euler_f(traj.states[0])
        inv0 = (f0[0] ** 2 - f0[1] ** 2, f0[0] ** 2 - f0[2] ** 2)
        for state in traj.states[::100]:
            f = euler_f(state)
            assert abs(f[0] ** 2 - f[1] ** 2 - inv0[0]) < 1e-9
            assert abs(f[0] ** 2 - f[2] ** 2 - inv0[1]) < 1e-9

    def test_skew_hermiticity_preserved(self):
        traj = dnahm.integrate_nahm(dnahm.random_skew_triple(3, seed=41, scale=0.4), 0.0, 1.0, 200)
        for state in traj.states[::40]:
            for t in (state.t1, state.t2, state.t3):
                assert dnahm.max_abs(t + t.conj().T) < 1e-10

    def test_lax_coefficients_conserved(self):
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple(), 0.0, 1.0, 1000)
        assert dnahm.invariant_drift(traj, stride=50) < 1e-8


class TestEmbed:
    def test_zero_trajectory(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        traj = dnahm.integrate_nahm(dnahm.NahmTriple(z, z, z), 0.0, 1.0, 10)
        h = 0.05
        chain = dnahm.embed(traj, h, range(0, 5))
        for g in chain.gammas:
            assert dnahm.max_abs(g - np.eye(2) / (2 * h)) == 0.0
        for b in chain.betas:
            assert dnahm.max_abs(b) == 0.0
        res = dnahm.ba_residuals(chain)
        assert res.max == 0.0

    def test_range_not_covered(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        traj = dnahm.integrate_nahm(dnahm.NahmTriple(z, z, z), 0.0, 0.1, 5)
        with pytest.raises(RangeNotCovered):
            dnahm.embed(traj, 0.05, range(0, 10))

    def test_generic_residuals_halve(self):
        triple = dnahm.random_skew_triple(2, seed=0)
        rows = dnahm.residual_scaling(triple, [0.02, 0.01])
        assert 0.4 <= rows[1].r_evolution / rows[0].r_evolution <= 0.6
        assert 0.4 <= rows[1].r_metric / rows[0].r_metric <= 0.6

    @pytest.mark.parametrize("k, seed", [(2, 805021), (2, 2020), (3, 41)])
    def test_residuals_independent_of_grid_alignment(self, k, seed):
        # 2240 steps over the span 1.12 put every embedding node on the RK4
        # grid; the default 2000 put them between grid nodes, where the
        # interpolation error (O(step^4) for cubic Hermite) must stay far
        # below residuals of order 1e-8. Linear interpolation missed by up to 78%.
        triple = dnahm.random_skew_triple(k, seed)
        off_grid = dnahm.residual_scaling(triple, [0.04, 0.02, 0.01])
        on_grid = dnahm.residual_scaling(triple, [0.04, 0.02, 0.01], rk_steps=2240)
        for a, b in zip(off_grid, on_grid):
            assert a.r_evolution == pytest.approx(b.r_evolution, rel=1e-5)
            assert a.r_metric == pytest.approx(b.r_metric, rel=1e-5)

    def test_euler_top_family_asymmetry(self):
        # For the literal su(2) Euler top sigma^2 is a scalar matrix, so the
        # first-order coefficient [sigma^2, tau] of the evolution-equation
        # residual vanishes identically: that family is second order, while
        # the metric-equation family keeps the generic first-order halving.
        rows = dnahm.residual_scaling(dnahm.euler_top_triple((0.3, 0.4, 0.5)), [0.02, 0.01])
        metric_ratio = rows[1].r_metric / rows[0].r_metric
        evolution_ratio = rows[1].r_evolution / rows[0].r_evolution
        assert 0.4 <= metric_ratio <= 0.6
        assert 0.15 <= evolution_ratio <= 0.4


class TestResidualScaling:
    def test_zero_data(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        rows = dnahm.residual_scaling(dnahm.NahmTriple(z, z, z), [0.04, 0.02], rk_steps=200)
        assert all(r.r_evolution == 0.0 and r.r_metric == 0.0 for r in rows)

    def test_commuting_data_rounding_only(self):
        t = dnahm.NahmTriple(
            dnahm.cmatrix(np.diag([1j, -0.5j])),
            dnahm.cmatrix(np.diag([0.2j, 0.7j])),
            dnahm.cmatrix(np.diag([-0.3j, 0.4j])),
        )
        rows = dnahm.residual_scaling(t, [0.04, 0.02], rk_steps=500)
        for row in rows:
            assert row.r_evolution < 1e-12 and row.r_metric < 1e-11

    def test_explicit_rk_steps_keep_the_grid_floor(self):
        # node spacing stays at most min(h)/10 whatever rk_steps asks for
        triple = dnahm.random_skew_triple(2, seed=3)
        floor = int(np.ceil(10.0 * (1.0 + 3.0 * 0.04) / 0.02))
        coarse = dnahm.residual_scaling(triple, [0.04, 0.02], rk_steps=200)
        assert coarse == dnahm.residual_scaling(triple, [0.04, 0.02], rk_steps=floor)

    def test_h_list_validation(self):
        with pytest.raises(ValueError):
            dnahm.residual_scaling(dnahm.euler_top_triple(), [0.01, 0.02])
        with pytest.raises(ValueError):
            dnahm.residual_scaling(dnahm.euler_top_triple(), [])
