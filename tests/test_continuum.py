"""Tests for the smooth flow, its invariants, and first-order embedding."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ellipj, ellipkinc

import dnahm
from dnahm.errors import DimensionMismatch, FlowBlowUp, RangeNotCovered

import helpers
import oracles


def euler_f(triple):
    """Extract (f1, f2, f3) from an su(2) Euler-ansatz triple."""
    return (
        (2j * np.asarray(triple.t1)[0, 1]).real,
        (2j * (np.asarray(triple.t2)[0, 1] * 1j)).real,
        (2j * np.asarray(triple.t3)[0, 0]).real,
    )


def euler_f_nodes(nodes):
    """(f1, f2, f3) of stacked su(2) Euler-ansatz triples, shape (..., 3)."""
    return np.stack(
        [(2j * nodes[..., 0, 0, 1]).real, (-2 * nodes[..., 1, 0, 1]).real,
         (2j * nodes[..., 2, 0, 0]).real],
        axis=-1,
    )


def euler_top_exact(f, z):
    """Closed-form Euler-top flow f' = (f2 f3, f3 f1, f1 f2) for f3 > f2 > f1 > 0.

    f(z) = alpha (cs, ds, ns)(u0 - alpha z | m) with alpha^2 = f3^2 - f1^2 and
    m = 1 - (f2^2 - f1^2) / alpha^2, the two conserved differences; u0 puts
    sn(u0) = alpha / f3 so that the flow starts at f.
    """
    f1, f2, f3 = f
    alpha = np.sqrt(f3**2 - f1**2)
    m = 1 - (f2**2 - f1**2) / alpha**2
    u0 = ellipkinc(np.arcsin(1 / np.sqrt(1 + (f1 / alpha) ** 2)), m)
    sn, cn, dn, _ = ellipj(u0 - alpha * np.asarray(z), m)
    return alpha * np.stack([cn / sn, dn / sn, 1 / sn], axis=-1)


class TestIntegrate:
    def test_zero_data_constant(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        traj = dnahm.integrate_nahm(dnahm.NahmTriple(z, z, z), 0.0, 1.0, 50)
        assert dnahm.max_abs(traj.nodes[-1]) == 0.0

    def test_commuting_data_constant(self):
        t = dnahm.NahmTriple(
            dnahm.cmatrix(np.diag([1j, -1j])),
            dnahm.cmatrix(np.diag([2j, 0.5j])),
            dnahm.cmatrix(np.diag([-0.3j, 0.1j])),
        )
        traj = dnahm.integrate_nahm(t, 0.0, 1.0, 50)
        assert dnahm.max_abs(traj.nodes[-1, 1] - t.t2) < 1e-14

    def test_euler_invariants_conserved(self):
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple((0.3, 0.4, 0.5)), 0.0, 1.0, 2000)
        f = euler_f_nodes(traj.nodes[::100]) ** 2
        inv = np.stack((f[:, 0] - f[:, 1], f[:, 0] - f[:, 2]), axis=-1)
        assert np.abs(inv - inv[0]).max() < 1e-9

    def test_skew_hermiticity_preserved(self):
        traj = dnahm.integrate_nahm(dnahm.random_skew_triple(3, seed=41, scale=0.4), 0.0, 1.0, 200)
        nodes = traj.nodes[::40]
        assert dnahm.max_abs(nodes + dnahm.dagger(nodes)) < 1e-10

    def test_lax_coefficients_conserved(self):
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple(), 0.0, 1.0, 1000)
        assert dnahm.invariant_drift(traj) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_drift_bit_equal_to_per_node_oracle(self, k):
        traj = dnahm.integrate_nahm(dnahm.random_skew_triple(k, seed=90 + k), 0.0, 1.0, 60)
        assert dnahm.invariant_drift(traj) == oracles.invariant_drift(traj, 1)
        triple = dnahm.NahmTriple(*traj.nodes[-1])
        ours, theirs = dnahm.lax_polynomial_coeffs(triple), oracles.lax_polynomial_coeffs(triple)
        assert ours.shape == (k + 1, 2 * k + 1)
        assert np.array_equal(helpers.bits(ours), helpers.bits(theirs))

    def test_drift_refuses_a_node_that_is_not_skew(self):
        start = dnahm.random_skew_triple(2, seed=95)
        nodes = np.array(dnahm.integrate_nahm(start, 0.0, 1.0, 10).nodes)
        nodes[4, 1] += 1e-6 * np.eye(2)  # Hermitian part: off by 2e-6 at node 4
        traj = dnahm.NahmTrajectory(z0=0.0, z1=1.0, nodes=nodes)
        with pytest.raises(DimensionMismatch, match="skew-hermitian"):
            dnahm.invariant_drift(traj)
        with pytest.raises(DimensionMismatch, match="skew-hermitian"):
            oracles.invariant_drift(traj)


class TestStackedIntegrator:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_per_node_oracle(self, k):
        # same RK4 arithmetic on one stacked array; only the matmul batching
        # can differ, by rounding of k-term sums
        triple = dnahm.random_skew_triple(k, seed=50 + k, scale=0.2)
        traj = dnahm.integrate_nahm(triple, 0.0, 1.0, 300)
        states = oracles.integrate_nahm(triple, 0.0, 1.0, 300)
        assert traj.nodes.shape == (301, 3, k, k)
        for node, state in zip(traj.nodes, states):
            for t, ref in zip(node, (state.t1, state.t2, state.t3)):
                assert dnahm.max_abs(t - ref) <= 1e-14 * (1 + dnahm.max_abs(ref))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sampling_matches_per_node_oracle(self, k):
        triple = dnahm.random_skew_triple(k, seed=60 + k, scale=0.2)
        traj = dnahm.integrate_nahm(triple, -0.5, 0.7, 40)
        states = oracles.integrate_nahm(triple, -0.5, 0.7, 40)
        zs = np.random.default_rng(k).uniform(-0.5, 0.7, 25)
        for z, sampled in zip(zs, traj.sample(zs)):
            ref = oracles.hermite_at(states, -0.5, 0.7, z)
            got = traj.at(z)
            for t, s, r in zip((got.t1, got.t2, got.t3), sampled, (ref.t1, ref.t2, ref.t3)):
                assert np.array_equal(t, s)
                assert dnahm.max_abs(t - r) <= 1e-14 * (1 + dnahm.max_abs(r))

    def test_nodes_are_read_only(self):
        traj = dnahm.integrate_nahm(dnahm.random_skew_triple(2, seed=1), 0.0, 1.0, 10)
        assert not traj.nodes.flags.writeable
        with pytest.raises(ValueError):
            traj.nodes[0, 0, 0, 0] = 1.0
        # a writeable array handed to the constructor is copied, not shared
        nodes = np.array(traj.nodes)
        built = dnahm.NahmTrajectory(z0=0.0, z1=1.0, nodes=nodes)
        nodes[0] = 0.0
        assert np.array_equal(built.nodes, traj.nodes)
        assert not built.nodes.flags.writeable

    def test_nodes_step_and_at_semantics(self):
        triple = dnahm.random_skew_triple(3, seed=2, scale=0.2)
        traj = dnahm.integrate_nahm(triple, 0.25, 1.25, 32)
        assert traj.step == 1 / 32
        assert traj.nodes.shape == (33, 3, 3, 3)
        for i in (0, 7, 32):
            node = traj.nodes[i]
            # at an exact grid node the Hermite weights are (1, 0, 0, 0) or
            # (0, 1, 0, 0), so at() returns the node itself
            got = traj.at(0.25 + i * traj.step)
            for t, n in zip((got.t1, got.t2, got.t3), node):
                assert np.array_equal(t, n) and not t.flags.writeable
        assert np.array_equal(traj.nodes[0], np.stack((triple.t1, triple.t2, triple.t3)))

    def test_range_edges(self):
        traj = dnahm.integrate_nahm(dnahm.random_skew_triple(2, seed=3), 0.0, 1.0, 10)
        traj.at(-1e-13)
        traj.at(1.0 + 1e-13)
        for z in (-1e-9, 1.0 + 1e-9, float("nan"), float("inf")):
            with pytest.raises(RangeNotCovered):
                traj.at(z)
        with pytest.raises(RangeNotCovered):
            traj.sample([0.5, 1.5])

    @pytest.mark.parametrize(
        "z0, z1", [(1.0, 0.0), (0.5, 0.5), (0.0, float("inf")), (float("nan"), 1.0)]
    )
    def test_rejects_empty_reversed_or_non_finite_range(self, z0, z1):
        with pytest.raises(ValueError):
            dnahm.integrate_nahm(dnahm.euler_top_triple(), z0, z1, 10)

    @pytest.mark.parametrize("n_steps", [10**301, 10**400])
    def test_unallocatable_grid_is_a_value_error(self, n_steps):
        # numpy refuses these shapes before allocating anything
        with pytest.raises(ValueError, match="cannot allocate"):
            dnahm.integrate_nahm(dnahm.euler_top_triple(), 0.0, 1.0, n_steps)

    def test_blow_up_is_one_typed_error(self):
        # the Euler top f = (3, 4, 5) has a pole at z = 0.251; stepping past
        # it overflows, which is reported once, without numpy warnings, at
        # the first node that is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowBlowUp, match="finite from z = 0.325") as info:
                dnahm.integrate_nahm(dnahm.euler_top_triple((3.0, 4.0, 5.0)), 0.0, 5.0, 200)
        assert info.value.z == pytest.approx(0.325, abs=1e-12)

    def test_constructor_checks_shape_and_finiteness(self):
        nodes = np.zeros((5, 3, 2, 2), dtype=complex)
        with pytest.raises(DimensionMismatch):
            dnahm.NahmTrajectory(z0=0.0, z1=1.0, nodes=nodes[:, :2])
        with pytest.raises(DimensionMismatch):
            dnahm.NahmTrajectory(z0=0.0, z1=1.0, nodes=nodes[:1])
        with pytest.raises(ValueError):
            dnahm.NahmTrajectory(z0=1.0, z1=0.0, nodes=nodes)
        nodes[3, 1, 0, 1] = np.nan
        with pytest.raises(DimensionMismatch):
            dnahm.NahmTrajectory(z0=0.0, z1=1.0, nodes=nodes)


class TestEulerTopClosedForm:
    """RK4 against the exact Jacobi-elliptic flow of f = (0.3, 0.4, 0.5).

    Error model: the global RK4 error is O(step^4) with a constant of the
    size of the flow's fifth derivative (~1e-2 here), plus rounding of
    ~1e-16 per step; ellipj and ellipkinc are accurate to a few ulp. Cubic
    Hermite sampling adds at most step^4 max|f''''| / 384 between nodes.
    """

    F = (0.3, 0.4, 0.5)

    def errors(self, n_steps, zs=None):
        """Max-abs error in f per sampled z (the grid nodes by default)."""
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple(self.F), 0.0, 1.0, n_steps)
        if zs is None:
            zs, got = np.linspace(0.0, 1.0, n_steps + 1), euler_f_nodes(traj.nodes)
        else:
            got = euler_f_nodes(traj.sample(zs))
        return np.abs(got - euler_top_exact(self.F, zs)).max(axis=-1)

    def test_exact_form_starts_at_f(self):
        assert_allclose(euler_top_exact(self.F, 0.0), self.F, rtol=1e-15)

    def test_node_error(self):
        # measured 1.3e-15 on [0, 1]
        assert self.errors(1000).max() <= 1e-13

    def test_fourth_order(self):
        # end-point errors 4.5e-13 and 2.9e-14: a ratio of 15.9
        order = np.log2(self.errors(250)[-1] / self.errors(500)[-1])
        assert 3.8 <= order <= 4.2

    def test_at_between_nodes(self):
        # midpoints are where the Hermite error peaks; measured 9.2e-15
        traj = dnahm.integrate_nahm(dnahm.euler_top_triple(self.F), 0.0, 1.0, 1000)
        for z in (np.arange(1000) + 0.5)[::97] / 1000:
            f = euler_f(traj.at(z))
            assert np.abs(np.subtract(f, euler_top_exact(self.F, z))).max() <= 1e-13
        # fourth order between nodes too (linear sampling would be second)
        coarse = self.errors(50, (np.arange(50) + 0.5) / 50).max()
        fine = self.errors(100, (np.arange(100) + 0.5) / 100).max()
        assert 3.8 <= np.log2(coarse / fine) <= 4.2


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
        # grid, and so does the default 1120; 2000 put them between grid
        # nodes, where the interpolation error (O(step^4) for cubic Hermite)
        # must stay far below residuals of order 1e-8. Linear interpolation
        # missed by up to 78%.
        triple = dnahm.random_skew_triple(k, seed)
        off_grid = dnahm.residual_scaling(triple, [0.04, 0.02, 0.01], rk_steps=2000)
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

    @pytest.mark.parametrize(
        "h_list, options, expected",
        # ceil(10 * (1 + 3 * 0.04) / min h) steps unless rk_steps asks for more
        [([0.04, 0.02, 0.01], {}, 1120), ([0.04, 0.02, 0.01, 0.005], {}, 2240),
         ([0.04, 0.02, 0.01], {"rk_steps": 3000}, 3000)],
    )
    def test_default_grid_is_the_spacing_floor(self, h_list, options, expected, monkeypatch):
        calls = []
        integrate = dnahm.continuum.integrate_nahm

        def counting(initial, z0, z1, n_steps):
            calls.append(n_steps)
            return integrate(initial, z0, z1, n_steps)

        monkeypatch.setattr(dnahm.continuum, "integrate_nahm", counting)
        dnahm.residual_scaling(dnahm.random_skew_triple(2, seed=1), h_list, **options)
        assert calls == [expected]

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("h_list", [[0.16, 0.08], [0.04, 0.02, 0.01]])
    def test_default_grid_matches_a_refined_one(self, k, h_list):
        # The tightest reference tolerance of the benchmark's continuum check
        # is 1e-3 of R; the default grid was measured within 2.2e-8 of a
        # 16x-refined one, the rounding of residuals near 1e-6 summed at gamma ~ 1/(2h).
        triple = dnahm.random_skew_triple(k, seed=0)
        floor = int(np.ceil(10.0 * (1.0 + 3.0 * h_list[0]) / h_list[-1]))
        rows = dnahm.residual_scaling(triple, h_list)
        fine = dnahm.residual_scaling(triple, h_list, rk_steps=16 * floor)
        for a, b in zip(rows, fine):
            assert a.r_evolution == pytest.approx(b.r_evolution, rel=1e-6)
            assert a.r_metric == pytest.approx(b.r_metric, rel=1e-6)

        def in_band(table):
            return [0.4 <= cur / prev <= 0.6 for cur, prev in (
                (table[-1].r_evolution, table[-2].r_evolution),
                (table[-1].r_metric, table[-2].r_metric))]

        assert in_band(rows) == in_band(fine)

    def test_h_list_validation(self):
        with pytest.raises(ValueError):
            dnahm.residual_scaling(dnahm.euler_top_triple(), [0.01, 0.02])
        with pytest.raises(ValueError):
            dnahm.residual_scaling(dnahm.euler_top_triple(), [])
        for bad in ([float("inf"), 0.02], [0.04, float("nan")], [0.04, 0.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                dnahm.residual_scaling(dnahm.euler_top_triple(), bad)

    def test_window_too_small_refused_before_integrating(self, monkeypatch):
        # the window [0, 1] holds floor(1 / (2h)) sites: 3 at h = 0.16, 2 at 0.17
        (row,) = dnahm.residual_scaling(dnahm.euler_top_triple(), [0.16], rk_steps=100)
        assert row.h == 0.16

        def integrate(*args):
            raise AssertionError("integrated before the window check")

        monkeypatch.setattr(dnahm.continuum, "integrate_nahm", integrate)
        for h_list in ([0.17], [0.5, 0.01]):
            with pytest.raises(ValueError, match="window too small"):
                dnahm.residual_scaling(dnahm.euler_top_triple(), h_list)
