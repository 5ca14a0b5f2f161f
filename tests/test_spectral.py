"""Tests for spectral surfaces, drift, and curve diagnostics."""

import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dnahm
from dnahm import spectral
from dnahm.cli import main
from dnahm.errors import (
    ChainTooShort,
    DimensionMismatch,
    NoConvergence,
    PointNotOnCurve,
    TooManyPoints,
)

import helpers
import oracles


def surface_k1(a, b, d):
    return dnahm.char_surface(
        dnahm.cmatrix([[a]]), dnahm.cmatrix([[b]]), dnahm.cmatrix([[d]])
    )


class TestCharSurface:
    def test_k1_coefficients(self):
        c = surface_k1(2.0, 3.0, 5.0)
        assert c[1, 1] == pytest.approx(2.0)
        assert c[1, 0] == pytest.approx(3.0)
        assert c[0, 1] == 1.0
        assert c[0, 0] == pytest.approx(5.0)

    def test_zero_triple_k2(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        c = dnahm.char_surface(z, z, z)
        expected = np.zeros((3, 3))
        expected[0, 2] = 1.0
        assert_allclose(c, expected, atol=1e-14)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_surface_refuses_non_finite_coefficients(self, entry):
        # (0, 1) is the normalization entry c[0][k]: a normalization test
        # against NaN reads False, and curve_samples would end in numpy's LinAlgError
        c = np.array([[0.5, 1.0], [0.0, 0.0]], dtype=complex)
        c[entry] = np.nan
        with pytest.raises(DimensionMismatch, match="must be finite"):
            dnahm.curve_samples(c, 4)

    def test_trig_curve(self):
        chain, _ = dnahm.trig_solution(1)
        c = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        expected = np.zeros((3, 3), complex)
        expected[2, 0] = 1.0
        expected[1, 1] = -np.sqrt(2)  # -2 cos(pi/4)
        expected[0, 2] = 1.0
        assert dnahm.max_abs(c - expected) < 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(21)
        a, b, d = (helpers.random_cmatrix(rng, 3) for _ in range(3))
        g = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        gi = np.linalg.inv(g)
        c0 = dnahm.char_surface(a, b, d)
        c1 = dnahm.char_surface(
            dnahm.cmatrix(g @ a @ gi), dnahm.cmatrix(g @ b @ gi), dnahm.cmatrix(g @ d @ gi)
        )
        assert dnahm.max_abs(c0 - c1) < 1e-11 * (1 + dnahm.max_abs(c0))

    def test_matches_cofactor_expansion_oracle(self):
        # the only check of the roots-of-unity DFT that does not go through it
        rng = np.random.default_rng(22)
        for k in (1, 2, 3, 4):
            for _ in range(10):
                a, b, d = (helpers.random_cmatrix(rng, k) for _ in range(3))
                ours = dnahm.char_surface(a, b, d)
                brute = oracles.char_surface_brute(np.asarray(a), np.asarray(b), np.asarray(d))
                assert dnahm.max_abs(ours - brute) < 1e-12 * (1 + np.abs(brute).max())
        a, b, d = (np.stack([helpers.random_cmatrix(rng, 3) for _ in range(5)]) for _ in range(3))
        c = dnahm.char_surface(a, b, d)
        assert c.shape == (5, 4, 4)
        for ci, ai, bi, di in zip(c, a, b, d):
            brute = oracles.char_surface_brute(ai, bi, di)
            assert dnahm.max_abs(ci - brute) < 1e-12 * (1 + np.abs(brute).max())


class TestInvarianceDrift:
    def test_trig_chain(self):
        chain, _ = dnahm.trig_solution(2)
        assert dnahm.invariance_drift(chain) < 1e-12

    def test_scalar_chain_zero(self):
        chain = dnahm.scalar_solution(1j, -0.5, 1j, 0.5, 1.0, length=5)
        assert dnahm.invariance_drift(chain) == 0.0

    def test_evolved_random_chain(self):
        ba, bk = helpers.evolved_chain(3, seed=14)
        assert bk is None
        assert dnahm.invariance_drift(dnahm.from_braam_austin(ba)) < 1e-9

    def test_single_site_rejected(self):
        chain = dnahm.scalar_solution(0.0, 1.0, 0.0, 1.0, 1.0, length=1)
        with pytest.raises(ChainTooShort):
            dnahm.invariance_drift(chain)


class TestRealStructure:
    @settings(max_examples=30, deadline=None, database=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 6]), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([0.002, 0.03, 0.1]))
    def test_grid_is_its_own_conjugate_mirror(self, k, seed, spread):
        # In the reality class (D = -A*, B Hermitian), F(eta, zeta) equals
        # (-eta zeta)^k conj(F(-1/conj(zeta), -1/conj(eta))), so every site's grid
        # has c_ij = (-1)^(i+j+k) conj(c_{k-j, k-i}). This pins char_surface's index
        # and sign conventions without the determinant oracle.
        ba, _ = dnahm.evolve(dnahm.random_reality_seed(k, seed, spread), 8)
        chain = dnahm.from_braam_austin(ba)
        c = dnahm.char_surface(chain.A, chain.B, chain.D)
        i, j = np.indices((k + 1, k + 1))
        mirror = (-1.0) ** (i + j + k) * np.conj(c[:, k - j, k - i])
        assert np.all(np.abs(c - mirror).max(axis=(1, 2)) <= 1e-14 * np.abs(c).max(axis=(1, 2)))


class TestCurveSamples:
    def test_k1_zeta_identically_zero(self):
        # curve eta zeta + zeta = 0: zeta = 0 away from the degenerate slice eta = -1
        c = surface_k1(1.0, 0.0, 0.0)
        eta, zeta = dnahm.curve_samples(c, 8)
        assert eta.shape == zeta.shape == (7,)  # eta = -1 is skipped
        assert np.all(np.abs(zeta) < 1e-10)

    def test_trig_at_eta_one(self):
        chain, _ = dnahm.trig_solution(1)
        c = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        _, zeta = dnahm.curve_samples(c, 1)  # single sample at eta = 1
        zs = sorted(zeta, key=lambda z: z.imag)
        r1, r2 = oracles.quadratic_roots(1.0, -np.sqrt(2), 1.0)
        assert zs[0] == pytest.approx(min(r1, r2, key=lambda z: z.imag), abs=1e-10)
        assert zs[1] == pytest.approx(max(r1, r2, key=lambda z: z.imag), abs=1e-10)

    def test_random_surface_residuals(self):
        rng = np.random.default_rng(23)
        a, b, d = (helpers.random_cmatrix(rng, 3) for _ in range(3))
        c = dnahm.char_surface(a, b, d)
        for eta, zeta in zip(*dnahm.curve_samples(c, 12)):
            assert abs(oracles.evaluate(c, eta, zeta)) <= 1e-8 * oracles.magnitude(c, eta, zeta)

    def test_degenerate_slice_raises(self):
        c = surface_k1(1.0, 0.0, 0.0)  # leading zeta-coefficient is 1 + eta
        with pytest.raises(dnahm.errors.DegenerateSlice):
            dnahm.zeta_slice_roots(c, -1.0)


class TestSmoothness:
    def test_trig_node_flagged(self):
        chain, _ = dnahm.trig_solution(1)
        c = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        eta, zeta = dnahm.curve_samples(c, 8)
        # the two lines meet at the node (0, 0), appended as the last point
        _, flagged = dnahm.smoothness_report(c, np.append(eta, 0.0), np.append(zeta, 0.0))
        assert flagged.shape == (len(eta) + 1,) and flagged[-1]

    def test_line_not_flagged(self):
        c = surface_k1(2.0, 3.0, 5.0)
        min_gradient, flagged = dnahm.smoothness_report(c, *dnahm.curve_samples(c, 16))
        assert not flagged.any()
        assert min_gradient > 1e-3

    def test_random_k2_no_flags_discriminant_oracle(self):
        rng = np.random.default_rng(24)
        a, b, d = (helpers.random_cmatrix(rng, 2) for _ in range(3))
        c = dnahm.char_surface(a, b, d)
        _, flagged = dnahm.smoothness_report(c, *dnahm.curve_samples(c, 16))
        # cross-check: distinct slice roots (nonzero discriminant) at each eta
        # force a nonzero zeta-gradient there, so nothing should be flagged
        for m in range(16):
            eta = np.exp(2j * np.pi * m / 16)
            c0, c1, c2 = oracles.zeta_coefficients(c, eta)
            assert abs(c1 * c1 - 4 * c2 * c0) > 1e-6
        assert not flagged.any()

    def test_mismatched_point_arrays_refused(self):
        c = surface_k1(2.0, 3.0, 5.0)
        with pytest.raises(DimensionMismatch, match=r"\(m,\) arrays"):
            dnahm.smoothness_report(c, np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionMismatch, match=r"\(m,\) arrays"):
            dnahm.smoothness_report(c, np.zeros((2, 2)), np.zeros((2, 2)))


class TestCokernelNullity:
    def test_k1_any_curve_point(self):
        eta, zeta = dnahm.curve_samples(surface_k1(2.0, 3.0, 5.0), 4)
        n = dnahm.cokernel_nullity(
            dnahm.cmatrix([[2.0]]), dnahm.cmatrix([[3.0]]), dnahm.cmatrix([[5.0]]),
            eta[0], zeta[0],
        )
        assert n == 1

    def test_random_smooth_points(self):
        rng = np.random.default_rng(25)
        a, b, d = (helpers.random_cmatrix(rng, 2) for _ in range(3))
        for eta, zeta in zip(*dnahm.curve_samples(dnahm.char_surface(a, b, d), 6)):
            assert dnahm.cokernel_nullity(a, b, d, eta, zeta) == 1

    def test_trig_node_nullity_one(self):
        # M(0, 0) = D_1 has rank 1; the node shows up in the gradient, not here
        chain, _ = dnahm.trig_solution(1)
        site = chain.sites[0]
        assert dnahm.cokernel_nullity(site.A, site.B, site.D, 0.0, 0.0) == 1

    def test_off_curve_rejected(self):
        chain, _ = dnahm.trig_solution(1)
        site = chain.sites[0]
        with pytest.raises(PointNotOnCurve):
            dnahm.cokernel_nullity(site.A, site.B, site.D, 1.0, 100.0)


class TestAntidiagonal:
    def test_fixed_radii(self):
        assert dnahm.spectral.ANTIDIAGONAL_RADII == (0.5, 1.0, 2.0)

    def test_trig_clearance_positive(self):
        chain, _ = dnahm.trig_solution(1)
        c = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        # |F(eta, -1/conj(eta))| is angle-independent here; the rescaled value
        # is (2 + sqrt(2)) / 4 at radius 1 and (17 + 4 sqrt(2)) / 25 = 0.906 at
        # radii 0.5 and 2, so the minimum is the radius-1 value
        at_radius = {0.5: (17 + 4 * np.sqrt(2)) / 25, 1.0: (2 + np.sqrt(2)) / 4,
                     2.0: (17 + 4 * np.sqrt(2)) / 25}
        for radius, value in at_radius.items():
            assert oracles.antidiagonal_clearance(c, 16, radii=(radius,)) == pytest.approx(
                value, abs=1e-12
            )
        assert dnahm.antidiagonal_clearance(c, 16) == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)

    def test_intersecting_curve_reports_zero(self):
        # (eta + 1)(zeta + 1) = 0 meets the anti-diagonal at eta = 1, zeta = -1
        c = surface_k1(1.0, 1.0, 1.0)
        assert dnahm.antidiagonal_clearance(c, 16) < 1e-12

    def test_k1_constant_curve_bound(self):
        # curve zeta = -5: the rescaled value |5 conj(eta) - 1| / (1 + r^2) is
        # least at angle 0, (5r - 1) / (1 + r^2): 1.2, 2 and 1.8 at r = 0.5, 1, 2
        c = surface_k1(0.0, 0.0, 5.0)
        assert dnahm.antidiagonal_clearance(c, 16) == pytest.approx(1.2, abs=1e-12)


class TestBAFormCurveCrossCheck:
    def test_zero_sets_agree_after_sign_flip(self):
        # the determinant formula in the original (beta, gamma) variables
        # differs from the (A, B, D) one by the coordinate flip
        # (eta, zeta) -> (-eta, -zeta)
        ba, bk = helpers.evolved_chain(2, seed=16, steps=6)
        assert bk is None
        j = 2  # interior site with a left link
        beta, gamma = ba.betas[j], ba.gammas[j - 1]
        dn = dnahm.from_braam_austin(ba)
        site = dn.sites[j]
        c = dnahm.char_surface(site.A, site.B, site.D)

        def ba_form(eta, zeta):
            gg = gamma.conj().T @ gamma + beta.conj().T @ beta
            m = eta * zeta * beta - eta * gg + zeta * np.eye(2) - beta.conj().T
            return np.linalg.det(m)

        for eta, zeta in zip(*dnahm.curve_samples(c, 10)):
            assert abs(ba_form(-eta, -zeta)) <= 1e-8 * oracles.magnitude(c, eta, zeta)


def random_stack(rng, k, n, scale=1.0):
    shape = (n, k, k)
    return tuple(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(3))


class TestStackedSurface:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_bit_equal_to_per_site_oracle(self, k):
        a, b, d = random_stack(np.random.default_rng(40 + k), k, 6)
        c = dnahm.char_surface(a, b, d)
        assert type(c) is np.ndarray and c.shape == (6, k + 1, k + 1)
        assert not c.flags.writeable and np.all(c[:, 0, k] == 1.0)
        for i in range(6):
            expected = oracles.char_surface(a[i], b[i], d[i])
            assert np.array_equal(helpers.bits(c[i]), helpers.bits(expected))

    def test_one_site_stack_equals_the_2d_call(self):
        a, b, d = random_stack(np.random.default_rng(50), 3, 1)
        (stacked,) = dnahm.char_surface(a, b, d)
        single = dnahm.char_surface(a[0], b[0], d[0])
        assert type(single) is np.ndarray and single.shape == (4, 4)
        assert np.array_equal(helpers.bits(stacked), helpers.bits(single))
        assert not stacked.flags.writeable and not single.flags.writeable

    def test_mismatched_shapes_rejected(self):
        a, b, d = random_stack(np.random.default_rng(51), 2, 3)
        with pytest.raises(dnahm.errors.DimensionMismatch):
            dnahm.char_surface(a, b[0], d)
        with pytest.raises(dnahm.errors.DimensionMismatch):
            dnahm.char_surface(a[:, :, :1], b[:, :, :1], d[:, :, :1])

    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_entry_refused(self, field):
        # a NaN would give a grid of NaNs that passes the normalization check
        triple = [m[0] for m in random_stack(np.random.default_rng(52), 2, 1)]
        triple[field][1, 0] = np.nan
        with pytest.raises(dnahm.errors.DimensionMismatch, match="must be finite"):
            dnahm.char_surface(*triple)

    def test_non_finite_site_of_stack_refused_before_any_det(self, monkeypatch):
        a, b, d = random_stack(np.random.default_rng(53), 3, 5)
        b[3, 2, 2] = np.nan

        def det(m):
            raise AssertionError("det ran on a non-finite stack")

        monkeypatch.setattr(np.linalg, "det", det)
        with pytest.raises(dnahm.errors.DimensionMismatch, match="must be finite"):
            dnahm.char_surface(a, b, d)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_non_finite_grid_refused(self, stacked):
        # finite entries whose determinant overflows: (1e200)^2 is past the
        # doubles, and a NaN or inf grid passes the normalization test
        a, b, d = random_stack(np.random.default_rng(54), 2, 4)
        a[2] = 1e200 * np.eye(2)
        triple = (a, b, d) if stacked else (a[2], b[2], d[2])
        with pytest.raises(DimensionMismatch, match="^coefficient grid entries must be finite$"):
            dnahm.char_surface(*triple)

    def test_one_bad_normalization_site_raises(self):
        # a rank-1 A of size 1e8 cancels to O(1) rounding in every node's
        # determinant, far above 1e-12 of its coefficients
        a, b, d = random_stack(np.random.default_rng(52), 2, 5)
        a[3], b[3], d[3] = 1e8, 0.0, 0.0
        with pytest.raises(NoConvergence, match="stacked site 3"):
            dnahm.char_surface(a, b, d)
        with pytest.raises(NoConvergence, match="stacked site 0"):
            dnahm.char_surface(a[3], b[3], d[3])
        with pytest.raises(NoConvergence):
            oracles.char_surface(a[3], b[3], d[3])

    def test_traced_peak_stays_small(self):
        # one (n, k, k) pencil per node, never all (k+1)^2 nodes' pencils at
        # once: 60 sites at k = 8 peak near 0.3 MB, the 5-D layout at 10 MB
        a, b, d = random_stack(np.random.default_rng(53), 8, 60)
        dnahm.char_surface(a[:1], b[:1], d[:1])  # numpy's lazy set-up is not the call's
        tracemalloc.start()
        try:
            dnahm.char_surface(a, b, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_drift_matches_per_site_oracle(self):
        ba, bk = helpers.evolved_chain(3, seed=14)
        assert bk is None
        chain = dnahm.from_braam_austin(ba)
        expected = oracles.drift_series(chain)
        assert dnahm.spectral.site_surfaces(chain)[1].tolist() == expected
        assert dnahm.invariance_drift(chain) == max(expected[1:])

    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_gauge_invariance_property(self, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b, d = random_stack(rng, k, n)
        # well-conditioned gauges: identity plus a perturbation of norm < 1/2
        g = np.eye(k) + 0.1 * (rng.standard_normal((n, k, k))
                               + 1j * rng.standard_normal((n, k, k))) / k
        gi = np.linalg.inv(g)
        c0 = dnahm.char_surface(a, b, d)
        c1 = dnahm.char_surface(g @ a @ gi, g @ b @ gi, g @ d @ gi)
        scale = 1.0 + np.abs(c0).max(axis=(1, 2))
        assert np.all(np.abs(c1 - c0).max(axis=(1, 2)) <= 1e-12 * scale)


# The batched diagnostics round like their per-point oracles except where
# numpy's vectorised complex abs and power loops differ from its scalar ones,
# by an ulp or two per operation. min_gradient, the clearance and the
# magnitude take such a value into their result; samples and flags do not:
# - min_gradient is hypot(|dF/deta|, |dF/dzeta|) of bit-equal gradients,
#   with each |.| off by up to 2 ulp: 4 ulp covers it.
# - the clearance divides |conj(eta)^k F| by (1 + |eta|^2)^k. A 2-ulp |eta|
#   is a 4k-ulp denominator after the power, and the complex power, its
#   modulus and the real power add about 8 more: (4k + 8) ulp.
# - the magnitude sums |c[i][j]| |eta|^i |zeta|^j, whose powers turn 2-ulp
#   moduli into up to 4k ulp per term: (4k + 4) ulp.
EPS = np.finfo(float).eps


def within_ulps(ours, theirs, n):
    return abs(ours - theirs) <= n * EPS * abs(theirs)


def assert_diagnostics_match_oracles(c, n_eta=32, n_clear=64):
    k = len(c) - 1
    eta, zeta = dnahm.curve_samples(c, n_eta)
    expected, _ = oracles.curve_samples(c, n_eta)
    assert eta.shape == zeta.shape == (len(expected),)
    got = np.stack((eta, zeta), axis=-1)
    want = np.array(expected, dtype=complex).reshape(-1, 2)
    assert np.array_equal(helpers.bits(got), helpers.bits(want))
    # the node (0, 0) of reducible curves, appended as the last point
    eta, zeta = np.append(eta, 0.0), np.append(zeta, 0.0)
    min_gradient, flagged = dnahm.smoothness_report(c, eta, zeta)
    oracle_min, oracle_flagged = oracles.smoothness_report(c, eta, zeta)
    assert flagged.tolist() == oracle_flagged
    assert within_ulps(min_gradient, oracle_min, 4)
    clearance = dnahm.antidiagonal_clearance(c, n_clear)
    assert within_ulps(clearance, oracles.antidiagonal_clearance(c, n_clear), 4 * k + 8)
    for e, z in got[:: max(1, len(got) // 5)]:
        assert np.array_equal(helpers.bits(dnahm.zeta_slice_roots(c, e)),
                              helpers.bits(oracles.zeta_slice_roots(c, e)))
        point = np.array([e]), np.array([z])
        assert spectral._evaluate(c, *point)[0] == oracles.evaluate(c, e, z)
        assert within_ulps(spectral._magnitude(c, *point)[0], oracles.magnitude(c, e, z), 4 * k + 4)


class TestBatchedDiagnosticsMatchPerPointOracles:
    @pytest.mark.parametrize("spread", [0.002, 0.1])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_evolved_chain_surfaces(self, k, spread):
        ba, bk = dnahm.evolve(dnahm.random_reality_seed(k, 80 + k, spread), 3)
        assert bk is None
        chain = dnahm.from_braam_austin(ba)
        for c in dnahm.char_surface(chain.A, chain.B, chain.D):
            assert_diagnostics_match_oracles(c)

    @pytest.mark.parametrize("p", [1, 50])
    def test_trig_fixture(self, p):
        chain, _ = dnahm.trig_solution(p)
        for c in dnahm.char_surface(chain.A[:3], chain.B[:3], chain.D[:3]):
            assert_diagnostics_match_oracles(c)

    def test_degenerate_slice_surface(self):
        c = surface_k1(1.0, 0.0, 0.0)  # the slice at eta = -1 collapses
        assert_diagnostics_match_oracles(c, n_eta=8, n_clear=16)
        assert oracles.curve_samples(c, 8)[1] == 1

    def test_no_samples(self):
        c = surface_k1(2.0, 3.0, 5.0)
        eta, zeta = dnahm.curve_samples(c, 0)
        assert eta.shape == zeta.shape == (0,)
        min_gradient, flagged = dnahm.smoothness_report(c, eta, zeta)
        assert min_gradient == 0.0 and flagged.shape == (0,) and flagged.dtype == bool
        assert dnahm.antidiagonal_clearance(c, 0) == np.inf


class TestDegenerateSliceRecord:
    def test_one_warning_carrying_the_count(self, caplog):
        # perfbench/tracer.py counts skipped slices from this record's args[0]
        with caplog.at_level(logging.WARNING, logger="dnahm.spectral"):
            dnahm.curve_samples(surface_k1(1.0, 0.0, 0.0), 8)
        records = [r for r in caplog.records if r.name == "dnahm.spectral"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "degenerate" in records[0].msg
        assert records[0].args[0] == 1

    def test_no_record_without_degenerate_slices(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dnahm.spectral"):
            dnahm.curve_samples(surface_k1(2.0, 3.0, 5.0), 8)
        assert not [r for r in caplog.records if r.name == "dnahm.spectral"]


class TestElementBudget:
    # counts above the budget, which are refused before anything is allocated
    def test_curve_samples_refused(self):
        c = surface_k1(2.0, 3.0, 5.0)
        with pytest.raises(TooManyPoints, match="curve_samples"):
            dnahm.curve_samples(c, dnahm.spectral.MAX_CURVE_ELEMENTS // 4 + 1)
        dnahm.curve_samples(c, 16)

    def test_antidiagonal_refused(self):
        c = surface_k1(2.0, 3.0, 5.0)
        n = dnahm.spectral.MAX_CURVE_ELEMENTS // 12 + 1  # three radii, (k + 1)^2 = 4
        with pytest.raises(TooManyPoints, match="antidiagonal_clearance"):
            dnahm.antidiagonal_clearance(c, n)
        dnahm.antidiagonal_clearance(c, 16)

    @pytest.mark.parametrize("option", ["--samples", "--antidiagonal"])
    def test_cli_exit_2_with_one_json_line(self, option, tmp_path, capsys):
        chain, out = tmp_path / "trig.json", tmp_path / "out.json"
        assert main(["example", "--p", "1", "--out", str(chain)]) == 0
        capsys.readouterr()
        argv = ["spectral", "--in", str(chain), "--out", str(out), option, "1000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"] == "TooManyPoints"
        assert not out.exists()


class TestNegativeCount:
    # no sample is drawn from a negative count, so no result is claimed from it
    def test_curve_samples(self):
        with pytest.raises(ValueError, match="curve_samples: point count must be >= 0"):
            dnahm.curve_samples(surface_k1(2.0, 3.0, 5.0), -3)

    def test_antidiagonal_clearance(self):
        with pytest.raises(ValueError, match="antidiagonal_clearance: point count must be >= 0"):
            dnahm.antidiagonal_clearance(surface_k1(2.0, 3.0, 5.0), -3)


class TestNonIntegerCount:
    # a count of 2.5 would sample 3 slices, or 7.5 anti-diagonal points
    @pytest.mark.parametrize("count", [2.5, 3.0, "3"])
    @pytest.mark.parametrize("call", [dnahm.curve_samples, dnahm.antidiagonal_clearance],
                             ids=["curve_samples", "antidiagonal_clearance"])
    def test_refused(self, call, count):
        with pytest.raises(ValueError, match="point count must be >= 0 and an integer"):
            call(surface_k1(2.0, 3.0, 5.0), count)

    def test_numpy_integer_accepted(self):
        c = surface_k1(2.0, 3.0, 5.0)
        assert dnahm.curve_samples(c, np.int64(4))[0].shape == (4,)
        assert dnahm.antidiagonal_clearance(c, np.int32(4)) > 0


class TestGridCheck:
    """The curve diagnostics take a grid from outside the library, so each
    refuses one that is not square, finite and normalized, c[0][k] = 1."""

    @pytest.mark.parametrize(
        "grid, message",
        [
            (np.ones((2, 3)), r"must be \(k \+ 1\) x \(k \+ 1\)"),
            (np.ones((1, 2, 2)), r"must be \(k \+ 1\) x \(k \+ 1\)"),
            (np.ones((0, 0)), r"must be \(k \+ 1\) x \(k \+ 1\)"),
            (np.array([[0.5, np.inf], [0.0, 0.0]]), "must be finite"),
            (np.array([[0.5, 2.0], [0.0, 0.0]]), r"normalization c\[0\]\[k\] = 1"),
        ],
        ids=["not-square", "stack", "empty", "inf", "unnormalized"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: dnahm.curve_samples(c, 4),
            lambda c: dnahm.zeta_slice_roots(c, 0.5),
            lambda c: dnahm.smoothness_report(c, np.zeros(1), np.zeros(1)),
            lambda c: dnahm.antidiagonal_clearance(c, 4),
        ],
        ids=["curve_samples", "zeta_slice_roots", "smoothness_report", "antidiagonal_clearance"],
    )
    def test_refused(self, call, grid, message):
        with pytest.raises(DimensionMismatch, match=message):
            call(grid)


class TestNonFinitePoint:
    """A NaN or inf coordinate is a DimensionMismatch wherever a point enters,
    not a RuntimeWarning (an error under this suite) or a NaN result."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: spectral._evaluate(c, np.array([np.inf]), np.array([0.5])),
            lambda c: spectral._magnitude(c, np.array([0.5]), np.array([np.nan])),
            lambda c: dnahm.zeta_slice_roots(c, complex(np.inf, 0.0)),
            lambda c: dnahm.smoothness_report(c, [np.nan], [0.5]),
        ],
        ids=["evaluate", "magnitude", "zeta_slice_roots", "smoothness_report"],
    )
    def test_surface_diagnostics(self, call):
        with pytest.raises(DimensionMismatch, match="point coordinates must be finite"):
            call(surface_k1(2.0, 3.0, 5.0))

    def test_cokernel_nullity(self):
        chain, _ = dnahm.trig_solution(1)
        site = chain.sites[0]
        with pytest.raises(DimensionMismatch, match="point coordinates must be finite"):
            dnahm.cokernel_nullity(site.A, site.B, site.D, np.inf, 0.5)


class TestOverflowingPoint:
    """A finite point too large for the powers and products gives a
    non-finite value, not a RuntimeWarning (an error under this suite)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: spectral._evaluate(c, np.array([1e200]), np.array([1e200]))[0],
            lambda c: spectral._magnitude(c, np.array([1e200]), np.array([1e200]))[0],
            lambda c: dnahm.smoothness_report(c, [1e200j], [1e200])[0],
        ],
        ids=["evaluate", "magnitude", "smoothness_report"],
    )
    def test_surface_diagnostics(self, call):
        # k = 3: the cubic powers of 1e200 overflow before any product
        surface = dnahm.char_surface(*(dnahm.cmatrix(v * np.eye(3)) for v in (2.0, 3.0, 5.0)))
        assert not np.isfinite(call(surface))

    def test_point_off_every_finite_value_is_off_the_curve(self):
        chain, _ = dnahm.trig_solution(2)
        site = chain.sites[0]
        # at (1, 1e200) |F| and its magnitude are both inf: that read as on the curve
        for eta, zeta in [(1e200, 1e200), (1.0, 1e200)]:
            with pytest.raises(PointNotOnCurve):
                dnahm.cokernel_nullity(site.A, site.B, site.D, eta, zeta)
            with pytest.raises(PointNotOnCurve):
                dnahm.dual_transport_check(chain, 1, eta, zeta)

