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
from dnahm.cli import main
from dnahm.errors import ChainTooShort, NoConvergence, PointNotOnCurve, TooManyPoints

import helpers
import oracles


def surface_k1(a, b, d):
    return dnahm.char_surface(
        dnahm.cmatrix([[a]]), dnahm.cmatrix([[b]]), dnahm.cmatrix([[d]])
    )


class TestCharSurface:
    def test_k1_coefficients(self):
        s = surface_k1(2.0, 3.0, 5.0)
        assert s.c[1, 1] == pytest.approx(2.0)
        assert s.c[1, 0] == pytest.approx(3.0)
        assert s.c[0, 1] == 1.0
        assert s.c[0, 0] == pytest.approx(5.0)

    def test_zero_triple_k2(self):
        z = dnahm.cmatrix(np.zeros((2, 2)))
        s = dnahm.char_surface(z, z, z)
        expected = np.zeros((3, 3))
        expected[0, 2] = 1.0
        assert_allclose(s.c, expected, atol=1e-14)

    def test_trig_curve(self):
        chain, _ = dnahm.trig_solution(1)
        s = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        expected = np.zeros((3, 3), complex)
        expected[2, 0] = 1.0
        expected[1, 1] = -np.sqrt(2)  # -2 cos(pi/4)
        expected[0, 2] = 1.0
        assert dnahm.max_abs(s.c - expected) < 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(21)
        a, b, d = (helpers.random_cmatrix(rng, 3) for _ in range(3))
        g = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        gi = np.linalg.inv(g)
        c0 = dnahm.char_surface(a, b, d).c
        c1 = dnahm.char_surface(
            dnahm.cmatrix(g @ a @ gi), dnahm.cmatrix(g @ b @ gi), dnahm.cmatrix(g @ d @ gi)
        ).c
        assert dnahm.max_abs(c0 - c1) < 1e-11 * (1 + dnahm.max_abs(c0))

    def test_matches_cofactor_expansion_oracle(self):
        rng = np.random.default_rng(22)
        for k in (1, 2, 3):
            for _ in range(10):
                a, b, d = (helpers.random_cmatrix(rng, k) for _ in range(3))
                ours = dnahm.char_surface(a, b, d).c
                brute = oracles.char_surface_brute(np.asarray(a), np.asarray(b), np.asarray(d))
                assert dnahm.max_abs(ours - brute) < 1e-12 * (1 + np.abs(brute).max())


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


class TestCurveSamples:
    def test_k1_zeta_identically_zero(self):
        # curve eta zeta + zeta = 0: zeta = 0 away from the degenerate slice eta = -1
        s = surface_k1(1.0, 0.0, 0.0)
        points = dnahm.curve_samples(s, 8)
        assert len(points) == 7  # eta = -1 is skipped
        for p in points:
            assert abs(p.zeta) < 1e-10

    def test_trig_at_eta_one(self):
        chain, _ = dnahm.trig_solution(1)
        s = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        points = dnahm.curve_samples(s, 1)  # single sample at eta = 1
        zs = sorted((p.zeta for p in points), key=lambda z: z.imag)
        r1, r2 = oracles.quadratic_roots(1.0, -np.sqrt(2), 1.0)
        assert zs[0] == pytest.approx(min(r1, r2, key=lambda z: z.imag), abs=1e-10)
        assert zs[1] == pytest.approx(max(r1, r2, key=lambda z: z.imag), abs=1e-10)

    def test_random_surface_residuals(self):
        rng = np.random.default_rng(23)
        a, b, d = (helpers.random_cmatrix(rng, 3) for _ in range(3))
        s = dnahm.char_surface(a, b, d)
        for p in dnahm.curve_samples(s, 12):
            assert abs(s.evaluate(p.eta, p.zeta)) <= 1e-8 * s.magnitude(p.eta, p.zeta)

    def test_degenerate_slice_raises(self):
        s = surface_k1(1.0, 0.0, 0.0)  # leading zeta-coefficient is 1 + eta
        with pytest.raises(dnahm.errors.DegenerateSlice):
            dnahm.zeta_slice_roots(s, -1.0)


class TestSmoothness:
    def test_trig_node_flagged(self):
        chain, _ = dnahm.trig_solution(1)
        s = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        node = dnahm.CurvePoint(eta=0.0, zeta=0.0)  # the two lines meet here
        samples = dnahm.curve_samples(s, 8) + [node]
        report = dnahm.smoothness_report(s, samples)
        assert node in report.flagged

    def test_line_not_flagged(self):
        s = surface_k1(2.0, 3.0, 5.0)
        report = dnahm.smoothness_report(s, dnahm.curve_samples(s, 16))
        assert not report.flagged
        assert report.min_gradient > 1e-3

    def test_random_k2_no_flags_discriminant_oracle(self):
        rng = np.random.default_rng(24)
        a, b, d = (helpers.random_cmatrix(rng, 2) for _ in range(3))
        s = dnahm.char_surface(a, b, d)
        points = dnahm.curve_samples(s, 16)
        report = dnahm.smoothness_report(s, points)
        # cross-check: distinct slice roots (nonzero discriminant) at each eta
        # force a nonzero zeta-gradient there, so nothing should be flagged
        for m in range(16):
            eta = np.exp(2j * np.pi * m / 16)
            c2, c1, c0 = (s.zeta_coefficients(eta)[j] for j in (2, 1, 0))
            assert abs(c1 * c1 - 4 * c2 * c0) > 1e-6
        assert not report.flagged


class TestCokernelNullity:
    def test_k1_any_curve_point(self):
        s = surface_k1(2.0, 3.0, 5.0)
        p = dnahm.curve_samples(s, 4)[0]
        n = dnahm.cokernel_nullity(
            dnahm.cmatrix([[2.0]]), dnahm.cmatrix([[3.0]]), dnahm.cmatrix([[5.0]]), p
        )
        assert n == 1

    def test_random_smooth_points(self):
        rng = np.random.default_rng(25)
        a, b, d = (helpers.random_cmatrix(rng, 2) for _ in range(3))
        s = dnahm.char_surface(a, b, d)
        for p in dnahm.curve_samples(s, 6):
            assert dnahm.cokernel_nullity(a, b, d, p) == 1

    def test_trig_node_nullity_one(self):
        # M(0, 0) = D_1 has rank 1; the node shows up in the gradient, not here
        chain, _ = dnahm.trig_solution(1)
        site = chain.sites[0]
        n = dnahm.cokernel_nullity(site.A, site.B, site.D, dnahm.CurvePoint(0.0, 0.0))
        assert n == 1

    def test_off_curve_rejected(self):
        chain, _ = dnahm.trig_solution(1)
        site = chain.sites[0]
        with pytest.raises(PointNotOnCurve):
            dnahm.cokernel_nullity(site.A, site.B, site.D, dnahm.CurvePoint(1.0, 100.0))


class TestAntidiagonal:
    def test_trig_clearance_positive(self):
        chain, _ = dnahm.trig_solution(1)
        s = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        # |F(eta, -1/conj(eta))| is angle-independent here; at radius 1 the
        # rescaled value is (2 + sqrt(2)) / 4
        value = dnahm.antidiagonal_clearance(s, 16, radii=(1.0,))
        assert value == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
        assert dnahm.antidiagonal_clearance(s, 16) > 0.5

    def test_intersecting_curve_reports_zero(self):
        # (eta + 1)(zeta + 1) = 0 meets the anti-diagonal at eta = 1, zeta = -1
        s = surface_k1(1.0, 1.0, 1.0)
        assert dnahm.antidiagonal_clearance(s, 16, radii=(1.0,)) < 1e-12

    def test_k1_constant_curve_bound(self):
        # curve zeta = -5: clearance at radius 1 attains |5 conj(eta) - 1| / 2 = 2
        s = surface_k1(0.0, 0.0, 5.0)
        assert dnahm.antidiagonal_clearance(s, 16, radii=(1.0,)) == pytest.approx(2.0, abs=1e-12)


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
        s = dnahm.char_surface(site.A, site.B, site.D)

        def ba_form(eta, zeta):
            gg = gamma.conj().T @ gamma + beta.conj().T @ beta
            m = eta * zeta * beta - eta * gg + zeta * np.eye(2) - beta.conj().T
            return np.linalg.det(m)

        for p in dnahm.curve_samples(s, 10):
            assert abs(ba_form(-p.eta, -p.zeta)) <= 1e-8 * s.magnitude(p.eta, p.zeta)


def random_stack(rng, k, n, scale=1.0):
    shape = (n, k, k)
    return tuple(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(3))


class TestStackedSurface:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_bit_equal_to_per_site_oracle(self, k):
        a, b, d = random_stack(np.random.default_rng(40 + k), k, 6)
        surfaces = dnahm.char_surface(a, b, d)
        assert isinstance(surfaces, tuple) and len(surfaces) == 6
        for i, surface in enumerate(surfaces):
            expected = oracles.char_surface(a[i], b[i], d[i]).c
            assert surface.k == k
            assert np.array_equal(helpers.bits(surface.c), helpers.bits(expected))

    def test_one_site_stack_equals_the_2d_call(self):
        a, b, d = random_stack(np.random.default_rng(50), 3, 1)
        (stacked,) = dnahm.char_surface(a, b, d)
        single = dnahm.char_surface(a[0], b[0], d[0])
        assert isinstance(single, dnahm.SpectralSurface)
        assert np.array_equal(helpers.bits(stacked.c), helpers.bits(single.c))
        assert not stacked.c.flags.writeable and not single.c.flags.writeable

    def test_mismatched_shapes_rejected(self):
        a, b, d = random_stack(np.random.default_rng(51), 2, 3)
        with pytest.raises(dnahm.errors.DimensionMismatch):
            dnahm.char_surface(a, b[0], d)
        with pytest.raises(dnahm.errors.DimensionMismatch):
            dnahm.char_surface(a[:, :, :1], b[:, :, :1], d[:, :, :1])

    def test_one_bad_normalization_site_raises(self):
        # a rank-1 A of size 1e8 cancels to O(1) rounding in every node's
        # determinant, far above 1e-12 of its coefficients
        a, b, d = random_stack(np.random.default_rng(52), 2, 5)
        a[3], b[3], d[3] = 1e8, 0.0, 0.0
        with pytest.raises(NoConvergence, match="stacked site 3"):
            dnahm.char_surface(a, b, d)
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
        base = oracles.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D).c
        expected = [
            (s.r, dnahm.max_abs(oracles.char_surface(s.A, s.B, s.D).c - base))
            for s in chain.sites
        ]
        assert dnahm.drift_series(chain) == expected
        assert dnahm.invariance_drift(chain) == max(d for _, d in expected[1:])

    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_gauge_invariance_property(self, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b, d = random_stack(rng, k, n)
        # well-conditioned gauges: identity plus a perturbation of norm < 1/2
        g = np.eye(k) + 0.1 * (rng.standard_normal((n, k, k))
                               + 1j * rng.standard_normal((n, k, k))) / k
        gi = np.linalg.inv(g)
        c0 = np.stack([s.c for s in dnahm.char_surface(a, b, d)])
        c1 = np.stack([s.c for s in dnahm.char_surface(g @ a @ gi, g @ b @ gi, g @ d @ gi)])
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


def assert_diagnostics_match_oracles(s, n_eta=32, n_clear=64):
    points = dnahm.curve_samples(s, n_eta)
    expected, _ = oracles.curve_samples(s, n_eta)
    assert len(points) == len(expected)
    got = np.array([(p.eta, p.zeta) for p in points]).reshape(-1, 2)
    want = np.array([(p.eta, p.zeta) for p in expected]).reshape(-1, 2)
    assert np.array_equal(helpers.bits(got), helpers.bits(want))
    samples = points + [dnahm.CurvePoint(0.0, 0.0)]  # a node of reducible curves
    report, oracle = dnahm.smoothness_report(s, samples), oracles.smoothness_report(s, samples)
    assert report.flagged == oracle.flagged
    assert within_ulps(report.min_gradient, oracle.min_gradient, 4)
    clearance = dnahm.antidiagonal_clearance(s, n_clear)
    assert within_ulps(clearance, oracles.antidiagonal_clearance(s, n_clear), 4 * s.k + 8)
    for eta, zeta in got[:: max(1, len(got) // 5)]:
        assert np.array_equal(helpers.bits(dnahm.zeta_slice_roots(s, eta)),
                              helpers.bits(oracles.zeta_slice_roots(s, eta)))
        assert s.evaluate(eta, zeta) == oracles.evaluate(s, eta, zeta)
        assert s.gradient(eta, zeta) == oracles.gradient(s, eta, zeta)
        assert within_ulps(s.magnitude(eta, zeta), oracles.magnitude(s, eta, zeta), 4 * s.k + 4)


class TestBatchedDiagnosticsMatchPerPointOracles:
    @pytest.mark.parametrize("spread", [0.002, 0.1])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_evolved_chain_surfaces(self, k, spread):
        ba, bk = dnahm.evolve(dnahm.random_reality_seed(k, 80 + k, spread), 3)
        assert bk is None
        chain = dnahm.from_braam_austin(ba)
        for s in dnahm.char_surface(chain.A, chain.B, chain.D):
            assert_diagnostics_match_oracles(s)

    @pytest.mark.parametrize("p", [1, 50])
    def test_trig_fixture(self, p):
        chain, _ = dnahm.trig_solution(p)
        for s in dnahm.char_surface(chain.A[:3], chain.B[:3], chain.D[:3]):
            assert_diagnostics_match_oracles(s)

    def test_degenerate_slice_surface(self):
        s = surface_k1(1.0, 0.0, 0.0)  # the slice at eta = -1 collapses
        assert_diagnostics_match_oracles(s, n_eta=8, n_clear=16)
        assert oracles.curve_samples(s, 8)[1] == 1

    def test_no_samples(self):
        s = surface_k1(2.0, 3.0, 5.0)
        assert dnahm.curve_samples(s, 0) == []
        assert dnahm.smoothness_report(s, []) == dnahm.SmoothnessReport(0.0, ())
        assert dnahm.antidiagonal_clearance(s, 0) == np.inf


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
        s = surface_k1(2.0, 3.0, 5.0)
        with pytest.raises(TooManyPoints, match="curve_samples"):
            dnahm.curve_samples(s, dnahm.spectral.MAX_CURVE_ELEMENTS // 4 + 1)
        dnahm.curve_samples(s, 16)

    def test_antidiagonal_refused(self):
        s = surface_k1(2.0, 3.0, 5.0)
        n = dnahm.spectral.MAX_CURVE_ELEMENTS // 12 + 1  # three radii, (k + 1)^2 = 4
        with pytest.raises(TooManyPoints, match="antidiagonal_clearance"):
            dnahm.antidiagonal_clearance(s, n)
        dnahm.antidiagonal_clearance(s, 16)

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
