"""Tests for the chain model, conversions, gauge action and residuals."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dnahm
from dnahm.errors import DimensionMismatch, NotRealityCompatible, SingularGamma

import helpers
import oracles


def scalar_ba(beta, gamma, n=3):
    k = 1
    betas = [dnahm.cmatrix([[beta]])]
    gammas = []
    for _ in range(n - 1):
        gammas.append(dnahm.cmatrix([[gamma]]))
        betas.append(dnahm.cmatrix([[beta]]))
    return dnahm.BAChain(k=k, betas=tuple(betas), gammas=tuple(gammas))


class TestFromBraamAustin:
    def test_scalar_arithmetic(self):
        chain = dnahm.from_braam_austin(scalar_ba(5j, 2.0, n=2))
        site = chain.sites[0]
        assert site.A[0, 0] == -5j
        assert site.D[0, 0] == -5j  # beta* of 5j
        assert chain.links[0].Pplus[0, 0] == 2.0
        assert chain.links[0].Pminus[0, 0] == -2.0
        assert site.B[0, 0] == pytest.approx(-29.0)

    def test_zero_beta_identity_gamma(self):
        ba = dnahm.BAChain(
            k=2,
            betas=(dnahm.cmatrix(np.zeros((2, 2))), dnahm.cmatrix(np.zeros((2, 2)))),
            gammas=(dnahm.cmatrix(np.eye(2)),),
        )
        chain = dnahm.from_braam_austin(ba)
        assert dnahm.max_abs(chain.sites[0].A) == 0
        assert dnahm.max_abs(chain.sites[0].D) == 0
        assert_allclose(chain.links[0].Pplus, np.eye(2))
        assert_allclose(chain.links[0].Pminus, -np.eye(2))
        assert_allclose(chain.sites[0].B, -np.eye(2))

    def test_singular_gamma_refused(self):
        ba = scalar_ba(1.0, 1.0)
        bad = dnahm.BAChain(
            k=1,
            betas=ba.betas,
            gammas=(dnahm.cmatrix([[0.0]]), ba.gammas[1]),
        )
        with pytest.raises(SingularGamma):
            dnahm.from_braam_austin(bad)

    def test_residual_equivalence(self):
        # generic (non-solution) data: BA residuals and DN residuals vanish together
        chain, _ = helpers.evolved_chain(2, seed=7, steps=8)
        assert dnahm.ba_residuals(chain).max < 1e-12
        assert dnahm.max_dn_residual(dnahm.from_braam_austin(chain)) < 1e-12


class TestToBraamAustin:
    def test_round_trip_ba_dn_ba(self):
        ba, bk = helpers.evolved_chain(2, seed=3, steps=10)
        assert bk is None
        back = dnahm.to_braam_austin(dnahm.from_braam_austin(ba))
        assert back.origin == ba.origin
        for a, b in zip(back.betas, ba.betas):
            assert dnahm.max_abs(a - b) < 1e-13
        for a, b in zip(back.gammas, ba.gammas):
            assert dnahm.max_abs(a - b) < 1e-13

    def test_round_trip_dn_ba_dn(self):
        chain = dnahm.from_braam_austin(helpers.evolved_chain(3, seed=5, steps=10)[0])
        again = dnahm.from_braam_austin(dnahm.to_braam_austin(chain))
        for s, t in zip(chain.sites, again.sites):
            for x, y in ((s.A, t.A), (s.B, t.B), (s.D, t.D)):
                assert dnahm.max_abs(x - y) < 1e-13

    def test_untwisted_trig_refused(self):
        chain, _ = dnahm.trig_solution(2)
        with pytest.raises(NotRealityCompatible) as err:
            dnahm.to_braam_austin(chain)
        assert err.value.deviation > 0.1  # its reality is metric-twisted

    def test_gauged_trig_accepted(self):
        ba = dnahm.to_braam_austin(helpers.gauged_trig(2))
        assert dnahm.ba_residuals(ba).max < 1e-13


class TestReconstructB:
    def test_scalar_mismatch_zero(self):
        a, d, pp, pm = 1.5 + 0.5j, -0.25j, 2.0, -0.5
        b_left, b_right, mismatch = dnahm.reconstruct_B(
            dnahm.cmatrix([[a]]), dnahm.cmatrix([[d]]),
            (dnahm.cmatrix([[pp]]), dnahm.cmatrix([[pm]])),
            (dnahm.cmatrix([[pp]]), dnahm.cmatrix([[pm]])),
        )
        assert b_left[0, 0] == pytest.approx(pm * pp + a * d)
        assert mismatch == pytest.approx(0.0, abs=1e-15)

    def test_trig_interior_site(self):
        # encodes sin(r phi) sin((r+2) phi) + sin(phi)^2 = sin((r+1) phi)^2
        chain, _ = dnahm.trig_solution(2)
        site = oracles.site_at(chain, 2)
        left = oracles.link_at(chain, 1)
        right = oracles.link_at(chain, 2)
        b_left, b_right, mismatch = dnahm.reconstruct_B(
            site.A, site.D, (left.Pplus, left.Pminus), (right.Pplus, right.Pminus)
        )
        assert mismatch < 1e-14
        assert dnahm.max_abs(b_right - site.B) < 1e-14

    def test_random_data_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        mats = [helpers.random_cmatrix(rng, 3) for _ in range(6)]
        a, d, pp0, pm0, pp1, pm1 = mats
        b_left, b_right, mismatch = dnahm.reconstruct_B(a, d, (pp0, pm0), (pp1, pm1))
        assert np.array_equal(b_left, pp0 @ pm0 + d @ a)
        assert np.array_equal(b_right, pm1 @ pp1 + a @ d)
        assert mismatch == dnahm.max_abs(b_left - b_right)
        assert mismatch > 0


class TestDNResiduals:
    def test_trig_solution(self):
        chain, _ = dnahm.trig_solution(2)
        assert dnahm.max_dn_residual(chain) < 1e-13

    def test_scalar_chain_zero(self):
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=4)
        assert dnahm.max_dn_residual(chain) == 0.0

    def test_perturbation_detected(self):
        chain, _ = dnahm.trig_solution(2)
        bad = helpers.replace_site(
            chain, 0, A=helpers.perturb_entry(chain.sites[0].A, 0, 1, 1e-3)
        )
        assert dnahm.max_dn_residual(bad) >= 1e-4


class TestResidualColumns:
    def test_dn_columns_cover_every_link(self):
        chain, _ = dnahm.trig_solution(3)  # links 1..5
        res = dnahm.dn_residuals(chain)
        columns = (res.comm_a, res.comm_d, res.b_left, res.b_right)
        assert res.r0 == 1 and all(c.shape == (5,) for c in columns)
        assert res.max == dnahm.max_dn_residual(chain) == max(c.max() for c in columns)

    def test_max_is_nan_when_any_residual_is(self):
        nan_last = np.array([1.0, np.nan])
        assert np.isnan(dnahm.LinkResiduals(0, np.zeros(2), np.zeros(2), np.ones(2), nan_last).max)
        assert np.isnan(dnahm.BAResiduals(evolution=np.ones(2), metric=nan_last[1:]).max)

    def test_chain_without_links(self):
        one_site = dnahm.scalar_solution(1.0, 2.0, 1.0, 1.0, 1.0, length=1)
        res = dnahm.dn_residuals(one_site)
        assert res.comm_a.shape == (0,) and res.max == 0.0
        ba = dnahm.BAChain(k=2, betas=np.zeros((1, 2, 2)), gammas=())
        assert dnahm.ba_residuals(ba).max == 0.0


class TestBAResiduals:
    def test_evolved_chain(self):
        chain, bk = helpers.evolved_chain(2, seed=0)
        assert bk is None
        assert dnahm.ba_residuals(chain).max < 1e-12

    def test_scalar_constants_zero(self):
        assert dnahm.ba_residuals(scalar_ba(2j, 1.5, n=4)).max == 0.0


class TestApplyGauge:
    def test_identity_gauge(self):
        chain, _ = dnahm.trig_solution(1)
        gauged = dnahm.apply_gauge(chain, [np.eye(2)] * 2)
        for s, t in zip(chain.sites, gauged.sites):
            assert np.array_equal(s.A, t.A)

    def test_scalar_gauge_trivial(self):
        chain = dnahm.scalar_solution(0.0, 1.0, 0.0, 1.0, 1.0, length=3)
        gauged = dnahm.apply_gauge(chain, [np.array([[g]]) for g in (2.0, -0.7, 3.1)])
        for s, t in zip(chain.sites, gauged.sites):
            assert dnahm.max_abs(s.B - t.B) < 1e-14
        for l, m in zip(chain.links, gauged.links):
            assert dnahm.max_abs(l.Pplus @ l.Pminus - m.Pplus @ m.Pminus) < 1e-13

    def test_sqrt_metric_gauge_restores_plain_reality(self):
        chain, metric = dnahm.trig_solution(2)
        gauged = dnahm.apply_gauge(chain, [dnahm.positive_sqrt(g) for g in metric])
        assert dnahm.reality_residual(gauged, dnahm.identity_metric(gauged)) < 1e-13
        # the spectral surface is gauge-invariant
        for s, t in zip(chain.sites, gauged.sites):
            c0 = dnahm.char_surface(s.A, s.B, s.D).c
            c1 = dnahm.char_surface(t.A, t.B, t.D).c
            assert dnahm.max_abs(c0 - c1) < 1e-13

    def test_random_gauge_preserves_zero_residuals(self):
        rng = np.random.default_rng(12)
        chain = dnahm.from_braam_austin(helpers.evolved_chain(2, seed=2, steps=8)[0])
        gauges = [np.eye(2) + 0.4 * rng.standard_normal((2, 2)) for _ in chain.sites]
        conditioning = max(np.linalg.cond(g) for g in gauges)
        gauged = dnahm.apply_gauge(chain, gauges)
        assert dnahm.max_dn_residual(gauged) <= 1e-10 * conditioning


class TestRealityResidual:
    def test_trig_with_published_metric(self):
        chain, metric = dnahm.trig_solution(1)
        assert dnahm.reality_residual(chain, metric) < 1e-13
        assert_allclose(metric[0], np.diag([1.0, np.sqrt(2) / 2]), atol=1e-15)

    def test_ba_chain_identity_metric(self):
        chain = dnahm.from_braam_austin(helpers.evolved_chain(2, seed=4, steps=6)[0])
        assert dnahm.reality_residual(chain, dnahm.identity_metric(chain)) < 1e-13

    def test_trig_identity_metric_fails(self):
        chain, _ = dnahm.trig_solution(1)
        assert dnahm.reality_residual(chain, dnahm.identity_metric(chain)) > 0.1


def same_bits(x, y):
    return np.array_equal(helpers.bits(x), helpers.bits(y))


def same_chain(x, y):
    fields = ("A", "B", "D", "Pplus", "Pminus")
    if isinstance(x, dnahm.BAChain):
        fields = ("betas", "gammas")
    return x.origin == y.origin and all(same_bits(getattr(x, f), getattr(y, f)) for f in fields)


def same_residuals(x, y):
    """Residual records of one type whose fields hold the same bits."""
    return type(x) is type(y) and all(
        same_bits(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
    )


def random_ba(rng, k, n):
    # gammas near 2 I keep the invertibility check passing; no equation holds
    return dnahm.BAChain(
        k=k,
        betas=[helpers.random_cmatrix(rng, k) for _ in range(n)],
        gammas=[2 * np.eye(k) + helpers.random_cmatrix(rng, k, 0.3) for _ in range(n - 1)],
        origin=int(rng.integers(-5, 5)),
    )


class TestStackedKernelsMatchPerSite:
    """Each batched whole-chain kernel gives the per-site loop's doubles, bit for bit."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_conversions_and_residuals(self, k):
        rng = np.random.default_rng(40 + k)
        evolved, bk = helpers.evolved_chain(k, seed=k, steps=12)
        assert bk is None
        for ba in (random_ba(rng, k, 7), evolved):
            dn = dnahm.from_braam_austin(ba)
            assert same_chain(dn, oracles.from_braam_austin(ba))
            assert same_chain(dnahm.to_braam_austin(dn), oracles.to_braam_austin(dn))
            assert same_residuals(dnahm.ba_residuals(ba), oracles.ba_residuals(ba))
            assert same_residuals(dnahm.dn_residuals(dn), oracles.dn_residuals(dn))
        for n in (1, 2, 6):
            dn = helpers.random_dn_chain(rng, k, n, origin=-2)
            assert same_residuals(dnahm.dn_residuals(dn), oracles.dn_residuals(dn))
            assert dnahm.boundary_rank_check(dn) == oracles.boundary_rank_check(dn)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gauge_and_reality(self, k):
        rng = np.random.default_rng(50 + k)
        dn = helpers.random_dn_chain(rng, k, 6, origin=4)
        complex_gauges = [np.eye(k) + helpers.random_cmatrix(rng, k, 0.3) for _ in range(6)]
        real_gauges = [np.eye(k) + 0.3 * rng.standard_normal((k, k)) for _ in range(6)]
        for gauges in (complex_gauges, real_gauges):
            assert same_chain(dnahm.apply_gauge(dn, gauges), oracles.apply_gauge(dn, gauges))
        metric = [dnahm.cmatrix(oracles.random_hpd(rng, k)) for _ in range(6)]
        assert same_bits(dnahm.reality_residual(dn, metric), oracles.reality_residual(dn, metric))
        identity = dnahm.identity_metric(dn)
        assert same_bits(identity, np.array(oracles.identity_metric(dn)))
        assert same_bits(dnahm.reality_residual(dn, identity),
                         oracles.reality_residual(dn, oracles.identity_metric(dn)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ward_operators_and_drift(self, k):
        rng = np.random.default_rng(60 + k)
        dn = helpers.random_dn_chain(rng, k, 7, origin=1)
        eta, zeta = 0.7 - 0.2j, -1.1 + 0.4j
        block = dnahm.basis_sections(dn)
        single = dnahm.WardSection(start=2, values=rng.standard_normal((5, k)) + 1j)
        for f in (block, single):
            for got, want in (
                (dnahm.ward_plus(dn, eta, f), oracles.ward_plus_per_site(dn, eta, f)),
                (dnahm.ward_minus(dn, eta, zeta, f),
                 oracles.ward_minus_per_site(dn, eta, zeta, f)),
            ):
                assert got.start == want.start and same_bits(got.values, want.values)
        assert dnahm.drift_series(dn) == oracles.drift_series(dn)


class TestChainStorage:
    def test_stacks_are_read_only_copies(self):
        a = np.zeros((2, 1, 1))
        chain = dnahm.DNChain(1, a, a, a, np.ones((1, 1, 1)), np.ones((1, 1, 1)), origin=3)
        a[0, 0, 0] = 5.0
        assert chain.A[0, 0, 0] == 0 and chain.A.dtype == np.complex128
        assert not chain.A.flags.writeable and not oracles.site_at(chain, 3).A.flags.writeable
        assert (chain.r0, chain.r1) == (3, 4)
        assert [s.r for s in chain.sites] == [3, 4] and [l.r for l in chain.links] == [3]

    def test_shape_checks(self):
        ones = np.ones((3, 2, 2))
        with pytest.raises(DimensionMismatch):
            dnahm.DNChain(2, ones, ones, ones, ones, ones)  # links count
        with pytest.raises(DimensionMismatch):
            dnahm.DNChain(2, [], [], [], [], [])
        with pytest.raises(DimensionMismatch):
            dnahm.BAChain(k=3, betas=ones, gammas=ones[:2])
        with pytest.raises(DimensionMismatch):
            dnahm.BAChain(k=2, betas=ones, gammas=ones[:1])
        with pytest.raises(DimensionMismatch):
            dnahm.BAChain(k=2, betas=[np.eye(2), np.eye(3)], gammas=[np.eye(2)])
        one_site = dnahm.BAChain(k=2, betas=ones[:1], gammas=())
        assert one_site.gammas.shape == (0, 2, 2)
