"""Tests for the Ward operators, commutator, factorization and transport."""

import numpy as np
import pytest

import dnahm
from dnahm.errors import ChainTooShort, EtaNearZero, PointNotOnCurve

import helpers
import oracles


def ones_scalar_chain(n=5):
    """k=1 chain with every stored entry equal to 1 (not a solution)."""
    sites = tuple(
        dnahm.DNSite(r=r, A=dnahm.cmatrix([[1.0]]), B=dnahm.cmatrix([[1.0]]), D=dnahm.cmatrix([[1.0]]))
        for r in range(n)
    )
    links = tuple(
        dnahm.DNLink(r=r, Pplus=dnahm.cmatrix([[1.0]]), Pminus=dnahm.cmatrix([[1.0]]))
        for r in range(n - 1)
    )
    return oracles.chain_from_sites(1, sites, links)


def random_dn_chain(rng, k, n, origin=0):
    """Chain of n sites from ``origin`` with random entries (not a solution)."""
    sites = tuple(
        dnahm.DNSite(
            r=origin + i,
            A=helpers.random_cmatrix(rng, k),
            B=helpers.random_cmatrix(rng, k),
            D=helpers.random_cmatrix(rng, k),
        )
        for i in range(n)
    )
    links = tuple(
        dnahm.DNLink(
            r=origin + i, Pplus=helpers.random_cmatrix(rng, k), Pminus=helpers.random_cmatrix(rng, k)
        )
        for i in range(n - 1)
    )
    return oracles.chain_from_sites(k, sites, links)


def section_from(chain, vectors):
    return dnahm.WardSection(start=chain.r0, values=np.array(vectors, dtype=complex))


class TestWardOperators:
    def test_zero_section_maps_to_zero(self):
        chain, _ = dnahm.trig_solution(2)
        f = section_from(chain, np.zeros((4, 2)))
        assert dnahm.max_abs(dnahm.ward_plus(chain, 0.3 + 1j, f).values) == 0.0
        assert dnahm.max_abs(dnahm.ward_minus(chain, 0.3 + 1j, -2.0, f).values) == 0.0

    def test_discrete_difference_at_eta_zero(self):
        chain = ones_scalar_chain(5)
        f = section_from(chain, [[1.0], [2.0], [4.0], [8.0], [16.0]])
        out = dnahm.ward_plus(chain, 0.0, f)
        assert out.start == 1
        # (W+ f)_r = f_{r-1} - f_r when all data are 1 and eta = 0
        np.testing.assert_allclose(out.values[:, 0], [-1.0, -2.0, -4.0, -8.0])

    def test_ward_minus_eta_zero_is_multiplication(self):
        chain, _ = dnahm.trig_solution(2)
        rng = np.random.default_rng(31)
        f = section_from(chain, rng.standard_normal((4, 2)))
        zeta = 0.7 - 0.2j
        out = dnahm.ward_minus(chain, 0.0, zeta, f)
        for i in range(3):
            site = chain.sites[i]
            expected = (zeta * np.eye(2) + site.D) @ f.values[i]
            assert dnahm.max_abs(out.values[i] - expected) < 1e-14

    def test_matches_direct_formula(self):
        chain, _ = dnahm.trig_solution(2)
        rng = np.random.default_rng(32)
        f = section_from(chain, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        eta, zeta = 0.6 + 0.1j, -0.4 + 0.9j
        plus = dnahm.ward_plus(chain, eta, f)
        minus = dnahm.ward_minus(chain, eta, zeta, f)
        for r in range(2, 5):
            link = oracles.link_at(chain, r - 1)
            site = oracles.site_at(chain, r)
            expected = link.Pplus @ f.at(r - 1) - (eta * site.A + np.eye(2)) @ f.at(r)
            assert dnahm.max_abs(plus.at(r) - expected) < 1e-14
        for r in range(1, 4):
            link = oracles.link_at(chain, r)
            site = oracles.site_at(chain, r)
            expected = eta * link.Pminus @ f.at(r + 1) + (zeta * np.eye(2) + site.D) @ f.at(r)
            assert dnahm.max_abs(minus.at(r) - expected) < 1e-14


def coefficient_oracle(chain, eta):
    """Hand-expanded commutator: max column norm of the residual matrices.

    At interior site r the commutator's coefficient on f_{r+1} is
    -eta^2 (P- A_{r+1} - A_r P-) on link (r, r+1), on f_{r-1} it is the
    P+ D - D P+ residual of link (r-1, r), and on f_r it is eta times the
    difference of the two B-expressions at r.
    """
    worst = 0.0
    for r in range(chain.r0 + 1, chain.r1):
        right = oracles.link_at(chain, r)
        left = oracles.link_at(chain, r - 1)
        s = oracles.site_at(chain, r)
        comm_a = right.Pminus @ oracles.site_at(chain, r + 1).A - s.A @ right.Pminus
        comm_d = left.Pplus @ oracles.site_at(chain, r - 1).D - s.D @ left.Pplus
        mismatch = (left.Pplus @ left.Pminus + s.D @ s.A) - (
            right.Pminus @ right.Pplus + s.A @ s.D
        )
        worst = max(
            worst,
            abs(eta) ** 2 * dnahm.max_abs(comm_a),
            dnahm.max_abs(comm_d),
            abs(eta) * dnahm.max_abs(mismatch),
        )
    return worst


class TestCommutator:
    def test_trig_solution_commutes(self):
        chain, _ = dnahm.trig_solution(2)
        assert dnahm.commutator_residual(chain, 0.7 + 0.3j, 2.2 - 0.5j) < 1e-12

    def test_scalar_chain_commutes(self):
        assert dnahm.commutator_residual(ones_scalar_chain(4), 1.3 + 0.2j, 0.4j) < 1e-14

    def test_zeta_independence(self):
        chain = dnahm.from_braam_austin(helpers.evolved_chain(2, seed=17, steps=8)[0])
        eta = 0.7 + 0.3j
        a = dnahm.commutator_residual(chain, eta, 0.1)
        b = dnahm.commutator_residual(chain, eta, -3.0 + 2.0j)
        assert abs(a - b) < 1e-13

    def test_perturbed_pplus_detected(self):
        chain, _ = dnahm.trig_solution(2)
        eta = 0.7 + 0.3j
        bad = helpers.replace_link(
            chain, 1, Pplus=helpers.perturb_entry(chain.links[1].Pplus, 0, 0, 1e-3)
        )
        assert dnahm.commutator_residual(bad, eta, 0.5) >= 1e-4 * abs(eta)

    def test_matches_coefficient_oracle_on_non_solution(self):
        chain = random_dn_chain(np.random.default_rng(33), 2, 4)
        for eta in (0.5, 1.0 + 1.0j, 2.0 - 0.3j):
            ours = dnahm.commutator_residual(chain, eta, 0.8 - 0.1j)
            assert ours == pytest.approx(coefficient_oracle(chain, eta), rel=1e-12)

    def test_chain_too_short(self):
        with pytest.raises(ChainTooShort):
            dnahm.commutator_residual(ones_scalar_chain(2), 1.0, 1.0)


class TestMFactorization:
    def test_trig_interior_sites(self):
        chain, _ = dnahm.trig_solution(2)
        residuals = dnahm.m_factorization_residual(chain, 0.7 + 0.3j, 1.1 - 0.4j)
        assert residuals.shape == (2,)  # sites 2 and 3
        assert residuals.max() < 1e-12

    def test_scalar_chain(self):
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=4)
        assert dnahm.m_factorization_residual(chain, 0.9, 0.3).max() < 1e-13

    def test_non_solution_matches_closed_form(self):
        # residual = max(|eta| ||B_r - P- P+ - A D||, |eta|^2 ||comm_A||) column-wise
        rng = np.random.default_rng(34)
        chain, _ = dnahm.trig_solution(2)
        bad = helpers.replace_site(
            chain, 1, B=helpers.perturb_entry(chain.sites[1].B, 1, 0, 0.01)
        )
        eta, zeta = 0.8 + 0.2j, -0.6j
        ours = dnahm.m_factorization_residual(bad, eta, zeta)[0]  # site 2
        site = oracles.site_at(bad, 2)
        right = oracles.link_at(bad, 2)
        b_dev = site.B - (right.Pminus @ right.Pplus + site.A @ site.D)
        comm_a = right.Pminus @ oracles.site_at(bad, 3).A - site.A @ right.Pminus
        expected = max(abs(eta) * dnahm.max_abs(b_dev), abs(eta) ** 2 * dnahm.max_abs(comm_a))
        assert ours == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k, n, origin", [(1, 3, 0), (2, 7, -3), (3, 10, 5)])
    def test_b_perturbation_moves_only_its_site(self, k, n, origin):
        """B enters M at its own site only, so every other entry keeps its bits;
        a shift of 1e3 on an O(1) chain makes its own entry the largest."""
        chain = random_dn_chain(np.random.default_rng([k, n, 9]), k, n, origin)
        eta, zeta = PROBE_POINTS[0]
        base = dnahm.m_factorization_residual(chain, eta, zeta)
        for idx in range(1, n - 1):
            bad = helpers.replace_site(
                chain, idx, B=helpers.perturb_entry(chain.sites[idx].B, 0, k - 1, 1e3)
            )
            moved = dnahm.m_factorization_residual(bad, eta, zeta)
            others = np.arange(n - 2) != idx - 1
            assert np.array_equal(moved[others], base[others])
            assert moved[idx - 1] > 10 * base.max()
            oracle = oracles.m_factorization_residual(bad, chain.r0 + idx, eta, zeta)
            assert within_oracle_tol(moved[idx - 1], oracle)

    def test_boundary_site_rejected(self):
        # every site of a two-site chain is a boundary site: nothing to factorize
        chain = random_dn_chain(np.random.default_rng(38), 2, 2)
        with pytest.raises(ChainTooShort):
            dnahm.m_factorization_residual(chain, 1.0, 1.0)


# (eta, zeta) pairs for the probe-block tests: the CLI's two, and one with |eta| > 1
PROBE_POINTS = ((0.7 + 0.3j, 0.2 + 0.1j), (1.3 - 0.4j, -1.1 + 0.6j), (-0.5 + 2.0j, 0.9))


def within_oracle_tol(ours, oracle):
    # rounding of k-term sums of O(1) products; only the BLAS column blocking differs
    return abs(ours - oracle) <= 1e-13 * (1.0 + abs(oracle))


class TestProbeBlock:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_layout(self, m):
        chain = random_dn_chain(np.random.default_rng(35), 2, m, origin=-2)
        f = dnahm.basis_sections(chain)
        expected = np.zeros((m, 2, min(m, 3) * 2), dtype=complex)
        for i in range(m):
            for j in range(2):
                expected[i, j, (i % 3) * 2 + j] = 1.0
        assert f.start == -2
        assert np.array_equal(f.values, expected)

    @pytest.mark.parametrize("origin", [0, -3, 5])
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_delta_basis_oracle(self, k, n, origin):
        chain = random_dn_chain(np.random.default_rng([k, n, origin + 3]), k, n, origin)
        for eta, zeta in PROBE_POINTS:
            ours = dnahm.commutator_residual(chain, eta, zeta)
            oracle = oracles.commutator_residual(chain, eta, zeta)
            assert within_oracle_tol(ours, oracle), (eta, zeta, ours, oracle)
            residuals = dnahm.m_factorization_residual(chain, eta, zeta)
            assert residuals.shape == (n - 2,)
            for r, ours in zip(range(chain.r0 + 1, chain.r1), residuals, strict=True):
                oracle = oracles.m_factorization_residual(chain, r, eta, zeta)
                assert within_oracle_tol(ours, oracle), (eta, zeta, r, ours, oracle)

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 4), (3, 5), (2, 7), (4, 10)])
    def test_probe_result_is_the_folded_delta_result(self, k, n):
        """Exact: the products of W+ and W- are block tridiagonal, so no row of
        the delta-basis result has nonzeros from two sites of one colour, and
        the probe result has no nonzero entry that the folded delta result lacks."""
        chain = random_dn_chain(np.random.default_rng([k, n]), k, n, origin=-3)
        eta, zeta = PROBE_POINTS[2]
        probe, delta = dnahm.basis_sections(chain), oracles.basis_sections(chain)
        colour = np.arange(n) % 3
        products = (
            lambda f: dnahm.ward_plus(chain, eta, dnahm.ward_minus(chain, eta, zeta, f)),
            lambda f: dnahm.ward_minus(chain, eta, zeta, dnahm.ward_plus(chain, eta, f)),
        )
        for product in products:
            p, d = product(probe), product(delta)
            assert p.start == d.start
            rows = d.values.shape[0]
            d_sites = d.values.reshape(rows, k, n, k)
            support = np.any(d_sites != 0, axis=(1, 3))  # (result row, source site)
            row_sites = np.arange(rows)[:, None] + (d.start - chain.r0)
            assert not np.any(support & (np.abs(row_sites - np.arange(n)) > 1))
            folded = np.stack(
                [d_sites[:, :, colour == c, :].sum(axis=2) for c in range(min(n, 3))], axis=2
            ).reshape(p.values.shape)
            assert not np.any((p.values != 0) & (folded == 0))
            assert dnahm.max_abs(p.values - folded) <= 1e-13 * (1.0 + dnahm.max_abs(folded))

    def test_long_chain(self):
        chain, _ = dnahm.trig_solution(1000)
        assert len(chain.sites) == 2000
        assert dnahm.basis_sections(chain).values.nbytes == 2000 * 2 * 6 * 16
        assert dnahm.commutator_residual(chain, *PROBE_POINTS[0]) < 1e-11


class TestDualTransport:
    def test_trig_curve_point(self):
        chain, _ = dnahm.trig_solution(2)
        point = dnahm.CurvePoint(eta=1.0 + 0j, zeta=np.exp(1j * np.pi / 6))
        assert dnahm.dual_transport_check(chain, 2, point) < 1e-9

    def test_scalar_chain_trivial(self):
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=3)
        s = dnahm.char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
        point = dnahm.curve_samples(s, 4)[0]
        assert dnahm.dual_transport_check(chain, 0, point) < 1e-12

    def test_perturbed_chain_detected(self):
        chain, _ = dnahm.trig_solution(2)
        # perturb P- on the crossed link (2, 3), which is link index 1
        bad = helpers.replace_link(
            chain, 1, Pminus=helpers.perturb_entry(chain.links[1].Pminus, 0, 0, 1e-2)
        )
        point = dnahm.CurvePoint(eta=1.0 + 0j, zeta=np.exp(1j * np.pi / 6))
        # the point still lies on site 3's curve (site data unchanged)
        assert dnahm.dual_transport_check(bad, 2, point) > 1e-5

    def test_composition_along_links(self):
        # transports a null covector across several links; error grows slowly
        chain, _ = dnahm.trig_solution(3)
        point = dnahm.CurvePoint(eta=np.exp(0.4j), zeta=np.exp(0.4j) * np.exp(-1j * np.pi / 8))
        site = oracles.site_at(chain, 5)
        m = (
            point.eta * point.zeta * site.A
            + point.eta * site.B
            + point.zeta * np.eye(2)
            + site.D
        )
        _, basis = dnahm.nullity(m.T)
        g = basis[:, -1]
        for r in (4, 3, 2):
            g = dnahm.transport_covector(chain, r, point, g)
            site_l = oracles.site_at(chain, r)
            m_l = (
                point.eta * point.zeta * site_l.A
                + point.eta * site_l.B
                + point.zeta * np.eye(2)
                + site_l.D
            )
            assert np.linalg.norm(g @ m_l) / np.linalg.norm(g) < 1e-8

    def test_eta_near_zero_rejected(self):
        chain, _ = dnahm.trig_solution(2)
        with pytest.raises(EtaNearZero):
            dnahm.transport_covector(chain, 2, dnahm.CurvePoint(0.0, 0.0), np.ones(2))

    def test_link_index_outside_the_chain(self):
        chain, _ = dnahm.trig_solution(3)  # sites 1..6, links 1..5
        point = dnahm.CurvePoint(eta=1.0 + 0j, zeta=1.0 + 0j)
        for r in (0, 6, -5):
            with pytest.raises(IndexError, match=rf"link {r} outside \[1, 5\]"):
                dnahm.transport_covector(chain, r, point, np.ones(2))
            with pytest.raises(IndexError, match=rf"link {r} outside \[1, 5\]"):
                dnahm.dual_transport_check(chain, r, point)

    def test_off_curve_rejected(self):
        chain, _ = dnahm.trig_solution(2)
        with pytest.raises(PointNotOnCurve):
            dnahm.dual_transport_check(chain, 2, dnahm.CurvePoint(eta=1.0, zeta=5.0))
