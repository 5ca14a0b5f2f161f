"""Tests for the fixture generators."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dnahm
from dnahm.errors import InconsistentScalars, InvalidMass

import helpers


class TestTrigSolution:
    def test_p1_matrices(self):
        chain, metric = dnahm.trig_solution(1)
        s = math.sin(math.pi / 4)
        assert_allclose(chain.sites[0].A, [[0.0, -s / 1.0], [0.0, 0.0]], atol=1e-15)
        assert_allclose(metric[0], np.diag([1.0, s]), atol=1e-15)
        assert len(chain.sites) == 2 and len(chain.links) == 1

    @pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
    def test_residuals_and_reality(self, p):
        chain, metric = dnahm.trig_solution(p)
        assert dnahm.max_dn_residual(chain) < 1e-13
        assert dnahm.reality_residual(chain, metric) < 1e-13

    def test_trig_identity(self):
        phi = math.pi / 6  # p = 2
        for r in (1, 2, 3):
            lhs = math.sin(r * phi) * math.sin((r + 2) * phi) + math.sin(phi) ** 2
            rhs = math.sin((r + 1) * phi) ** 2
            assert abs(lhs - rhs) < 1e-15

    @pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
    def test_surface_constant_along_chain(self, p):
        chain, _ = dnahm.trig_solution(p)
        phi = math.pi / (2 * p + 2)
        expected = np.zeros((3, 3), complex)
        expected[2, 0] = 1.0
        expected[1, 1] = -2 * math.cos(phi)
        expected[0, 2] = 1.0
        for site in chain.sites:
            c = dnahm.char_surface(site.A, site.B, site.D).c
            assert dnahm.max_abs(c - expected) < 1e-13

    def test_invalid_mass(self):
        for p in (0.75, 0.0, -1.0):
            with pytest.raises(InvalidMass):
                dnahm.trig_solution(p)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass(self, p):
        with pytest.raises(InvalidMass):
            dnahm.trig_params(p)

    def test_site_limit(self):
        limit = dnahm.fixtures.TRIG_MAX_SITES
        assert len(dnahm.trig_params(limit / 2).site_range) == limit
        for p in ((limit + 1) / 2, 5e8):
            with pytest.raises(InvalidMass, match="at most"):
                dnahm.trig_params(p)


class TestBoundaryRanks:
    def test_trig_p1_values(self):
        chain, _ = dnahm.trig_solution(1)
        first = chain.sites[0]
        x = first.B - first.D @ first.A
        assert_allclose(x, np.diag([-np.sqrt(2), 0.0]), atol=1e-15)
        ranks = dnahm.boundary_rank_check(chain)
        assert (ranks.left, ranks.right) == (1, 1)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
    def test_trig_all_masses(self, p):
        ranks = dnahm.boundary_rank_check(dnahm.trig_solution(p)[0])
        assert (ranks.left, ranks.right) == (1, 1)

    def test_scalar_chain(self):
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=3)
        ranks = dnahm.boundary_rank_check(chain)
        assert (ranks.left, ranks.right) == (1, 1)

    def test_random_chain_full_rank(self):
        chain = dnahm.from_braam_austin(helpers.evolved_chain(3, seed=20, steps=6)[0])
        ranks = dnahm.boundary_rank_check(chain)
        assert ranks.left == 3 and ranks.right == 3


class TestScalarSolution:
    def test_valid_cases(self):
        dnahm.scalar_solution(0.0, 1.0, 0.0, 1.0, 1.0, length=3)
        chain = dnahm.scalar_solution(-3j, -13.0, -3j, -2.0, 2.0, length=3)
        assert dnahm.max_dn_residual(chain) == 0.0

    def test_inconsistent_scalars(self):
        with pytest.raises(InconsistentScalars):
            dnahm.scalar_solution(-3j, -13.001, -3j, -2.0, 2.0, length=3)


class TestRandomRealitySeed:
    def test_zero_spread(self):
        gamma, beta = dnahm.random_reality_seed(2, seed=0, spread=0.0)
        assert_allclose(gamma, np.eye(2), atol=0)
        assert dnahm.max_abs(beta) == 0.0

    @pytest.mark.parametrize("spread", [np.nan, np.inf, -1.0])
    def test_spread_must_be_finite_and_non_negative(self, spread):
        # spread = -1 would give a gamma with eigenvalues [-1.33, 0.82], outside
        # the reality class; NaN and inf would end in cmatrix's DimensionMismatch
        with pytest.raises(ValueError, match="spread must be a finite number >= 0"):
            dnahm.random_reality_seed(2, seed=0, spread=spread)

    def test_deterministic(self):
        a = dnahm.random_reality_seed(2, seed=42, spread=0.3)
        b = dnahm.random_reality_seed(2, seed=42, spread=0.3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_gamma_hermitian_positive(self):
        gamma, _ = dnahm.random_reality_seed(3, seed=5, spread=0.2)
        assert dnahm.max_abs(gamma - gamma.conj().T) < 1e-14
        assert np.linalg.eigvalsh(gamma)[0] >= 1.0 - 1e-12

    def test_first_step_guaranteed(self):
        for seed in range(10):
            gamma, beta = dnahm.random_reality_seed(2, seed=seed, spread=0.5)
            chain, bk = dnahm.evolve((gamma, beta), 1)
            assert len(chain.gammas) == 1  # the seed link itself is always valid
            out = dnahm.step_forward(gamma, np.linalg.inv(gamma) @ beta @ gamma)
            assert out.status is dnahm.StepStatus.ADVANCED


class TestEulerTriple:
    def test_skew_hermitian(self):
        t = dnahm.euler_top_triple((0.3, 0.4, 0.5))
        for m in (t.t1, t.t2, t.t3):
            assert dnahm.max_abs(m + m.conj().T) == 0.0

    def test_random_triple_deterministic(self):
        a = dnahm.random_skew_triple(2, seed=3)
        b = dnahm.random_skew_triple(2, seed=3)
        assert np.array_equal(a.t1, b.t1)
