"""Tests for discrete-time stepping, seeding and reversibility."""

import numpy as np
import pytest

import dnahm
from dnahm.errors import NotRealityCompatible
from dnahm.evolution import StepStatus

import helpers


class TestStepForward:
    def test_scalar_case(self):
        out = dnahm.step_forward(dnahm.cmatrix([[2.0]]), dnahm.cmatrix([[5j]]))
        assert out.status is StepStatus.ADVANCED
        gamma, beta = out.produced
        assert gamma[0, 0] == pytest.approx(2.0)
        assert beta[0, 0] == pytest.approx(5j)

    def test_breakdown_diagonal_example(self):
        out = dnahm.step_forward(
            dnahm.cmatrix(0.1 * np.eye(2)), dnahm.cmatrix([[0.0, 1.0], [0.0, 0.0]])
        )
        assert out.status is StepStatus.BREAKDOWN
        assert out.produced is None
        assert out.lambda_min == pytest.approx(-0.99, abs=1e-12)

    def test_new_link_satisfies_equations(self):
        gamma0, beta0 = dnahm.random_reality_seed(2, seed=9, spread=0.05)
        out = dnahm.step_forward(gamma0, beta0)
        gamma1, beta1 = out.produced
        # evolution equation on the new link
        assert dnahm.max_abs(beta0 @ gamma1 - gamma1 @ beta1) < 1e-12
        # produced gamma is Hermitian positive-definite
        assert dnahm.max_abs(gamma1 - gamma1.conj().T) < 1e-12
        assert np.linalg.eigvalsh(gamma1)[0] > 0


class TestStepBackward:
    def test_inverts_forward(self):
        gamma0, beta0 = dnahm.random_reality_seed(3, seed=1, spread=0.04)
        gamma0 = dnahm.positive_sqrt(gamma0 @ gamma0.conj().T)  # self-adjoint gauge
        out = dnahm.step_forward(gamma0, beta0)
        back = dnahm.step_backward(*out.produced)
        gamma_prev, beta_cur = back.produced
        assert dnahm.max_abs(gamma_prev - gamma0) < 1e-11
        assert dnahm.max_abs(beta_cur - beta0) < 1e-11

    def test_scalar_identity(self):
        out = dnahm.step_backward(dnahm.cmatrix([[2.0]]), dnahm.cmatrix([[1 + 1j]]))
        gamma, beta = out.produced
        assert gamma[0, 0] == pytest.approx(2.0)
        assert beta[0, 0] == pytest.approx(1 + 1j)

    def test_five_forward_five_backward(self):
        chain, bk = helpers.evolved_chain(3, seed=2, steps=5)
        assert bk is None
        back, bk2 = dnahm.evolve((chain.gammas[-1], chain.betas[-1]), 5, backward=True)
        assert bk2 is None
        assert back.origin == -5
        for a, b in zip(back.gammas, chain.gammas):
            assert dnahm.max_abs(a - b) < 1e-9
        for a, b in zip(back.betas, chain.betas):
            assert dnahm.max_abs(a - b) < 1e-9


class TestEvolve:
    def test_scalar_constant_chain(self):
        chain, bk = dnahm.evolve((dnahm.cmatrix([[2.0]]), dnahm.cmatrix([[5j]])), 10)
        assert bk is None
        assert len(chain.betas) == 11 and len(chain.gammas) == 10
        for g in chain.gammas:
            assert g[0, 0] == pytest.approx(2.0)
        for b in chain.betas:
            assert b[0, 0] == pytest.approx(5j)

    def test_breakdown_at_zero(self):
        chain, bk = dnahm.evolve(
            (dnahm.cmatrix(0.1 * np.eye(2)), dnahm.cmatrix([[0.0, 1.0], [0.0, 0.0]])), 5
        )
        assert bk == 0
        assert len(chain.gammas) == 1 and len(chain.betas) == 2

    def test_produced_chain_solves_equations(self):
        chain, bk = helpers.evolved_chain(2, seed=6)
        assert bk is None
        assert dnahm.ba_residuals(chain).max < 1e-11

    def test_regenerates_gauged_trig_from_first_link(self):
        gauged = helpers.gauged_trig(2)
        ba = dnahm.to_braam_austin(gauged)
        regen, bk = dnahm.evolve((ba.gammas[0], ba.betas[0]), 3)
        assert bk is None
        dn = dnahm.from_braam_austin(regen)
        for orig, new in zip(gauged.sites, dn.sites):
            c0 = dnahm.char_surface(orig.A, orig.B, orig.D).c
            c1 = dnahm.char_surface(new.A, new.B, new.D).c
            assert dnahm.max_abs(c0 - c1) < 1e-10
        # the closed form is itself in the self-adjoint gauge, so the match is direct
        for a, b in zip(regen.gammas, ba.gammas):
            assert dnahm.max_abs(a - b) < 1e-12

    @pytest.mark.parametrize("p", [50, 100, 200])
    def test_long_trig_chain_reproduced_to_its_boundary(self, p):
        # the closed-form chain has 2p - 1 links and is rank-1 at its ends, so
        # evolving from its first link rebuilds every link and then breaks
        # down on the last one; the gamma error peaks next to that boundary
        # (3.1e-10 at p = 200) and 1e-8 is the benchmark's tolerance
        ba = dnahm.to_braam_austin(helpers.gauged_trig(p))
        seed_pair = (ba.gammas[0], ba.betas[0])
        chain, bk = dnahm.evolve(seed_pair, 2 * p)
        assert bk == 2 * p - 2
        assert len(chain.gammas) == 2 * p - 1
        assert max(dnahm.max_abs(a - b) for a, b in zip(chain.gammas, ba.gammas)) <= 1e-8
        rerun, _ = dnahm.evolve(seed_pair, 2 * p)
        assert all(np.array_equal(a, b) for a, b in zip(rerun.gammas, chain.gammas))
        assert all(np.array_equal(a, b) for a, b in zip(rerun.betas, chain.betas))

    def test_deterministic_reruns(self):
        seed_pair = dnahm.random_reality_seed(3, seed=8, spread=0.03)
        c1, _ = dnahm.evolve(seed_pair, 15)
        c2, _ = dnahm.evolve(seed_pair, 15)
        assert all(np.array_equal(a, b) for a, b in zip(c1.betas, c2.betas))
        assert all(np.array_equal(a, b) for a, b in zip(c1.gammas, c2.gammas))

    def test_produced_gammas_hermitian_positive(self):
        chain, _ = helpers.evolved_chain(3, seed=4, steps=12)
        for g in chain.gammas[1:]:
            assert dnahm.max_abs(g - g.conj().T) < 1e-12
            assert np.linalg.eigvalsh(g)[0] > 0

    def test_rejects_nonpositive_step_count(self):
        with pytest.raises(ValueError):
            dnahm.evolve((dnahm.cmatrix([[1.0]]), dnahm.cmatrix([[0.0]])), 0)


class TestSeedFromTriple:
    def test_scalar_reconstruction(self):
        gamma0, beta0 = dnahm.seed_from_triple(
            dnahm.cmatrix([[-3j]]), dnahm.cmatrix([[-13.0]]), dnahm.cmatrix([[-3j]])
        )
        assert gamma0[0, 0] == pytest.approx(2.0)
        assert beta0[0, 0] == pytest.approx(3j)

    def test_untwisted_trig_refused_then_gauged_succeeds(self):
        # the untwisted trig triple has A D - B diagonal positive, but its
        # reality is metric-twisted (D != -A*), so seeding must refuse it
        chain, metric = dnahm.trig_solution(1)
        site = chain.sites[0]
        with pytest.raises(NotRealityCompatible):
            dnahm.seed_from_triple(site.A, site.B, site.D)
        gauged = helpers.gauged_trig(1)
        gsite = gauged.sites[0]
        gamma0, beta0 = dnahm.seed_from_triple(gsite.A, gsite.B, gsite.D)
        ba = dnahm.to_braam_austin(gauged)
        assert dnahm.max_abs(gamma0 - ba.gammas[0]) < 1e-12
        assert dnahm.max_abs(beta0 - ba.betas[0]) < 1e-12

    def test_recovers_evolved_chain_link(self):
        chain, _ = helpers.evolved_chain(2, seed=10, steps=10)
        dn = dnahm.from_braam_austin(chain)
        site = dn.sites[4]
        gamma, beta = dnahm.seed_from_triple(site.A, site.B, site.D)
        assert dnahm.max_abs(gamma - chain.gammas[4]) < 1e-11
        assert dnahm.max_abs(beta - chain.betas[4]) < 1e-11
        # evolving from the recovered seed reproduces the tail of the chain
        tail, bk = dnahm.evolve((gamma, beta), len(chain.gammas) - 4)
        assert bk is None
        for a, b in zip(tail.gammas, chain.gammas[4:]):
            assert dnahm.max_abs(a - b) < 1e-9
