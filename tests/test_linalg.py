"""Tests for the dense complex matrix kernel."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dnahm
from dnahm.errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    SingularGamma,
    SingularGauge,
    SingularPminus,
)

import helpers
import oracles


class TestCMatrix:
    def test_validates_and_freezes(self):
        m = dnahm.cmatrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert not m.flags.writeable

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionMismatch):
            dnahm.cmatrix([1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(DimensionMismatch):
            dnahm.cmatrix([[np.nan, 0], [0, 1]])


class TestHermitianEig:
    def test_diagonal(self):
        lam, u = dnahm.hermitian_eig(dnahm.cmatrix(np.diag([1.0, 2.0])))
        assert_allclose(lam, [1.0, 2.0], atol=1e-14)
        assert_allclose(np.abs(u), np.eye(2), atol=1e-12)

    def test_identity(self):
        lam, _ = dnahm.hermitian_eig(dnahm.cmatrix(np.eye(3)))
        assert_allclose(lam, [1.0, 1.0, 1.0], atol=1e-14)

    def test_2x2_closed_form(self):
        lam, _ = dnahm.hermitian_eig(dnahm.cmatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(lam, [1.0, 3.0], atol=1e-13)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            dnahm.hermitian_eig(dnahm.cmatrix([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_unitarity_and_spectral_sums(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 5, 8):
            h = (lambda x: (x + x.conj().T) / 2)(
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            )
            h = dnahm.cmatrix(h)
            lam, u = dnahm.hermitian_eig(h)
            scale = 1.0 + dnahm.max_abs(h)
            assert dnahm.max_abs(h @ u - u @ np.diag(lam)) <= 1e-12 * scale * k
            assert dnahm.max_abs(u.conj().T @ u - np.eye(k)) <= 1e-12 * k
            # trace and Frobenius norm are carried by the spectrum
            assert abs(lam.sum() - np.trace(h).real) <= 1e-11 * scale * k
            assert abs((lam**2).sum() - np.linalg.norm(h, "fro") ** 2) <= 1e-11 * scale**2 * k


class TestPositiveSqrt:
    def test_diagonal(self):
        root = dnahm.positive_sqrt(dnahm.cmatrix(np.diag([4.0, 9.0])))
        assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        assert_allclose(dnahm.positive_sqrt(dnahm.cmatrix(np.eye(3))), np.eye(3), atol=1e-13)

    def test_against_denman_beavers_oracle(self):
        h = dnahm.cmatrix([[2.0, 1.0], [1.0, 2.0]])
        root = dnahm.positive_sqrt(h)
        assert dnahm.max_abs(root @ root - h) <= 1e-11 * (1 + dnahm.max_abs(h))
        assert_allclose(root, oracles.sqrt_by_denman_beavers(h), atol=1e-10)

    def test_spread_spectrum_where_denman_beavers_stalls(self):
        # cond(h) = 1e9: the iteration's relative step settles at 7e-14, above
        # its 1e-14 stop, so it gives up; one eigendecomposition does not
        rng = np.random.default_rng(5)
        u = oracles.random_unitary(rng, 6)
        s = np.exp(rng.uniform(np.log(1e-9), 0.0, 6))
        s[0], s[1] = 1.0, 1e-9
        h = dnahm.cmatrix((u * s) @ u.conj().T)
        with pytest.raises(NoConvergence):
            oracles.sqrt_by_denman_beavers(h)
        root = dnahm.positive_sqrt(h)
        assert dnahm.max_abs(root - root.conj().T) <= 1e-15
        assert np.linalg.eigvalsh(root)[0] > 0
        assert dnahm.max_abs(root @ root - h) <= 1e-14 * (1 + dnahm.max_abs(h))

    def test_random_hpd_reconstructs(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 6):
            for _ in range(10):
                h = dnahm.cmatrix(oracles.random_hpd(rng, k))
                root = dnahm.positive_sqrt(h)
                assert dnahm.max_abs(root - root.conj().T) <= 1e-12 * (1 + dnahm.max_abs(root))
                assert dnahm.max_abs(root @ root - h) <= 1e-10 * (1 + dnahm.max_abs(h))

    def test_not_positive_definite_carries_lambda_min(self):
        with pytest.raises(NotPositiveDefinite) as err:
            dnahm.positive_sqrt(dnahm.cmatrix(np.diag([1.0, -1.0])))
        assert err.value.lambda_min == pytest.approx(-1.0, abs=1e-12)


class TestInverse:
    def test_identity(self):
        assert_allclose(dnahm.inverse(dnahm.cmatrix(np.eye(2))), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        inv = dnahm.inverse(dnahm.cmatrix(np.diag([2.0, 4.0])))
        assert_allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_residual_oracle(self):
        rng = np.random.default_rng(2)
        m = dnahm.cmatrix(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
        inv = dnahm.inverse(m)
        assert dnahm.max_abs(m @ inv - np.eye(3)) <= 1e-11 * np.linalg.cond(m)

    def test_singular_raises(self):
        with pytest.raises(Singular):
            dnahm.inverse(dnahm.cmatrix([[1.0, 1.0], [1.0, 1.0]]))


RANK_ONE = dnahm.cmatrix([[1.0, 2.0], [2.0, 4.0]])
SMALL = dnahm.cmatrix([[0.1j, 0.0], [0.0, 0.2]])


def _gauge_first_site():
    chain, _ = dnahm.trig_solution(1)
    dnahm.apply_gauge(chain, [RANK_ONE, np.eye(2)])


def _transport_across_singular_link():
    chain, _ = dnahm.trig_solution(1)
    chain = helpers.replace_link(chain, 0, Pminus=RANK_ONE)
    point = dnahm.CurvePoint(eta=1.0 + 0.5j, zeta=0.3)
    dnahm.transport_covector(chain, chain.r0, point, np.ones(2, dtype=complex))


class TestInvertibilityRule:
    """Every caller of linalg.require_invertible refuses a rank-deficient matrix."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: dnahm.inverse(RANK_ONE), Singular),
            (_gauge_first_site, SingularGauge),
            (_transport_across_singular_link, SingularPminus),
            (lambda: dnahm.step_forward(RANK_ONE, SMALL), SingularGamma),
            (lambda: dnahm.step_backward(RANK_ONE, SMALL), SingularGamma),
            (lambda: dnahm.evolve((RANK_ONE, SMALL), 3), SingularGamma),
            (lambda: dnahm.from_braam_austin(dnahm.BAChain(2, (SMALL, SMALL), (RANK_ONE,))),
             SingularGamma),
        ],
        ids=["inverse", "apply_gauge", "transport_covector", "step_forward",
             "step_backward", "evolve", "from_braam_austin"],
    )
    def test_rank_deficient_matrix_refused(self, call, error):
        with pytest.raises(Singular) as info:
            call()
        assert info.type is error
        assert info.value.condition > 1.0 / dnahm.linalg.RANK_TOL


class TestNullity:
    def test_zero_matrix(self):
        count, basis = dnahm.nullity(dnahm.cmatrix(np.zeros((2, 2))))
        assert count == 2
        assert basis.shape == (2, 2)

    def test_identity(self):
        count, _ = dnahm.nullity(dnahm.cmatrix(np.eye(3)))
        assert count == 0

    def test_rank_one_symmetric(self):
        m = dnahm.cmatrix([[1.0, 1.0], [1.0, 1.0]])
        count, basis = dnahm.nullity(m)
        assert count == 1
        assert_allclose(np.abs(basis[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-12)
        assert dnahm.max_abs(m @ basis) <= 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            rank = int(rng.integers(0, k + 1))
            u0 = oracles.random_unitary(rng, k)
            v0 = oracles.random_unitary(rng, k)
            m = u0 @ np.diag(np.concatenate([rng.uniform(0.5, 2, rank), np.zeros(k - rank)])) @ v0
            base, _ = dnahm.nullity(dnahm.cmatrix(m))
            left, _ = dnahm.nullity(dnahm.cmatrix(oracles.random_unitary(rng, k) @ m))
            right, _ = dnahm.nullity(dnahm.cmatrix(m @ oracles.random_unitary(rng, k)))
            assert base == left == right == k - rank


class TestPolyRoots:
    def test_quadratic(self):
        roots = dnahm.poly_roots([-1.0, 0.0, 1.0])
        assert_allclose(sorted(roots.real), [-1.0, 1.0], atol=1e-12)
        assert_allclose(roots.imag, [0.0, 0.0], atol=1e-12)

    def test_linear(self):
        assert_allclose(dnahm.poly_roots([-5.0, 1.0]), [5.0], atol=1e-13)

    def test_random_cubic_evaluation_residual(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        roots = dnahm.poly_roots(c)
        scale = np.abs(c).max()
        for root in roots:
            value = sum(c[i] * root**i for i in range(4))
            assert abs(value) <= 1e-8 * scale * max(1.0, abs(root)) ** 3

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            dnahm.poly_roots([1.0, 1.0, 1e-15])

    def test_deterministic_order(self):
        a = dnahm.poly_roots([2.0, 0.0, -3.0, 1.0])
        b = dnahm.poly_roots([2.0, 0.0, -3.0, 1.0])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", range(0, 9))
    def test_stacked_rows_bit_equal_to_one_row_calls(self, d):
        rng = np.random.default_rng(70 + d)
        c = rng.standard_normal((7, d + 1)) + 1j * rng.standard_normal((7, d + 1))
        if d:
            c[3] = np.poly(np.full(d, 0.3 + 0.1j))[::-1]  # a d-fold root: clustered eigenvalues
        roots = dnahm.poly_roots(c)
        assert roots.shape == (7, d)
        for i in range(7):
            assert np.array_equal(helpers.bits(roots[i]), helpers.bits(dnahm.poly_roots(c[i])))

    def test_stacked_degenerate_row_raises(self):
        c = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1e-15], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateLeadingCoefficient, match="in row 1"):
            dnahm.poly_roots(c)
        assert dnahm.poly_roots(c[:0]).shape == (0, 2)
