"""Tests for the dense complex matrix kernel."""

import warnings

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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # a symmetry test against tol = nan reads False, which would hand this
        # non-Hermitian matrix the eigenvalues of its Hermitian part
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            dnahm.hermitian_eig(dnahm.cmatrix([[1.0, 5.0], [0.0, 1.0]]), tol=tol)

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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # a definiteness test against tol = nan reads False: sqrt would meet lambda = -1
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            dnahm.positive_sqrt(dnahm.cmatrix(np.diag([1.0, -1.0])), tol=tol)

    def test_entries_near_the_largest_double(self):
        # (h + h*)/2 would overflow in the sum; the halves do not
        h = dnahm.cmatrix(np.diag([1.7e308, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = dnahm.positive_sqrt(h, tol=0.0)
            with pytest.raises(NotPositiveDefinite):  # lambda_min = 1 <= 1e-12 (1 + 1.7e308)
                dnahm.positive_sqrt(h)
            with pytest.raises(NotHermitian, match="inf"):  # |h - h*| is 3.4e308
                dnahm.hermitian_eig(dnahm.cmatrix([[0.0, 1.7e308], [-1.7e308, 0.0]]))
        assert np.array_equal(root, np.diag([np.sqrt(1.7e308), 1.0]))

    def test_entry_whose_modulus_overflows(self):
        # every entry is finite, but |1.5e308 + 1.5e308j| is not: a Hermitian
        # matrix has an eigenvalue at least that large, a non-Hermitian one is refused as such
        b = 1.5e308 + 1.5e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (dnahm.hermitian_eig, dnahm.positive_sqrt):
                with pytest.raises(NoConvergence, match="exceed the largest double"):
                    call(dnahm.cmatrix([[1.0, b], [np.conj(b), 1.0]]))
                with pytest.raises(NotHermitian, match="inf"):
                    call(dnahm.cmatrix([[1.0, b], [0.0, 1.0]]))
                with pytest.raises(DimensionMismatch, match="must be finite"):
                    call(np.array([[1.0, np.inf], [np.inf, 1.0]], dtype=complex))

    def test_eigenvalue_past_the_largest_double(self):
        # every entry and its modulus are finite, but eigh returns the top
        # eigenvalue (2e308 and 2.7e308) as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in ([[1e308, 1e308], [1e308, 1e308]], [[1.7e308, 1e308], [1e308, 1.7e308]]):
                for call in (dnahm.hermitian_eig, dnahm.positive_sqrt):
                    with pytest.raises(NoConvergence, match="exceed the largest double"):
                        call(dnahm.cmatrix(m))

    def test_not_positive_definite_carries_lambda_min(self):
        with pytest.raises(NotPositiveDefinite) as err:
            dnahm.positive_sqrt(dnahm.cmatrix(np.diag([1.0, -1.0])))
        assert err.value.lambda_min == pytest.approx(-1.0, abs=1e-12)


RANK_ONE = dnahm.cmatrix([[1.0, 2.0], [2.0, 4.0]])
SMALL = dnahm.cmatrix([[0.1j, 0.0], [0.0, 0.2]])


def _gauge_first_site():
    chain, _ = dnahm.trig_solution(1)
    dnahm.apply_gauge(chain, [RANK_ONE, np.eye(2)])


def _transport_across_singular_link():
    chain, _ = dnahm.trig_solution(1)
    chain = helpers.replace_link(chain, 0, Pminus=RANK_ONE)
    dnahm.transport_covector(chain, chain.r0, 1.0 + 0.5j, 0.3, np.ones(2, dtype=complex))


class TestInvertibilityRule:
    """Every caller of linalg.require_invertible refuses a rank-deficient matrix."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (_gauge_first_site, SingularGauge),
            (_transport_across_singular_link, SingularPminus),
            (lambda: dnahm.step_forward(RANK_ONE, SMALL), SingularGamma),
            (lambda: dnahm.step_backward(RANK_ONE, SMALL), SingularGamma),
            (lambda: dnahm.evolve((RANK_ONE, SMALL), 3), SingularGamma),
            (lambda: dnahm.from_braam_austin(dnahm.BAChain(2, (SMALL, SMALL), (RANK_ONE,))),
             SingularGamma),
        ],
        ids=["apply_gauge", "transport_covector", "step_forward",
             "step_backward", "evolve", "from_braam_austin"],
    )
    def test_rank_deficient_matrix_refused(self, call, error):
        with pytest.raises(Singular) as info:
            call()
        assert info.type is error
        assert info.value.condition > 1.0 / dnahm.linalg.RANK_TOL

    def test_overflowing_sigma_max_on_finite_input(self):
        # sigma_min / sigma_max = 4.7e-9 is above RANK_TOL, but sigma_max overflows;
        # the condition is taken on m / 1.5e308 instead, as the rank is
        full = dnahm.cmatrix([[1.5e308 + 1.5e308j, 0.0], [0.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dnahm.linalg.require_invertible(full)
            dnahm.linalg.require_invertible(np.stack((np.eye(2), full)))
            with pytest.raises(Singular) as info:  # 1e297 / 2.1e308 is below RANK_TOL
                dnahm.linalg.require_invertible(np.stack((full, np.diag([full[0, 0], 1e297]))))
        assert info.value.condition == pytest.approx(2**0.5 * 1.5e11)


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

    def test_overflowing_sigma_max_on_finite_input(self):
        # sigma_max overflows, so no singular value compares above RANK_TOL * sigma_max;
        # the rank is taken on m / 1.5e308 instead
        full = dnahm.cmatrix([[1.5e308 + 1.5e308j, 0.0], [0.0, 1e300]])
        assert dnahm.nullity(full)[0] == 0 and dnahm.matrix_rank(full) == 2
        # sigma_min / sigma_max = 1 / 2.1e308 is below RANK_TOL: numerically rank 1
        count, basis = dnahm.nullity(dnahm.cmatrix([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]]))
        assert count == 1 and np.array_equal(np.abs(basis[:, 0]), [0.0, 1.0])

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


def _with_entry(value):
    return np.diag([value, 1.0]).astype(np.complex128)


def _gauge_with_entry(value):
    chain, _ = dnahm.trig_solution(1)
    dnahm.apply_gauge(chain, [_with_entry(value), np.eye(2)])


class TestNonFiniteRefused:
    """A NaN or inf entry is a DimensionMismatch at every kernel entry point,
    never a RuntimeWarning (an error under this suite), an untyped LinAlgError
    or a silent NaN result."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize(
        "call",
        [
            # a NaN deviation and a NaN lambda would pass both comparisons
            lambda m: dnahm.positive_sqrt(m),
            # the symmetry test subtracts inf from inf
            lambda m: dnahm.hermitian_eig(m),
            # the SVD fails on NaN and returns NaN singular values for inf
            lambda m: dnahm.linalg.require_invertible(m),
            lambda m: dnahm.linalg.require_invertible(np.stack([np.eye(2), m])),
            lambda m: dnahm.nullity(m),
            lambda m: dnahm.matrix_rank(np.vstack([m, np.ones((1, 2))])),
            _gauge_with_entry,
        ],
        ids=["positive_sqrt", "hermitian_eig", "require_invertible", "require_invertible_stack",
             "nullity", "matrix_rank", "apply_gauge"],
    )
    def test_matrix_entry(self, call, value):
        m = value if call is _gauge_with_entry else _with_entry(value)
        with pytest.raises(DimensionMismatch, match="entries must be finite"):
            call(m)

    @pytest.mark.parametrize(
        "coeffs",
        [[1.0, np.nan, 1.0], [1.0, 0.0, np.inf], [[1.0, 2.0, 1.0], [np.nan, 0.0, 1.0]]],
        ids=["nan_middle", "inf_leading", "stacked_row"],
    )
    def test_poly_roots_coefficient(self, coeffs):
        with pytest.raises(DimensionMismatch, match="coefficients must be finite"):
            dnahm.poly_roots(coeffs)

    def test_svd_failure_on_finite_input_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        for call in (dnahm.linalg.require_invertible, dnahm.nullity):
            with pytest.raises(NoConvergence, match="SVD did not converge"):
                call(dnahm.cmatrix(np.eye(2)))
