"""Dense complex matrix kernel used by every other module.

Matrices are plain complex128 numpy arrays, one matrix or an (n, k, k)
stack; ``cmatrix`` validates and freezes one. Sizes are small (the charge k
is typically 2..10). Positive square roots come from one Hermitian
eigendecomposition. All tolerances are relative to matrix magnitude: 1e-9
for rank decisions, 1e-12 for symmetry checks, overridable per call.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
)

CMatrix = np.ndarray

RANK_TOL = 1e-9
SYMMETRY_TOL = 1e-12


def cmatrix(data) -> CMatrix:
    """Validate a matrix, or an (n, rows, cols) stack of them: complex128 with
    all entries finite.

    The returned array is a frozen copy (non-writeable), safe to share.
    """
    m = np.array(data, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("matrix entries must be finite")
    m.setflags(write=False)
    return m


def dagger(m: CMatrix) -> CMatrix:
    """Conjugate transpose, of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m: CMatrix) -> float:
    """Max-abs-entry norm; zero for empty input."""
    return float(np.abs(m).max()) if m.size else 0.0


def _require_square(m: CMatrix) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def _hermitian_part(m: CMatrix, tol: float) -> CMatrix:
    """Return (m + m*)/2 after checking m is Hermitian within tol (relative)."""
    _require_square(m)
    deviation = max_abs(m - dagger(m))
    if deviation > tol * (1.0 + max_abs(m)):
        raise NotHermitian(deviation)
    return (m + dagger(m)) / 2.0


def hermitian_eig(h: CMatrix, tol: float = SYMMETRY_TOL) -> tuple[np.ndarray, CMatrix]:
    """Eigendecompose a Hermitian matrix.

    Returns (eigenvalues ascending, U) with h @ U = U @ diag(eigenvalues)
    and U unitary. Raises NotHermitian if the symmetry check fails and
    NoConvergence if the underlying iteration gives up.
    """
    hs = _hermitian_part(h, tol)
    try:
        lam, u = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolve did not converge: {exc}") from exc
    return lam, u


def positive_sqrt(h: CMatrix, tol: float = SYMMETRY_TOL) -> CMatrix:
    """Positive square root of a Hermitian positive-definite matrix.

    One eigendecomposition h = U diag(lambda) U* gives U diag(sqrt(lambda)) U*.
    Raises NotPositiveDefinite (carrying lambda_min) when the smallest
    eigenvalue is at or below tol relative to the matrix magnitude, 1 + |h|.
    """
    lam, u = hermitian_eig(h, tol)
    if lam[0] <= tol * (1.0 + max_abs(h)):
        raise NotPositiveDefinite(float(lam[0]))
    return (u * np.sqrt(lam)) @ dagger(u)


def require_invertible(
    m: CMatrix, tol: float = RANK_TOL, error: type[Singular] = Singular
) -> None:
    """The invertibility rule: raise ``error`` (Singular or the subclass naming
    the matrix's role, with the condition estimate) when the smallest singular
    value is at or below tol times the largest. For a stack of matrices the
    error carries the condition of the first one that fails."""
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {m.shape}")
    s = np.linalg.svd(m, compute_uv=False).reshape(-1, m.shape[-1])
    if not s.shape[1]:
        raise error(condition=np.inf)  # a 0 x 0 matrix
    smax, smin = s[:, 0], s[:, -1]
    failed = np.flatnonzero((smax == 0.0) | (smin <= tol * smax))
    if failed.size:
        i = failed[0]
        raise error(condition=float(smax[i] / smin[i]) if smin[i] > 0 else np.inf)


def inverse(m: CMatrix, tol: float = RANK_TOL) -> CMatrix:
    """Inverse of a square matrix, refusing when the condition is hopeless.

    Raises Singular (with the condition estimate) when the smallest singular
    value is below tol times the largest.
    """
    require_invertible(m, tol)
    return np.linalg.inv(m)


def nullity(m: CMatrix, tol: float = RANK_TOL) -> tuple[int, CMatrix]:
    """Numerical nullity and an orthonormal nullspace basis.

    Accepts any rectangular matrix. Counts singular values at or below
    tol * sigma_max; the basis columns satisfy ||m @ basis|| <= tol * sigma_max.
    """
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * smax))
    basis = dagger(vh[rank:])
    return m.shape[1] - rank, basis


def matrix_rank(m: CMatrix, tol: float = RANK_TOL) -> int:
    """Numerical rank at relative tolerance tol."""
    count, _ = nullity(m, tol)
    return m.shape[1] - count


def poly_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given ascending coefficients c[0] + c[1] x + ...

    ``coeffs`` is one coefficient sequence of length d + 1, giving d roots,
    or an (m, d + 1) stack of them, giving an (m, d) array with row i the
    roots of row i. Uses companion-matrix eigenvalues, one batched eigvals
    over the stack. Raises DegenerateLeadingCoefficient when a leading
    coefficient is negligible relative to the others in its row. Each row's
    roots are sorted by (real, imag) so output order is deterministic.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise DimensionMismatch("coefficients must be a non-empty 1-D sequence or a stack of them")
    scale = np.abs(c).max(axis=-1)
    lead = np.abs(c[..., -1])
    degenerate = (scale == 0.0) | (lead <= 1e-12 * scale)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        row = f" in row {i}" if c.ndim == 2 else ""
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {lead.flat[i]:.3e} below 1e-12 of scale {scale.flat[i]:.3e}{row}"
        )
    d = c.shape[-1] - 1
    if d == 0:
        return np.zeros((*c.shape[:-1], 0), dtype=np.complex128)
    comp = np.zeros((*c.shape[:-1], d, d), dtype=np.complex128)
    comp[..., 1:, :-1] = np.eye(d - 1)
    comp[..., :, -1] = -(c / c[..., -1:])[..., :-1]
    roots = np.linalg.eigvals(comp)
    order = np.lexsort((roots.imag, roots.real), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)
