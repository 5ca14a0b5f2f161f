"""Dense complex matrix kernel used by every other module.

Matrices are plain complex128 numpy arrays, one matrix or an (n, k, k)
stack; ``cmatrix`` validates and freezes one. Sizes are small (the charge k
is typically 2..10). Positive square roots come from one Hermitian
eigendecomposition. All tolerances are relative to matrix magnitude: 1e-9
(``RANK_TOL``) for rank and invertibility decisions, 1e-12 for symmetry
checks.
"""

from __future__ import annotations

import math

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


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")


def cmatrix(data) -> CMatrix:
    """Validate a matrix, or an (n, rows, cols) stack of them: complex128 with
    all entries finite.

    The returned array is a frozen copy (non-writeable), safe to share.
    """
    m = np.array(data, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {m.shape}")
    _require_finite(m)
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


def _part_scale(m: np.ndarray) -> np.ndarray:
    """The largest |Re| or |Im| entry of each matrix, shaped to divide it:
    finite for a finite matrix, where the modulus of an entry may overflow."""
    return np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1), keepdims=True)


def _deviation(half: CMatrix) -> float:
    """|m - m*| from the half m/2: a float, inf rather than a warning past the range."""
    return 2.0 * max_abs(half - dagger(half))


def _hermitian_part(m: CMatrix, tol: float) -> CMatrix:
    """Return (m + m*)/2 after checking m is finite and Hermitian within tol (relative).

    Both are taken from the exact halves m/2, so that no finite entry
    overflows; outside the subnormal range the bits are those of (m + m*)/2
    and of |m - m*|. A finite m with an entry whose modulus overflows is
    judged Hermitian on m divided by its largest real or imaginary part; if
    it is, its largest eigenvalue is at least that modulus, past the largest
    double, which is a NoConvergence.
    """
    _require_square(m)
    scale = max_abs(m)
    if not math.isfinite(scale):
        _require_finite(m)
        part = _part_scale(m).item()
        unit = m / part
        deviation = _deviation(unit / 2.0)
        if deviation > tol * (1.0 + max_abs(unit)):
            raise NotHermitian(deviation * part)
        raise NoConvergence("eigenvalues exceed the largest double: an entry's modulus overflows")
    half = m / 2.0
    deviation = _deviation(half)
    if deviation > tol * (1.0 + scale):
        raise NotHermitian(deviation)
    return half + dagger(half)


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0 with a ValueError:
    every comparison against NaN reads False, so a NaN would pass any check."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def hermitian_eig(h: CMatrix, tol: float = SYMMETRY_TOL) -> tuple[np.ndarray, CMatrix]:
    """Eigendecompose a Hermitian matrix.

    Returns (eigenvalues ascending, U) with h @ U = U @ diag(eigenvalues)
    and U unitary. Raises NotHermitian if the symmetry check fails,
    NoConvergence if the underlying iteration gives up or an entry's
    modulus (so an eigenvalue) exceeds the largest double, and ValueError
    for a tol that is not a finite number >= 0.
    """
    require_tolerance(tol)
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
    eigenvalue is at or below tol relative to the matrix magnitude, 1 + |h|,
    and ValueError for a tol that is not a finite number >= 0.
    """
    lam, u = hermitian_eig(h, tol)
    if lam[0] <= tol * (1.0 + max_abs(h)):
        raise NotPositiveDefinite(float(lam[0]))
    return (u * np.sqrt(lam)) @ dagger(u)


def _svd(m: np.ndarray, compute_uv: bool):
    """np.linalg.svd with its failure typed: DimensionMismatch for a matrix
    with a non-finite entry, NoConvergence otherwise."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        _require_finite(m)
        raise NoConvergence(f"SVD did not converge: {exc}") from exc


def require_invertible(m: CMatrix, error: type[Singular] = Singular) -> None:
    """The invertibility rule: raise ``error`` (Singular or the subclass naming
    the matrix's role, with the condition estimate) when the smallest singular
    value is at or below RANK_TOL times the largest. For a stack of matrices
    the error carries the condition of the first one that fails. A matrix
    with a non-finite entry is a DimensionMismatch."""
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {m.shape}")
    s = _svd(m, compute_uv=False).reshape(-1, m.shape[-1])
    if not s.shape[1]:
        raise error(condition=np.inf)  # a 0 x 0 matrix
    # "not above" also fails the NaN singular values of an inf entry or of an
    # overflowing sigma_max
    failed = ~(s[:, -1] > RANK_TOL * s[:, 0])
    if not failed.any():
        return
    _require_finite(m)
    # the condition does not depend on scale: a finite matrix whose sigma_max
    # overflows is decomposed as m divided by its largest real or imaginary part
    over = ~(s[:, 0] < np.inf)
    if over.any():
        big = m.reshape(s.shape[0], *m.shape[-2:])[over]
        s[over] = _svd(big / _part_scale(big), compute_uv=False)
        failed = ~(s[:, -1] > RANK_TOL * s[:, 0])
    if failed.any():
        smax, smin = s[np.argmax(failed), [0, -1]]
        raise error(condition=float(smax / smin) if smin > 0 else np.inf)


def nullity(m: CMatrix) -> tuple[int, CMatrix]:
    """Numerical nullity and an orthonormal nullspace basis.

    Accepts any rectangular matrix. Counts singular values at or below
    RANK_TOL * sigma_max; the basis columns satisfy
    ||m @ basis|| <= RANK_TOL * sigma_max. A matrix with a non-finite entry
    is a DimensionMismatch; a finite one whose sigma_max overflows is
    decomposed as m divided by its largest real or imaginary part.
    """
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    _, s, vh = _svd(m, compute_uv=True)
    if s.size and not s[0] < np.inf:  # the NaN of an inf entry, or an overflowing sigma_max
        _require_finite(m)
        # rank and nullspace do not depend on scale
        _, s, vh = _svd(m / _part_scale(m), compute_uv=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size else 0
    basis = dagger(vh[rank:])
    return m.shape[1] - rank, basis


def matrix_rank(m: CMatrix) -> int:
    """Numerical rank at relative tolerance RANK_TOL."""
    count, _ = nullity(m)
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
    if not np.isfinite(c).all():
        raise DimensionMismatch("coefficients must be finite")
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
