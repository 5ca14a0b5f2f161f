"""Spectral surfaces: the conserved bivariate polynomial of a chain.

The surface of a site triple (A, B, D) is the coefficient grid c[i][j] of

    det(eta zeta A + eta B + zeta I + D) = sum c[i][j] eta^i zeta^j,

a bidegree (k, k) curve on P1 x P1. The zeta^k coefficient comes from the
identity block, so c[0][k] = 1 and coefficient grids of different sites can
be compared directly; their invariance along a chain is the discrete-time
isospectrality. Coefficients are extracted by evaluating the determinant on
a tensor grid of roots of unity and applying the inverse discrete Fourier
transform in each variable, which is exactly conditioned at these sizes.
"""

from __future__ import annotations

import logging
from numbers import Integral
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    ChainTooShort,
    DegenerateSlice,
    DimensionMismatch,
    NoConvergence,
    PointNotOnCurve,
    TooManyPoints,
)
from .linalg import CMatrix, max_abs
from .model import DNChain

logger = logging.getLogger(__name__)


def _grid(c: np.ndarray) -> np.ndarray:
    """A curve diagnostic's grid c[i][j] of eta^i zeta^j as an array, refused with
    DimensionMismatch unless it is square, finite and normalized, c[0][k] = 1."""
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size:
        raise DimensionMismatch(f"coefficient grid must be (k + 1) x (k + 1), got shape {c.shape}")
    if not np.isfinite(c).all():
        raise DimensionMismatch("coefficient grid entries must be finite")
    if abs(c[0, -1] - 1.0) > 1e-9 * (1.0 + max_abs(c)):
        raise DimensionMismatch("surface normalization c[0][k] = 1 violated")
    return c


# The batched evaluation path. Every function below takes 1-D arrays of
# eta and zeta values, one entry per point, and works on all points in one
# expression. Row products are stacked (1, n) @ (n, n) and (1, n) @ (n, 1)
# products: numpy hands each stacked row to the kernel of a 1-D product, so
# a point's value has the bits of its own ``e @ c @ z``. One 2-D
# (m, n) @ (n, n) product goes to another kernel and rounds differently.
# The three that take caller points (_evaluate, _gradient, _zeta_slices)
# ignore overflow: at a finite point too large for the powers and products
# they give an inf or NaN value, not a RuntimeWarning.


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """Rows x^0, x^1, ..., x^k of the entries of x, shape (len(x), k + 1).

    Every point coordinate enters here, so this is where a non-finite one
    is refused, as a DimensionMismatch.
    """
    if not np.isfinite(x).all():
        raise DimensionMismatch("point coordinates must be finite")
    return x[:, None] ** np.arange(k + 1)


def _derivatives(p: np.ndarray) -> np.ndarray:
    """Rows 0, 1, 2 x, ..., k x^(k-1) from the power rows p of ``_powers``."""
    d = np.zeros_like(p)
    d[:, 1:] = np.arange(1, p.shape[1]) * p[:, :-1]
    return d


def _forms(e: np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """e[i] @ c @ z[i] for every row i of the (m, n) arrays e and z."""
    return (e[:, None, :] @ c @ z[:, :, None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")
def _evaluate(c: np.ndarray, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """F(eta[i], zeta[i]) for the coefficient grid c, at every point i."""
    k = len(c) - 1
    return _forms(_powers(eta, k), c, _powers(zeta, k))


def _magnitude(c: np.ndarray, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Sum of |c[i][j]| |eta|^i |zeta|^j at every point: F's natural scale there."""
    return _evaluate(np.abs(c), np.abs(eta), np.abs(zeta))


@np.errstate(over="ignore", invalid="ignore")
def _gradient(c: np.ndarray, eta: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dF/deta, dF/dzeta) for the coefficient grid c, at every point."""
    k = len(c) - 1
    e, z = _powers(eta, k), _powers(zeta, k)
    return _forms(_derivatives(e), c, z), _forms(e, c, _derivatives(z))


@np.errstate(over="ignore", invalid="ignore")
def _zeta_slices(c: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zeta-slice coefficient rows of the grid c at every eta, and which
    slices are degenerate.

    Degeneracy is judged against the grid's coefficient scale as well as
    the slice's own, so a slice where the whole polynomial nearly vanishes
    (a line of the curve) is reported rather than root-solved.
    """
    coeffs = (_powers(eta, len(c) - 1)[:, None, :] @ c)[:, 0]
    scale = np.maximum(max(1.0, float(np.abs(c).max())), np.abs(coeffs).max(axis=1))
    return coeffs, np.abs(coeffs[:, -1]) <= 1e-12 * scale


def _unity_roots(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2 pi i m / n), m = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


# A curve diagnostic holds a few arrays of points x (k + 1)^2 complex
# entries at once: the companion matrices, eigvals' workspace and the power
# rows. Under tracemalloc, curve_samples peaks at 35-66 bytes per element
# (k = 8 down to 1) and smoothness_report on its samples at up to 97, so a
# request at the budget peaks near 200 MB.
MAX_CURVE_ELEMENTS = 2_000_000


def _require_budget(points: int, k: int, what: str) -> None:
    """Refuse, before allocating, a point count that is negative or not an
    integer (ValueError), or a request of points x (k + 1)^2 elements over
    budget (TooManyPoints)."""
    if not isinstance(points, Integral) or points < 0:
        raise ValueError(f"{what}: point count must be >= 0 and an integer, got {points}")
    if points * (k + 1) ** 2 > MAX_CURVE_ELEMENTS:
        raise TooManyPoints(
            f"{what}: {points} points at k = {k} are {points * (k + 1) ** 2} elements "
            f"(points x (k + 1)^2), over the budget of {MAX_CURVE_ELEMENTS}"
        )


def bivariate_coeffs(
    f: Callable[[complex, complex], complex | np.ndarray], deg1: int, deg2: int
) -> np.ndarray:
    """Coefficient grid of a bivariate polynomial from point evaluations.

    Evaluates f on the (deg1+1) x (deg2+1) tensor grid of roots of unity and
    inverts the DFT in each variable. Exact (to rounding) whenever f is a
    polynomial of bidegree at most (deg1, deg2). An f that returns an (n,)
    array, n polynomials evaluated at once, gives a C-contiguous
    (n, deg1 + 1, deg2 + 1) stack of grids.
    """
    w1, w2 = _unity_roots(deg1 + 1), _unity_roots(deg2 + 1)
    grid = np.array([[f(e, z) for z in w2] for e in w1], dtype=np.complex128)
    grid = np.ascontiguousarray(np.moveaxis(grid, (0, 1), (-2, -1)))
    return np.fft.fft2(grid) / (len(w1) * len(w2))


def pencil(A: CMatrix, B: CMatrix, D: CMatrix) -> Callable[[complex, complex], CMatrix]:
    """M(eta, zeta) = eta zeta A + eta B + zeta I + D, whose determinant is the surface.

    A, B and D may be stacks of matrices; M is then the stack of pencils.
    """
    eye = np.eye(A.shape[-1], dtype=np.complex128)

    def m(eta: complex, zeta: complex) -> CMatrix:
        return eta * zeta * A + eta * B + zeta * eye + D

    return m


def pencil_at_curve_point(
    A: CMatrix, B: CMatrix, D: CMatrix, eta: complex, zeta: complex
) -> tuple[CMatrix, float]:
    """M at the curve point (eta, zeta) and the natural magnitude of its terms,
    |eta zeta| ||A|| + |eta| ||B|| + |zeta| + ||D||; raises PointNotOnCurve unless
    |F| <= 1e-6 times the surface's local magnitude (or 1) and both are finite.

    Singular values measured against that scale, not only sigma_max, keep a
    rank decision meaningful when M itself is nearly zero (k = 1).
    """
    c, e, z = char_surface(A, B, D), np.array([eta]), np.array([zeta])
    residual = abs(complex(_evaluate(c, e, z)[0]))
    bound = 1e-6 * max(1.0, float(_magnitude(c, e, z)[0]))
    if not residual <= bound < np.inf:  # a NaN F or an overflowed magnitude is off the curve
        raise PointNotOnCurve(f"|F| = {residual:.3e} at ({eta}, {zeta})")
    scale = abs(eta * zeta) * max_abs(A) + abs(eta) * max_abs(B) + abs(zeta) + max_abs(D)
    return pencil(A, B, D)(eta, zeta), scale


@np.errstate(over="ignore", invalid="ignore")  # an overflowing det is refused below
def char_surface(A: CMatrix, B: CMatrix, D: CMatrix) -> np.ndarray:
    """Coefficient grid of a site triple, or the grids of stacked triples.

    A, B and D are k x k matrices, or (n, k, k) stacks of n site triples;
    the result is one read-only array of shape A.shape[:-2] + (k + 1, k + 1),
    c[..., i, j] on eta^i zeta^j. The coefficients come from one
    ``bivariate_coeffs`` call whose f is a batched det over the stack, so
    the working memory is a few (n, k, k) arrays. A grid that loses the
    identity-block normalization raises NoConvergence naming the stacked
    site (0 for a single triple); a grid with a non-finite entry (a
    determinant that overflowed) raises DimensionMismatch.
    """
    A, B, D = (np.asarray(m) for m in (A, B, D))
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1] or not A.shape == B.shape == D.shape:
        raise DimensionMismatch("A, B, D must be equal-size square matrices or stacks of them")
    if not all(np.isfinite(m).all() for m in (A, B, D)):
        raise DimensionMismatch("matrix entries must be finite")
    k = A.shape[-1]
    m = pencil(A, B, D)
    c = bivariate_coeffs(lambda eta, zeta: np.linalg.det(m(eta, zeta)), k, k)
    lost = np.abs(c[..., 0, k] - 1.0) > 1e-12 * (1.0 + np.abs(c).max(axis=(-2, -1)))
    if lost.any():
        raise NoConvergence(
            "coefficient extraction lost the identity-block normalization "
            f"at stacked site {np.argmax(lost)}"
        )
    c[..., 0, k] = 1.0  # forced by the identity block
    if not np.isfinite(c).all():  # NaN and inf pass the normalization test above
        raise DimensionMismatch("coefficient grid entries must be finite")
    c.setflags(write=False)
    return c


def site_surfaces(chain: DNChain) -> tuple[np.ndarray, np.ndarray]:
    """Every site's coefficient grid, from one stacked char_surface call, and its drift.

    The grids are one (n, k + 1, k + 1) array. The drift of site i is
    max |c_i - c_0|, its largest coefficient deviation from the first
    site's grid.
    """
    c = char_surface(chain.A, chain.B, chain.D)
    return c, np.abs(c - c[0]).max(axis=(1, 2))


def invariance_drift(chain: DNChain) -> float:
    """Max coefficient deviation of the site grids from the first site's.

    Zero (to rounding) on solutions of the discrete Nahm equations: the
    surface is the conserved quantity of the evolution.
    """
    if len(chain.A) < 2:
        raise ChainTooShort("drift needs at least two sites")
    return float(site_surfaces(chain)[1][1:].max())


def zeta_slice_roots(c: np.ndarray, eta: complex) -> np.ndarray:
    """The k roots in zeta of F(eta, .), raising DegenerateSlice on collapse.

    The one-slice case of ``curve_samples``, with the same degeneracy rule.
    """
    coeffs, degenerate = _zeta_slices(_grid(c), np.array([eta]))
    if degenerate[0]:
        raise DegenerateSlice(f"zeta-degree collapses at eta = {eta}")
    return linalg.poly_roots(coeffs[0])


def curve_samples(c: np.ndarray, n_eta: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the curve of the grid c over the n_eta-th roots of unity in eta.

    Returns (eta, zeta), two (m,) arrays holding the k zeta roots of each
    slice, slice by slice; every point satisfies |F| <= 1e-8 times the local
    magnitude, else NoConvergence is raised. Degenerate slices are skipped
    and their count logged as a warning. All slices are root-solved by one
    stacked ``poly_roots`` call; a request over ``MAX_CURVE_ELEMENTS``
    raises TooManyPoints before anything is allocated.
    """
    c = _grid(c)
    k = len(c) - 1
    _require_budget(n_eta, k, "curve_samples")
    etas = _unity_roots(n_eta)
    coeffs, degenerate = _zeta_slices(c, etas)
    eta = np.repeat(etas[~degenerate], k)
    zeta = linalg.poly_roots(coeffs[~degenerate]).ravel()
    residual = np.abs(_evaluate(c, eta, zeta))
    failed = np.flatnonzero(residual > 1e-8 * _magnitude(c, eta, zeta))
    if failed.size:
        i = failed[0]
        raise NoConvergence(
            f"curve sample residual {residual[i]:.3e} exceeded tolerance at eta={eta[i]}"
        )
    if degenerate.any():
        logger.warning("curve_samples skipped %d degenerate eta slices", int(degenerate.sum()))
    return eta, zeta


def smoothness_report(c: np.ndarray, eta: np.ndarray, zeta: np.ndarray) -> tuple:
    """Gradient-vanishing scan of the points (eta[i], zeta[i]) on the grid c's curve.

    Returns (min_gradient, flagged): the least |dF| (0.0 for no points) and
    a boolean (m,) mask. A vanishing gradient at a curve point marks it
    singular (a node of a reducible curve, for instance). A point is flagged
    when |dF| is below 1e-6 times the natural magnitude bound of the
    gradient there (or 1): the gradient of the grid |c| at |eta|, |zeta|,
    summed over both variables.
    """
    c = _grid(c)
    eta, zeta = (np.asarray(x, dtype=np.complex128) for x in (eta, zeta))
    if eta.ndim != 1 or eta.shape != zeta.shape:
        raise DimensionMismatch(f"eta and zeta must be (m,) arrays, got {eta.shape}, {zeta.shape}")
    ge, gz = _gradient(c, eta, zeta)
    gnorm = np.hypot(np.abs(ge), np.abs(gz))
    se, sz = _gradient(np.abs(c), np.abs(eta), np.abs(zeta))
    flagged = gnorm < 1e-6 * np.maximum(1.0, se + sz)
    return (float(gnorm.min()) if gnorm.size else 0.0), flagged


def cokernel_nullity(A: CMatrix, B: CMatrix, D: CMatrix, eta: complex, zeta: complex) -> int:
    """Nullity of M(eta, zeta) at a curve point; 1 at smooth points.

    Counts singular values at or below RANK_TOL times the larger of sigma_max
    and the scale from ``pencil_at_curve_point``.
    """
    m, m_scale = pencil_at_curve_point(A, B, D, eta, zeta)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s <= linalg.RANK_TOL * max(float(s[0]), m_scale)))


# Circles |eta| = r on which the anti-diagonal clearance is sampled.
ANTIDIAGONAL_RADII = (0.5, 1.0, 2.0)


def antidiagonal_clearance(c: np.ndarray, n: int) -> float:
    """Minimum rescaled |F| of the grid c along the anti-diagonal zeta = -1/conj(eta).

    Sampled over n angles on each circle of ``ANTIDIAGONAL_RADII``, with the
    homogeneous rescaling |conj(eta)^k F| / (1 + |eta|^2)^k that stays
    finite at the poles. A positive lower bound is evidence the curve
    misses the anti-diagonal; a value at rounding scale reports an
    intersection. Every point is evaluated at once; a request over
    ``MAX_CURVE_ELEMENTS`` raises TooManyPoints before anything is allocated.
    """
    c = _grid(c)
    k = len(c) - 1
    _require_budget(len(ANTIDIAGONAL_RADII) * n, k, "antidiagonal_clearance")
    eta = (np.array(ANTIDIAGONAL_RADII)[:, None] * _unity_roots(n)).ravel()  # radius-major
    value = _evaluate(c, eta, -1.0 / np.conj(eta))
    rescaled = np.abs(np.conj(eta) ** k * value) / (1.0 + np.abs(eta) ** 2) ** k
    return float(rescaled.min(initial=np.inf))
