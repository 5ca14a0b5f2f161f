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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    ChainTooShort,
    DegenerateSlice,
    DimensionMismatch,
    NoConvergence,
    PointNotOnCurve,
)
from .linalg import CMatrix, max_abs
from .model import DNChain

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CurvePoint:
    """Affine coordinates of a point on (or near) a surface's zero set."""

    eta: complex
    zeta: complex


@dataclass(frozen=True)
class SpectralSurface:
    """Coefficient grid of a bidegree (k, k) polynomial, c[i][j] on eta^i zeta^j."""

    k: int
    c: np.ndarray

    def __post_init__(self):
        if self.c.shape != (self.k + 1, self.k + 1):
            raise DimensionMismatch(f"coefficient grid must be {self.k + 1} square")
        if abs(self.c[0, self.k] - 1.0) > 1e-9 * (1.0 + max_abs(self.c)):
            raise DimensionMismatch("surface normalization c[0][k] = 1 violated")

    def evaluate(self, eta: complex, zeta: complex) -> complex:
        e = eta ** np.arange(self.k + 1)
        z = zeta ** np.arange(self.k + 1)
        return complex(e @ self.c @ z)

    def magnitude(self, eta: complex, zeta: complex) -> float:
        """Sum of |c[i][j]| |eta|^i |zeta|^j: the natural local scale of evaluate."""
        e = abs(eta) ** np.arange(self.k + 1)
        z = abs(zeta) ** np.arange(self.k + 1)
        return float(e @ np.abs(self.c) @ z)

    def gradient(self, eta: complex, zeta: complex) -> tuple[complex, complex]:
        i = np.arange(self.k + 1)
        e, z = eta ** i, zeta ** i
        de = np.concatenate(([0.0], i[1:] * eta ** (i[1:] - 1)))
        dz = np.concatenate(([0.0], i[1:] * zeta ** (i[1:] - 1)))
        return complex(de @ self.c @ z), complex(e @ self.c @ dz)

    def zeta_coefficients(self, eta: complex) -> np.ndarray:
        """Ascending coefficients of the degree-k polynomial zeta -> F(eta, zeta)."""
        return (eta ** np.arange(self.k + 1)) @ self.c


@dataclass(frozen=True)
class SmoothnessReport:
    min_gradient: float
    flagged: tuple[CurvePoint, ...]


def bivariate_coeffs(f: Callable[[complex, complex], complex], deg1: int, deg2: int) -> np.ndarray:
    """Coefficient grid of a bivariate polynomial from point evaluations.

    Evaluates f on the (deg1+1) x (deg2+1) tensor grid of roots of unity and
    inverts the DFT in each variable. Exact (to rounding) whenever f is a
    polynomial of bidegree at most (deg1, deg2).
    """
    n1, n2 = deg1 + 1, deg2 + 1
    w1 = np.exp(2j * np.pi * np.arange(n1) / n1)
    w2 = np.exp(2j * np.pi * np.arange(n2) / n2)
    grid = np.array([[f(e, z) for z in w2] for e in w1])
    return np.fft.fft2(grid) / grid.size


def pencil(A: CMatrix, B: CMatrix, D: CMatrix) -> Callable[[complex, complex], CMatrix]:
    """M(eta, zeta) = eta zeta A + eta B + zeta I + D, whose determinant is the surface.

    A, B and D may be stacks of matrices; M is then the stack of pencils.
    """
    eye = np.eye(A.shape[-1], dtype=np.complex128)

    def m(eta: complex, zeta: complex) -> CMatrix:
        return eta * zeta * A + eta * B + zeta * eye + D

    return m


def pencil_at_curve_point(
    A: CMatrix, B: CMatrix, D: CMatrix, point: CurvePoint, on_curve_tol: float
) -> tuple[CMatrix, float]:
    """M at a curve point and the natural magnitude of its terms, |eta zeta| ||A||
    + |eta| ||B|| + |zeta| + ||D||; raises PointNotOnCurve if |F| is too large.

    Singular values measured against that scale, not only sigma_max, keep a
    rank decision meaningful when M itself is nearly zero (k = 1).
    """
    eta, zeta = point.eta, point.zeta
    surface = char_surface(A, B, D)
    residual = abs(surface.evaluate(eta, zeta))
    if residual > on_curve_tol * max(1.0, surface.magnitude(eta, zeta)):
        raise PointNotOnCurve(f"|F| = {residual:.3e} at ({eta}, {zeta})")
    scale = abs(eta * zeta) * max_abs(A) + abs(eta) * max_abs(B) + abs(zeta) + max_abs(D)
    return pencil(A, B, D)(eta, zeta), scale


def char_surface(A: CMatrix, B: CMatrix, D: CMatrix):
    """Spectral surface of a site triple, or a tuple of them for stacked triples.

    A, B and D are k x k matrices, or (n, k, k) stacks of n site triples;
    a stack gives a tuple of n surfaces. The determinant grid is filled one
    roots-of-unity node at a time, each node one determinant batched over
    the stack, so the working memory is a few (n, k, k) arrays.
    """
    A, B, D = (np.asarray(m) for m in (A, B, D))
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1] or not A.shape == B.shape == D.shape:
        raise DimensionMismatch("A, B, D must be equal-size square matrices or stacks of them")
    k = A.shape[-1]
    stacked = A.ndim == 3
    a, b, d = (m if stacked else m[None] for m in (A, B, D))
    m_at = pencil(a, b, d)
    w = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))
    grid = np.empty((len(a), k + 1, k + 1), dtype=np.complex128)
    for i, eta in enumerate(w):
        for j, zeta in enumerate(w):
            grid[:, i, j] = np.linalg.det(m_at(eta, zeta))
    c = np.fft.fft2(grid) / (k + 1) ** 2
    lost = np.abs(c[:, 0, k] - 1.0) > 1e-12 * (1.0 + np.abs(c).max(axis=(1, 2)))
    if lost.any():
        where = f" at stacked site {int(np.argmax(lost))}" if stacked else ""
        raise NoConvergence(f"coefficient extraction lost the identity-block normalization{where}")
    c[:, 0, k] = 1.0  # forced by the identity block
    c.setflags(write=False)
    surfaces = tuple(SpectralSurface(k=k, c=ci) for ci in c)
    return surfaces if stacked else surfaces[0]


def site_surfaces(chain: DNChain) -> tuple[tuple[SpectralSurface, ...], np.ndarray]:
    """Every site's surface, from one stacked char_surface call, and its drift.

    The drift of site i is max |c_i - c_0|, its largest coefficient deviation
    from the first site's surface.
    """
    surfaces = char_surface(*(np.stack([getattr(s, f) for s in chain.sites]) for f in "ABD"))
    c = np.stack([surf.c for surf in surfaces])
    return surfaces, np.abs(c - c[0]).max(axis=(1, 2))


def invariance_drift(chain: DNChain) -> float:
    """Max coefficient deviation of per-site surfaces from the first site's.

    Zero (to rounding) on solutions of the discrete Nahm equations: the
    surface is the conserved quantity of the evolution.
    """
    if len(chain.sites) < 2:
        raise ChainTooShort("drift needs at least two sites")
    return float(site_surfaces(chain)[1][1:].max())


def drift_series(chain: DNChain) -> list[tuple[int, float]]:
    """Per-site drift against the first site, as (site index, deviation) rows."""
    return list(zip((s.r for s in chain.sites), site_surfaces(chain)[1].tolist()))


def zeta_slice_roots(surface: SpectralSurface, eta: complex) -> np.ndarray:
    """The k roots in zeta of F(eta, .), raising DegenerateSlice on collapse.

    Degeneracy is judged against the surface's coefficient scale as well as
    the slice's own, so a slice where the whole polynomial nearly vanishes
    (a line of the curve) is reported rather than root-solved.
    """
    coeffs = surface.zeta_coefficients(eta)
    scale = max(1.0, float(np.abs(surface.c).max()), float(np.abs(coeffs).max()))
    if abs(coeffs[-1]) <= 1e-12 * scale:
        raise DegenerateSlice(f"zeta-degree collapses at eta = {eta}")
    return linalg.poly_roots(coeffs)


def curve_samples(
    surface: SpectralSurface,
    n_eta: int,
    radius: float = 1.0,
    residual_tol: float = 1e-8,
) -> list[CurvePoint]:
    """Sample the curve over n_eta values of eta on a circle.

    For each eta the k roots of the zeta-slice polynomial are returned;
    every point satisfies |F| <= residual_tol times the local magnitude.
    Degenerate slices are skipped (the returned list is shorter).
    """
    points: list[CurvePoint] = []
    skipped = 0
    for m in range(n_eta):
        eta = radius * np.exp(2j * np.pi * m / n_eta)
        try:
            roots = zeta_slice_roots(surface, eta)
        except DegenerateSlice:
            skipped += 1
            continue
        for zeta in roots:
            residual = abs(surface.evaluate(eta, zeta))
            if residual > residual_tol * surface.magnitude(eta, zeta):
                raise NoConvergence(
                    f"curve sample residual {residual:.3e} exceeded tolerance at eta={eta}"
                )
            points.append(CurvePoint(eta=complex(eta), zeta=complex(zeta)))
    if skipped:
        logger.warning("curve_samples skipped %d degenerate eta slices", skipped)
    return points


def smoothness_report(
    surface: SpectralSurface,
    samples: Sequence[CurvePoint],
    flag_tol: float = 1e-6,
) -> SmoothnessReport:
    """Gradient-vanishing scan: flags samples where dF is suspiciously small.

    A vanishing gradient at a curve point marks it singular (a node of a
    reducible curve, for instance). Scale is the natural magnitude bound of
    the gradient at the point.
    """
    min_gradient = np.inf
    flagged = []
    i = np.arange(surface.k + 1)
    absc = np.abs(surface.c)
    for pt in samples:
        ge, gz = surface.gradient(pt.eta, pt.zeta)
        gnorm = float(np.hypot(abs(ge), abs(gz)))
        ae, az = abs(pt.eta) ** i, abs(pt.zeta) ** i
        de = np.concatenate(([0.0], i[1:] * abs(pt.eta) ** (i[1:] - 1)))
        dz = np.concatenate(([0.0], i[1:] * abs(pt.zeta) ** (i[1:] - 1)))
        scale = float(de @ absc @ az + ae @ absc @ dz)
        min_gradient = min(min_gradient, gnorm)
        if gnorm < flag_tol * max(1.0, scale):
            flagged.append(pt)
    if not samples:
        min_gradient = 0.0
    return SmoothnessReport(min_gradient=float(min_gradient), flagged=tuple(flagged))


def cokernel_nullity(
    A: CMatrix,
    B: CMatrix,
    D: CMatrix,
    point: CurvePoint,
    tol: float = linalg.RANK_TOL,
    on_curve_tol: float = 1e-6,
) -> int:
    """Nullity of M(eta, zeta) at a curve point; 1 at smooth points."""
    m, m_scale = pencil_at_curve_point(A, B, D, point, on_curve_tol)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s <= tol * max(float(s[0]), m_scale)))


def antidiagonal_clearance(
    surface: SpectralSurface,
    n: int,
    radii: Sequence[float] = (0.5, 1.0, 2.0),
) -> float:
    """Minimum rescaled |F| along the anti-diagonal zeta = -1/conj(eta).

    Sampled over n angles on circles of the given radii, with the
    homogeneous rescaling |conj(eta)^k F| / (1 + |eta|^2)^k that stays
    finite at the poles. A positive lower bound is evidence the curve
    misses the anti-diagonal; a value at rounding scale reports an
    intersection.
    """
    k = surface.k
    best = np.inf
    for radius in radii:
        for m in range(n):
            eta = radius * np.exp(2j * np.pi * m / n)
            value = surface.evaluate(eta, -1.0 / np.conj(eta))
            rescaled = abs(np.conj(eta) ** k * value) / (1.0 + abs(eta) ** 2) ** k
            best = min(best, rescaled)
    return float(best)
