"""Ward's Lax operators on sections over the chain's site set.

A section assigns a k-vector f_r to each site. The two operators

    (W+ f)_r = P+_{r-1} f_{r-1} - (eta A_r + 1) f_r
    (W- f)_r = eta P-_{r+1} f_{r+1} + (zeta + D_r) f_r

commute for all eta, zeta exactly when the discrete Nahm equations hold,
and the zero-order operator M(eta, zeta) factorizes through them. W+ is
undefined at the left-most site and W- at the right-most, so all operator
identities are asserted on interior sites only.

Both identities are checked once over the whole chain, on a probe block
rather than on the n*k delta basis. W+ and W- couple only neighbouring
sites, so every entry of a product of two of them at site r, and of M at
r, reads sections at r - 1, r and r + 1 only. Those three sites differ
mod 3, so summing the unit vectors of all sites of one colour (index
mod 3) into one column loses nothing: each entry of the probed result is
exactly one entry of the delta-basis result, and the delta-basis entries
it omits are exact zeros. The checks then cost O(n k^3) time and
O(n k^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ChainTooShort, DimensionMismatch, EtaNearZero, PointNotOnCurve, SingularPminus
)
from .linalg import max_abs
from .model import DNChain
from .spectral import pencil, pencil_at_curve_point


@dataclass(frozen=True)
class WardSection:
    """Vectors attached to consecutive sites starting at ``start``.

    values has shape (n_sites, k) for a single section or (n_sites, k, b)
    for a block of b sections evaluated together.
    """

    start: int
    values: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.values.shape[0] - 1

    def at(self, r: int) -> np.ndarray:
        return self.values[r - self.start]


def basis_sections(chain: DNChain) -> WardSection:
    """The whole-chain 3-colour probe block.

    For n sites the block has min(n, 3)*k columns: column c*k + j holds the
    unit vector e_j at every site s with (s - r0) mod 3 == c. For n <= 3
    this is the full delta basis.
    """
    n, k = len(chain.A), chain.k
    colours = min(n, 3)
    values = np.zeros((n, k, colours, k), dtype=np.complex128)
    index = np.arange(n)
    values[index, :, index % 3, :] = np.eye(k)
    return WardSection(start=chain.r0, values=values.reshape(n, k, colours * k))


def ward_plus(chain: DNChain, eta: complex, f: WardSection) -> WardSection:
    """Apply W+; the result covers the sites where f_{r-1}, f_r and the link exist."""
    lo = max(chain.r0 + 1, f.start + 1)
    hi = min(chain.r1, f.end)
    if lo > hi:
        raise ChainTooShort("no sites on which W+ is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    site = slice(lo - chain.r0, hi + 1 - chain.r0)
    at = slice(lo - f.start, hi + 1 - f.start)
    link, prev = (slice(s.start - 1, s.stop - 1) for s in (site, at))
    v = f.values if f.values.ndim == 3 else f.values[..., None]  # one section: 1 column
    values = chain.Pplus[link] @ v[prev] - (eta * chain.A[site] + eye) @ v[at]
    return WardSection(start=lo, values=values.reshape(-1, *f.values.shape[1:]))


def ward_minus(chain: DNChain, eta: complex, zeta: complex, f: WardSection) -> WardSection:
    """Apply W-; the result covers the sites where f_r, f_{r+1} and the link exist."""
    lo = max(chain.r0, f.start)
    hi = min(chain.r1 - 1, f.end - 1)
    if lo > hi:
        raise ChainTooShort("no sites on which W- is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    site = slice(lo - chain.r0, hi + 1 - chain.r0)
    at = slice(lo - f.start, hi + 1 - f.start)
    nxt = slice(at.start + 1, at.stop + 1)
    v = f.values if f.values.ndim == 3 else f.values[..., None]  # one section: 1 column
    values = eta * chain.Pminus[site] @ v[nxt] + (zeta * eye + chain.D[site]) @ v[at]
    return WardSection(start=lo, values=values.reshape(-1, *f.values.shape[1:]))


def commutator_residual(chain: DNChain, eta: complex, zeta: complex) -> float:
    """Max entry of [W+, W-] applied to the delta basis, over interior sites.

    Evaluated on the whole-chain probe block of ``basis_sections``, whose
    result holds exactly the nonzero entries of the delta-basis result.

    Vanishes exactly when the discrete Nahm equations hold on interior
    links. Expanding the operators shows the result is independent of zeta
    (the zeta terms cancel identically; the survivors are eta-weighted
    combinations of the equation residuals).
    """
    if len(chain.A) < 3:
        raise ChainTooShort("commutator needs at least three sites")
    f = basis_sections(chain)
    pm = ward_plus(chain, eta, ward_minus(chain, eta, zeta, f))
    mp = ward_minus(chain, eta, zeta, ward_plus(chain, eta, f))
    assert pm.start == mp.start and pm.values.shape == mp.values.shape
    return max_abs(pm.values - mp.values)


def m_factorization_residual(chain: DNChain, eta: complex, zeta: complex) -> np.ndarray:
    """Deviation of M from eta P- W+ + P+ W- - W+ W- at each interior site.

    Composite operators read through the links: (P- g)_r = P-_{r+1} g_{r+1}
    and (P+ g)_r = P+_{r-1} g_{r-1}. Evaluated on the whole-chain probe
    block of ``basis_sections``; entry i of the returned (n - 2,) array is
    the max-abs residual at site r0 + 1 + i. The commuted product W- W+
    differs from W+ W- by the commutator, which ``commutator_residual``
    measures.
    """
    if len(chain.A) < 3:
        raise ChainTooShort("factorization needs at least three sites")
    f = basis_sections(chain)
    wplus_f = ward_plus(chain, eta, f)  # sites r0 + 1 .. r1
    wminus_f = ward_minus(chain, eta, zeta, f)  # sites r0 .. r1 - 1
    product = ward_plus(chain, eta, wminus_f)  # the interior sites
    rhs = (
        eta * chain.Pminus[1:] @ wplus_f.values[1:]
        + chain.Pplus[:-1] @ wminus_f.values[:-1]
        - product.values
    )
    inner = slice(1, -1)
    lhs = pencil(chain.A[inner], chain.B[inner], chain.D[inner])(eta, zeta) @ f.values[inner]
    return np.abs(lhs - rhs).max(axis=(1, 2))


def _link_index(chain: DNChain, r: int) -> int:
    """Stack index of link (r, r+1); IndexError for an r outside the chain."""
    if not chain.r0 <= r < chain.r1:
        raise IndexError(f"link {r} outside [{chain.r0}, {chain.r1 - 1}]")
    return r - chain.r0


def transport_covector(
    chain: DNChain, r: int, eta: complex, zeta: complex, g_right: np.ndarray
) -> np.ndarray:
    """Transport a covector across link (r, r+1) so that [g^t W-] vanishes.

    Given g at site r+1, returns g at site r:
        g_r^t = -(1/eta) g_{r+1}^t (zeta + D_{r+1}) (P-_{r+1})^{-1}.
    Raises DimensionMismatch for a non-finite point or g_right, or a g_right
    of another shape than (k,), and SingularPminus when P-_{r+1} fails
    ``linalg.require_invertible``.
    """
    if not np.isfinite([eta, zeta]).all():
        raise DimensionMismatch("point coordinates must be finite")
    g_right = np.asarray(g_right)
    if g_right.shape != (chain.k,) or not np.isfinite(g_right).all():
        raise DimensionMismatch(f"g_right must be a finite length-{chain.k} vector")
    if abs(eta) <= 1e-8:
        raise EtaNearZero("transport needs |eta| > 1e-8")
    i = _link_index(chain, r)
    pminus = chain.Pminus[i]
    linalg.require_invertible(pminus, error=SingularPminus)
    eye = np.eye(chain.k, dtype=np.complex128)
    return -(1.0 / eta) * g_right @ (zeta * eye + chain.D[i + 1]) @ np.linalg.inv(pminus)


def dual_transport_check(chain: DNChain, r: int, eta: complex, zeta: complex) -> float:
    """Transport a left null covector of M_{r+1} across link (r, r+1).

    Computes g_{r+1} with g^t M_{r+1} = 0 at the curve point (eta, zeta),
    transports it so that [g^t W-] = 0, and returns ||g_r^t M_r|| / ||g_r||.
    On solutions this vanishes: annihilators of M march down the chain one
    twist at a time, which is the step-by-step form of the straight-line
    motion of the associated line bundle. Raises PointNotOnCurve when the
    point is off M_{r+1}'s curve or M_{r+1}'s smallest singular value
    exceeds 1e-6 times its scale (or 1).
    """
    i = _link_index(chain, r)
    A, B, D = chain.A, chain.B, chain.D
    m_right, m_scale = pencil_at_curve_point(A[i + 1], B[i + 1], D[i + 1], eta, zeta)
    # null covector from the transpose's nullspace
    _, s, vh = np.linalg.svd(m_right.T)
    if s[-1] > 1e-6 * max(1.0, m_scale):
        raise PointNotOnCurve("M at the right site has no left null covector")
    g_right = vh[-1].conj()  # direction of the smallest singular value
    g_left = transport_covector(chain, r, eta, zeta, g_right)
    m_left = pencil(A[i], B[i], D[i])(eta, zeta)
    norm = float(np.linalg.norm(g_left))
    if norm == 0.0:
        raise PointNotOnCurve("transported covector vanished")
    return float(np.linalg.norm(g_left @ m_left)) / norm
