"""Ward's Lax operators on sections over the chain's site set.

A section assigns a k-vector f_r to each site. The two operators

    (W+ f)_r = P+_{r-1} f_{r-1} - (eta A_r + 1) f_r
    (W- f)_r = eta P-_{r+1} f_{r+1} + (zeta + D_r) f_r

commute for all eta, zeta exactly when the discrete Nahm equations hold,
and the zero-order operator M(eta, zeta) factorizes through them. W+ is
undefined at the left-most site and W- at the right-most, so all operator
identities are asserted on interior sites only.

Both identities are checked on a probe block rather than on the n*k delta
basis. W+ and W- couple only neighbouring sites, so every entry of a
product of two of them at site r reads sections at r - 1, r and r + 1
only. Those three sites differ mod 3, so summing the unit vectors of all
sites of one colour (index mod 3) into one column loses nothing: each
entry of the probed result is exactly one entry of the delta-basis result,
and the delta-basis entries it omits are exact zeros. The checks then cost
O(n k^3) time and O(n k^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ChainTooShort, EtaNearZero, PointNotOnCurve, SingularPminus
from .linalg import max_abs
from .model import DNChain
from .spectral import CurvePoint, pencil, pencil_at_curve_point


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


def basis_sections(chain: DNChain, sites: range | None = None) -> WardSection:
    """The 3-colour probe block on consecutive ``sites`` (default: the whole chain).

    For m sites the block has min(m, 3)*k columns: column c*k + j holds the
    unit vector e_j at every site s with (s - sites.start) mod 3 == c. For
    m <= 3 this is the full delta basis of those sites.
    """
    if sites is None:
        sites = range(chain.r0, chain.r1 + 1)
    if sites.step != 1 or not sites or sites[0] < chain.r0 or sites[-1] > chain.r1:
        raise ValueError(f"sites must be a consecutive range within [{chain.r0}, {chain.r1}]")
    m, k = len(sites), chain.k
    colours = min(m, 3)
    values = np.zeros((m, k, colours, k), dtype=np.complex128)
    index = np.arange(m)
    values[index, :, index % 3, :] = np.eye(k)
    return WardSection(start=sites.start, values=values.reshape(m, k, colours * k))


def ward_plus(chain: DNChain, eta: complex, f: WardSection) -> WardSection:
    """Apply W+; the result covers the sites where f_{r-1}, f_r and the link exist."""
    lo = max(chain.r0 + 1, f.start + 1)
    hi = min(chain.r1, f.end)
    if lo > hi:
        raise ChainTooShort("no sites on which W+ is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    rows = []
    for r in range(lo, hi + 1):
        link = chain.link(r - 1)
        site = chain.site(r)
        rows.append(link.Pplus @ f.at(r - 1) - (eta * site.A + eye) @ f.at(r))
    return WardSection(start=lo, values=np.array(rows))


def ward_minus(chain: DNChain, eta: complex, zeta: complex, f: WardSection) -> WardSection:
    """Apply W-; the result covers the sites where f_r, f_{r+1} and the link exist."""
    lo = max(chain.r0, f.start)
    hi = min(chain.r1 - 1, f.end - 1)
    if lo > hi:
        raise ChainTooShort("no sites on which W- is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    rows = []
    for r in range(lo, hi + 1):
        link = chain.link(r)
        site = chain.site(r)
        rows.append(eta * link.Pminus @ f.at(r + 1) + (zeta * eye + site.D) @ f.at(r))
    return WardSection(start=lo, values=np.array(rows))


def commutator_residual(chain: DNChain, eta: complex, zeta: complex) -> float:
    """Max entry of [W+, W-] applied to the delta basis, over interior sites.

    Evaluated on the whole-chain probe block of ``basis_sections``, whose
    result holds exactly the nonzero entries of the delta-basis result.

    Vanishes exactly when the discrete Nahm equations hold on interior
    links. Expanding the operators shows the result is independent of zeta
    (the zeta terms cancel identically; the survivors are eta-weighted
    combinations of the equation residuals).
    """
    if len(chain.sites) < 3:
        raise ChainTooShort("commutator needs at least three sites")
    f = basis_sections(chain)
    pm = ward_plus(chain, eta, ward_minus(chain, eta, zeta, f))
    mp = ward_minus(chain, eta, zeta, ward_plus(chain, eta, f))
    assert pm.start == mp.start and pm.values.shape == mp.values.shape
    return max_abs(pm.values - mp.values)


def m_factorization_residual(
    chain: DNChain,
    r: int,
    eta: complex,
    zeta: complex,
    reverse_order: bool = False,
) -> float:
    """Deviation of M from eta P- W+ + P+ W- - W+ W- at interior site r.

    Composite operators read through the links: (P- g)_r = P-_{r+1} g_{r+1}
    and (P+ g)_r = P+_{r-1} g_{r-1}. With reverse_order the commuted product
    W- W+ replaces W+ W-; on solutions both orderings agree.
    """
    if not (chain.r0 < r < chain.r1):
        raise ChainTooShort(f"site {r} is not interior to [{chain.r0}, {chain.r1}]")
    # the identity at r reads sections only at r - 1, r and r + 1
    f = basis_sections(chain, range(r - 1, r + 2))
    site = chain.site(r)

    wplus_f = ward_plus(chain, eta, f)
    wminus_f = ward_minus(chain, eta, zeta, f)
    term_pm_wp = eta * chain.link(r).Pminus @ wplus_f.at(r + 1)
    term_pp_wm = chain.link(r - 1).Pplus @ wminus_f.at(r - 1)
    if reverse_order:
        product = ward_minus(chain, eta, zeta, wplus_f).at(r)
    else:
        product = ward_plus(chain, eta, wminus_f).at(r)
    rhs = term_pm_wp + term_pp_wm - product

    lhs = pencil(site.A, site.B, site.D)(eta, zeta) @ f.at(r)
    return max_abs(lhs - rhs)


def transport_covector(
    chain: DNChain,
    r: int,
    point: CurvePoint,
    g_right: np.ndarray,
    tol: float = linalg.RANK_TOL,
) -> np.ndarray:
    """Transport a covector across link (r, r+1) so that [g^t W-] vanishes.

    Given g at site r+1, returns g at site r:
        g_r^t = -(1/eta) g_{r+1}^t (zeta + D_{r+1}) (P-_{r+1})^{-1}.
    """
    if abs(point.eta) <= 1e-8:
        raise EtaNearZero("transport needs |eta| > 1e-8")
    link = chain.link(r)
    linalg.require_invertible(link.Pminus, tol, SingularPminus)
    site_right = chain.site(r + 1)
    eye = np.eye(chain.k, dtype=np.complex128)
    return (
        -(1.0 / point.eta)
        * g_right
        @ (point.zeta * eye + site_right.D)
        @ np.linalg.inv(link.Pminus)
    )


def dual_transport_check(
    chain: DNChain,
    r: int,
    point: CurvePoint,
    tol: float = linalg.RANK_TOL,
    on_curve_tol: float = 1e-6,
) -> float:
    """Transport a left null covector of M_{r+1} across link (r, r+1).

    Computes g_{r+1} with g^t M_{r+1} = 0, transports it so that
    [g^t W-] = 0, and returns ||g_r^t M_r|| / ||g_r||. On solutions this
    vanishes: annihilators of M march down the chain one twist at a time,
    which is the step-by-step form of the straight-line motion of the
    associated line bundle.
    """
    site_right = chain.site(r + 1)
    m_right, m_scale = pencil_at_curve_point(
        site_right.A, site_right.B, site_right.D, point, on_curve_tol
    )
    # null covector from the transpose's nullspace
    _, s, vh = np.linalg.svd(m_right.T)
    if s[-1] > max(tol, on_curve_tol) * max(1.0, m_scale):
        raise PointNotOnCurve("M at the right site has no left null covector")
    g_right = vh[-1].conj()  # direction of the smallest singular value
    g_left = transport_covector(chain, r, point, g_right, tol)
    site_left = chain.site(r)
    m_left = pencil(site_left.A, site_left.B, site_left.D)(point.eta, point.zeta)
    norm = float(np.linalg.norm(g_left))
    if norm == 0.0:
        raise PointNotOnCurve("transported covector vanished")
    return float(np.linalg.norm(g_left @ m_left)) / norm
