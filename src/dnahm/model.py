"""Chain data model for the discrete Nahm system.

Two equivalent forms are supported. ``DNChain`` carries the complexified
data: a triple (A_r, B_r, D_r) of endomorphisms of V_r at each site r of a
set of consecutive integers, and maps P+_r : V_r -> V_{r+1},
P-_{r+1} : V_{r+1} -> V_r on each link. ``BAChain`` carries the original
Braam-Austin variables: beta per site and an invertible gamma per link.
The two are related by the substitution

    A = -beta,  D = beta*,  P+ = gamma*,  P- = -gamma,

with B reconstructed from B_r = P-_{r+1} P+_r + A_r D_r (right link) or
B_r = P+_{r-1} P-_r + D_r A_r (left link); the two expressions agree
exactly when the discrete Nahm equations hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    ChainTooShort,
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    NotRealityCompatible,
    SingularGamma,
    SingularGauge,
)
from .linalg import CMatrix, cmatrix, dagger, max_abs

MetricSequence = tuple  # per-site Hermitian positive-definite matrices


@dataclass(frozen=True)
class DNSite:
    """Discrete Nahm data (A, B, D) at site r."""

    r: int
    A: CMatrix
    B: CMatrix
    D: CMatrix


@dataclass(frozen=True)
class DNLink:
    """Link between sites r and r+1: stores P+_r and P-_{r+1}."""

    r: int
    Pplus: CMatrix   # V_r -> V_{r+1}
    Pminus: CMatrix  # V_{r+1} -> V_r


@dataclass(frozen=True)
class DNChain:
    k: int
    sites: tuple[DNSite, ...]
    links: tuple[DNLink, ...]

    def __post_init__(self):
        if not self.sites:
            raise DimensionMismatch("chain needs at least one site")
        if len(self.links) != len(self.sites) - 1:
            raise DimensionMismatch("links count must be sites count - 1")
        for i, site in enumerate(self.sites):
            if site.r != self.sites[0].r + i:
                raise DimensionMismatch("site indices must be consecutive")
            for m in (site.A, site.B, site.D):
                if m.shape != (self.k, self.k):
                    raise DimensionMismatch(f"site {site.r}: expected {self.k}x{self.k} data")
        for i, link in enumerate(self.links):
            if link.r != self.sites[i].r:
                raise DimensionMismatch("link indices must follow site indices")
            for m in (link.Pplus, link.Pminus):
                if m.shape != (self.k, self.k):
                    raise DimensionMismatch(f"link {link.r}: expected {self.k}x{self.k} data")

    @property
    def r0(self) -> int:
        return self.sites[0].r

    @property
    def r1(self) -> int:
        return self.sites[-1].r

    def site(self, r: int) -> DNSite:
        return self.sites[r - self.r0]

    def link(self, r: int) -> DNLink:
        """Link between sites r and r+1."""
        return self.links[r - self.r0]


@dataclass(frozen=True)
class BAChain:
    """Braam-Austin form: betas per site, gammas per link, site index origin."""

    k: int
    betas: tuple[CMatrix, ...]
    gammas: tuple[CMatrix, ...]
    origin: int = 0

    def __post_init__(self):
        if not self.betas:
            raise DimensionMismatch("chain needs at least one beta")
        if len(self.gammas) != len(self.betas) - 1:
            raise DimensionMismatch("gammas count must be betas count - 1")
        for m in (*self.betas, *self.gammas):
            if m.shape != (self.k, self.k):
                raise DimensionMismatch(f"expected {self.k}x{self.k} matrices")


@dataclass(frozen=True)
class LinkResiduals:
    """Equation-satisfaction residuals on the link (r, r+1).

    comm_a:  || P-_{r+1} A_{r+1} - A_r P-_{r+1} ||
    comm_d:  || P+_r D_r - D_{r+1} P+_r ||
    b_left:  deviation of B_r  from P-_{r+1} P+_r + A_r D_r       (left site)
    b_right: deviation of B_{r+1} from P+_r P-_{r+1} + D_{r+1} A_{r+1} (right site)
    """

    r: int
    comm_a: float
    comm_d: float
    b_left: float
    b_right: float

    @property
    def max(self) -> float:
        return max(self.comm_a, self.comm_d, self.b_left, self.b_right)


@dataclass(frozen=True)
class BAResiduals:
    """Braam-Austin equation residuals.

    evolution[j]: || beta_j gamma_j - gamma_j beta_{j+1} || on link j.
    metric[i]:    || gamma*_{j-1} gamma_{j-1} - gamma_j gamma*_j
                     + [beta*_j, beta_j] || at interior site j = i + 1.
    """

    evolution: tuple[float, ...]
    metric: tuple[float, ...]

    @property
    def max(self) -> float:
        return max((*self.evolution, *self.metric), default=0.0)


def from_braam_austin(ba: BAChain, tol: float = linalg.RANK_TOL) -> DNChain:
    """Convert a Braam-Austin chain to the complexified (A, B, D, P+-) form.

    B is reconstructed from the right-link expression at every site that has
    a right link and from the left-link expression at the last site, so the
    output satisfies the discrete Nahm equations exactly when the input
    satisfies the Braam-Austin equations.
    """
    if not ba.gammas:
        raise ChainTooShort("B cannot be reconstructed without at least one link")
    for g in ba.gammas:
        linalg.require_invertible(g, tol, SingularGamma)
    n = len(ba.betas)
    sites = []
    for j, beta in enumerate(ba.betas):
        a = cmatrix(-beta)
        d = cmatrix(dagger(beta))
        if j < n - 1:
            g = ba.gammas[j]
            b = cmatrix(-g @ dagger(g) + a @ d)
        else:
            g = ba.gammas[j - 1]
            b = cmatrix(-dagger(g) @ g + d @ a)
        sites.append(DNSite(r=ba.origin + j, A=a, B=b, D=d))
    links = [
        DNLink(r=ba.origin + j, Pplus=cmatrix(dagger(g)), Pminus=cmatrix(-g))
        for j, g in enumerate(ba.gammas)
    ]
    return DNChain(k=ba.k, sites=tuple(sites), links=tuple(links))


def to_braam_austin(chain: DNChain, tol: float = 1e-9) -> BAChain:
    """Convert back to Braam-Austin variables.

    Requires the reality pattern D = -A*, P+ = -(P-)* within tol (relative);
    raises NotRealityCompatible with the worst deviation otherwise.
    """
    deviation = 0.0
    scale = 1.0
    for site in chain.sites:
        deviation = max(deviation, max_abs(site.D + dagger(site.A)))
        scale = max(scale, max_abs(site.A), max_abs(site.D))
    for link in chain.links:
        deviation = max(deviation, max_abs(link.Pplus + dagger(link.Pminus)))
        scale = max(scale, max_abs(link.Pplus), max_abs(link.Pminus))
    if deviation > tol * scale:
        raise NotRealityCompatible(deviation)
    betas = tuple(cmatrix(-site.A) for site in chain.sites)
    gammas = tuple(cmatrix(-link.Pminus) for link in chain.links)
    return BAChain(k=chain.k, betas=betas, gammas=gammas, origin=chain.r0)


def reconstruct_B(
    A: CMatrix,
    D: CMatrix,
    left_link: tuple[CMatrix, CMatrix],
    right_link: tuple[CMatrix, CMatrix],
) -> tuple[CMatrix, CMatrix, float]:
    """Both reconstructions of B at a site and their mismatch.

    left_link is (P+_{r-1}, P-_r), right_link is (P+_r, P-_{r+1}). Returns
    (B_left, B_right, mismatch) where B_left = P+_{r-1} P-_r + D A uses the
    left link, B_right = P-_{r+1} P+_r + A D uses the right link, and the
    mismatch vanishes exactly on solutions.
    """
    pplus_left, pminus_left = left_link
    pplus_right, pminus_right = right_link
    b_left = pplus_left @ pminus_left + D @ A
    b_right = pminus_right @ pplus_right + A @ D
    return b_left, b_right, max_abs(b_left - b_right)


def dn_residuals(chain: DNChain) -> list[LinkResiduals]:
    """Per-link residuals of the discrete Nahm equations."""
    out = []
    for i, link in enumerate(chain.links):
        s0, s1 = chain.sites[i], chain.sites[i + 1]
        comm_a = max_abs(link.Pminus @ s1.A - s0.A @ link.Pminus)
        comm_d = max_abs(link.Pplus @ s0.D - s1.D @ link.Pplus)
        b_left = max_abs(s0.B - (link.Pminus @ link.Pplus + s0.A @ s0.D))
        b_right = max_abs(s1.B - (link.Pplus @ link.Pminus + s1.D @ s1.A))
        out.append(LinkResiduals(link.r, comm_a, comm_d, b_left, b_right))
    return out


def max_dn_residual(chain: DNChain) -> float:
    return max((rec.max for rec in dn_residuals(chain)), default=0.0)


def ba_residuals(ba: BAChain) -> BAResiduals:
    """Residuals of the Braam-Austin equations."""
    evolution = tuple(
        max_abs(ba.betas[j] @ g - g @ ba.betas[j + 1]) for j, g in enumerate(ba.gammas)
    )
    metric = []
    for j in range(1, len(ba.betas) - 1):
        g_prev, g_next = ba.gammas[j - 1], ba.gammas[j]
        beta = ba.betas[j]
        metric.append(
            max_abs(
                dagger(g_prev) @ g_prev
                - g_next @ dagger(g_next)
                + dagger(beta) @ beta
                - beta @ dagger(beta)
            )
        )
    return BAResiduals(evolution=evolution, metric=tuple(metric))


def apply_gauge(
    chain: DNChain, gauges: Sequence[CMatrix], tol: float = linalg.RANK_TOL
) -> DNChain:
    """Act by per-site invertible matrices g_r.

    (A, B, D) transform by conjugation, P+ on link r by g_{r+1} P+ g_r^{-1}
    and P- by g_r P- g_{r+1}^{-1}. Zero residuals stay zero.
    """
    if len(gauges) != len(chain.sites):
        raise DimensionMismatch("need one gauge matrix per site")
    for g in gauges:
        linalg.require_invertible(np.asarray(g, dtype=complex), tol, SingularGauge)
    inv = [np.linalg.inv(g) for g in gauges]
    sites = tuple(
        DNSite(
            r=site.r,
            A=cmatrix(gauges[i] @ site.A @ inv[i]),
            B=cmatrix(gauges[i] @ site.B @ inv[i]),
            D=cmatrix(gauges[i] @ site.D @ inv[i]),
        )
        for i, site in enumerate(chain.sites)
    )
    links = tuple(
        DNLink(
            r=link.r,
            Pplus=cmatrix(gauges[i + 1] @ link.Pplus @ inv[i]),
            Pminus=cmatrix(gauges[i] @ link.Pminus @ inv[i + 1]),
        )
        for i, link in enumerate(chain.links)
    )
    return DNChain(k=chain.k, sites=sites, links=links)


def identity_metric(chain: DNChain) -> MetricSequence:
    """The identity inner product on every V_r (the Braam-Austin reality case)."""
    return tuple(np.eye(chain.k, dtype=np.complex128) for _ in chain.sites)


def validate_metric(metric: Sequence[CMatrix], k: int) -> None:
    for g in metric:
        if g.shape != (k, k):
            raise DimensionMismatch("metric matrices must match the chain charge")
        dev = max_abs(g - dagger(g))
        if dev > 1e-9 * (1.0 + max_abs(g)):
            raise NotHermitian(dev)
        lam_min = float(np.linalg.eigvalsh((g + dagger(g)) / 2.0)[0])
        if lam_min <= 0.0:
            raise NotPositiveDefinite(lam_min)


def reality_residual(chain: DNChain, metric: Sequence[CMatrix]) -> float:
    """Deviation from reality with respect to a per-site Hermitian metric.

    The adjoint of X: V_a -> V_b is g_a^{-1} X* g_b. Measures
    A_r = -(D_r adjoint), B_r self-adjoint, and P+_r = -(P-_{r+1} adjoint);
    the identity metric recovers the plain Braam-Austin reality conditions.
    """
    validate_metric(metric, chain.k)
    inv = [np.linalg.inv(g) for g in metric]
    worst = 0.0
    for i, site in enumerate(chain.sites):
        worst = max(worst, max_abs(site.A + inv[i] @ dagger(site.D) @ metric[i]))
        worst = max(worst, max_abs(site.B - inv[i] @ dagger(site.B) @ metric[i]))
    for i, link in enumerate(chain.links):
        adj = inv[i + 1] @ dagger(link.Pminus) @ metric[i]
        worst = max(worst, max_abs(link.Pplus + adj))
    return worst
