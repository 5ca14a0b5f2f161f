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
exactly when the discrete Nahm equations hold. Both forms store (n, k, k)
stacks, and each whole-chain function is one batched array expression.
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


def _store(chain, sites: tuple[str, ...], links: tuple[str, ...]) -> None:
    """The chains' storage check: every named field becomes a read-only
    complex128 stack with finite entries, (n, k, k) for the per-site fields
    and (n-1, k, k) for the per-link ones."""
    k, n = chain.k, len(getattr(chain, sites[0]))
    if n == 0:
        raise DimensionMismatch("chain needs at least one site")
    for name in sites + links:
        data = getattr(chain, name)
        try:
            m = cmatrix(data if len(data) else np.empty((0, k, k)))
        except ValueError as exc:  # ragged or non-numeric data
            raise DimensionMismatch(f"{name}: {exc}") from None
        shape = (n if name in sites else n - 1, k, k)
        if m.shape != shape:
            raise DimensionMismatch(f"{name}: expected a {shape} stack, got shape {m.shape}")
        object.__setattr__(chain, name, m)


@dataclass(frozen=True)
class DNChain:
    """Sites origin..origin+n-1: (n, k, k) stacks A, B, D of the site data and
    (n-1, k, k) stacks Pplus, Pminus of the link data, held read-only.

    ``sites``, ``links``, ``site(r)`` and ``link(r)`` are per-site views of
    the stacks, built on each call.
    """

    k: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Pplus: np.ndarray
    Pminus: np.ndarray
    origin: int = 0

    def __post_init__(self):
        _store(self, ("A", "B", "D"), ("Pplus", "Pminus"))

    @property
    def r0(self) -> int:
        return self.origin

    @property
    def r1(self) -> int:
        return self.origin + len(self.A) - 1

    @property
    def sites(self) -> tuple[DNSite, ...]:
        return tuple(self.site(r) for r in range(self.r0, self.r1 + 1))

    @property
    def links(self) -> tuple[DNLink, ...]:
        return tuple(self.link(r) for r in range(self.r0, self.r1))

    def site(self, r: int) -> DNSite:
        if not self.r0 <= r <= self.r1:
            raise IndexError(f"site {r} outside [{self.r0}, {self.r1}]")
        i = r - self.r0
        return DNSite(r=r, A=self.A[i], B=self.B[i], D=self.D[i])

    def link(self, r: int) -> DNLink:
        """Link between sites r and r+1."""
        if not self.r0 <= r < self.r1:
            raise IndexError(f"link {r} outside [{self.r0}, {self.r1 - 1}]")
        i = r - self.r0
        return DNLink(r=r, Pplus=self.Pplus[i], Pminus=self.Pminus[i])


@dataclass(frozen=True)
class BAChain:
    """Braam-Austin form: betas per site and gammas per link, held as read-only
    (n, k, k) and (n-1, k, k) stacks, and the site index origin."""

    k: int
    betas: np.ndarray
    gammas: np.ndarray
    origin: int = 0

    def __post_init__(self):
        _store(self, ("betas",), ("gammas",))


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


def _b_at_link_ends(A, D, pplus, pminus) -> tuple[np.ndarray, np.ndarray]:
    """B at both end sites of every link r, as two (n - 1, k, k) stacks:
    B_r = P-_{r+1} P+_r + A_r D_r at its left end and
    B_{r+1} = P+_r P-_{r+1} + D_{r+1} A_{r+1} at its right end."""
    return pminus @ pplus + A[:-1] @ D[:-1], pplus @ pminus + D[1:] @ A[1:]


def from_braam_austin(ba: BAChain) -> DNChain:
    """Convert a Braam-Austin chain to the complexified (A, B, D, P+-) form.

    B is reconstructed from the right-link expression at every site that has
    a right link and from the left-link expression at the last site, so the
    output satisfies the discrete Nahm equations exactly when the input
    satisfies the Braam-Austin equations.
    """
    if not len(ba.gammas):
        raise ChainTooShort("B cannot be reconstructed without at least one link")
    linalg.require_invertible(ba.gammas, error=SingularGamma)
    pplus, pminus = dagger(ba.gammas), -ba.gammas
    a, d = -ba.betas, dagger(ba.betas)
    b_left_end, b_right_end = _b_at_link_ends(a, d, pplus, pminus)
    b = np.concatenate((b_left_end, b_right_end[-1:]))
    return DNChain(k=ba.k, A=a, B=b, D=d, Pplus=pplus, Pminus=pminus, origin=ba.origin)


def to_braam_austin(chain: DNChain) -> BAChain:
    """Convert back to Braam-Austin variables.

    Requires the reality pattern D = -A*, P+ = -(P-)* within 1e-9 relative to
    the largest entry of A, D, P+ and P- (or 1); raises NotRealityCompatible
    with the worst deviation otherwise.
    """
    deviation = max(
        max_abs(chain.D + dagger(chain.A)), max_abs(chain.Pplus + dagger(chain.Pminus))
    )
    scale = max(1.0, *(max_abs(m) for m in (chain.A, chain.D, chain.Pplus, chain.Pminus)))
    if deviation > 1e-9 * scale:
        raise NotRealityCompatible(deviation)
    return BAChain(k=chain.k, betas=-chain.A, gammas=-chain.Pminus, origin=chain.r0)


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
    # the site is the middle one of three sites joined by the two links
    pplus, pminus = (np.stack(pair) for pair in zip(left_link, right_link))
    b_left_end, b_right_end = _b_at_link_ends(
        np.stack((A,) * 3), np.stack((D,) * 3), pplus, pminus
    )
    b_left, b_right = b_right_end[0], b_left_end[1]
    return b_left, b_right, max_abs(b_left - b_right)


def dn_residuals(chain: DNChain) -> list[LinkResiduals]:
    """Per-link residuals of the discrete Nahm equations."""
    A, B, D, pp, pm = chain.A, chain.B, chain.D, chain.Pplus, chain.Pminus
    b_left_end, b_right_end = _b_at_link_ends(A, D, pp, pm)
    columns = (
        np.abs(pm @ A[1:] - A[:-1] @ pm).max(axis=(1, 2)),
        np.abs(pp @ D[:-1] - D[1:] @ pp).max(axis=(1, 2)),
        np.abs(B[:-1] - b_left_end).max(axis=(1, 2)),
        np.abs(B[1:] - b_right_end).max(axis=(1, 2)),
    )
    rows = zip(*(c.tolist() for c in columns))
    return [LinkResiduals(chain.r0 + i, *row) for i, row in enumerate(rows)]


def max_dn_residual(chain: DNChain) -> float:
    return max((rec.max for rec in dn_residuals(chain)), default=0.0)


def ba_residuals(ba: BAChain) -> BAResiduals:
    """Residuals of the Braam-Austin equations."""
    betas, g = ba.betas, ba.gammas
    evolution = np.abs(betas[:-1] @ g - g @ betas[1:]).max(axis=(1, 2))
    g_prev, g_next, beta = g[:-1], g[1:], betas[1:-1]
    metric = np.abs(
        dagger(g_prev) @ g_prev
        - g_next @ dagger(g_next)
        + dagger(beta) @ beta
        - beta @ dagger(beta)
    ).max(axis=(1, 2))
    return BAResiduals(evolution=tuple(evolution.tolist()), metric=tuple(metric.tolist()))


def apply_gauge(chain: DNChain, gauges: Sequence[CMatrix]) -> DNChain:
    """Act by per-site invertible matrices g_r, given as a sequence or a stack.

    (A, B, D) transform by conjugation, P+ on link r by g_{r+1} P+ g_r^{-1}
    and P- by g_r P- g_{r+1}^{-1}. Zero residuals stay zero.
    """
    g = np.asarray(gauges)
    if g.shape != chain.A.shape:
        raise DimensionMismatch("need one k x k gauge matrix per site")
    linalg.require_invertible(g, error=SingularGauge)
    inv = np.linalg.inv(g)
    return DNChain(
        k=chain.k,
        A=g @ chain.A @ inv,
        B=g @ chain.B @ inv,
        D=g @ chain.D @ inv,
        Pplus=g[1:] @ chain.Pplus @ inv[:-1],
        Pminus=g[:-1] @ chain.Pminus @ inv[1:],
        origin=chain.r0,
    )


def identity_metric(chain: DNChain) -> np.ndarray:
    """The identity inner product on every V_r (the Braam-Austin reality case),
    as a read-only (n, k, k) stack."""
    return np.broadcast_to(np.eye(chain.k, dtype=np.complex128), chain.A.shape)


def validate_metric(metric: Sequence[CMatrix], chain: DNChain) -> np.ndarray:
    """The metric as an (n, k, k) stack: one Hermitian positive-definite k x k
    matrix per site of the chain."""
    g = np.asarray(metric)
    if g.shape != chain.A.shape:
        raise DimensionMismatch(
            f"need one {chain.k} x {chain.k} metric matrix per site "
            f"({len(chain.A)} sites), got shape {g.shape}"
        )
    dev = np.abs(g - dagger(g)).max(axis=(1, 2))
    bad = np.flatnonzero(dev > 1e-9 * (1.0 + np.abs(g).max(axis=(1, 2))))
    if bad.size:
        raise NotHermitian(float(dev[bad[0]]))
    lam_min = np.linalg.eigvalsh((g + dagger(g)) / 2.0)[:, 0]
    bad = np.flatnonzero(lam_min <= 0.0)
    if bad.size:
        raise NotPositiveDefinite(float(lam_min[bad[0]]))
    return g


def reality_residual(chain: DNChain, metric: Sequence[CMatrix]) -> float:
    """Deviation from reality with respect to a per-site Hermitian metric.

    The adjoint of X: V_a -> V_b is g_a^{-1} X* g_b. Measures
    A_r = -(D_r adjoint), B_r self-adjoint, and P+_r = -(P-_{r+1} adjoint);
    the identity metric recovers the plain Braam-Austin reality conditions.
    The metric needs one matrix per site.
    """
    g = validate_metric(metric, chain)
    inv = np.linalg.inv(g)
    return max(
        max_abs(chain.A + inv @ dagger(chain.D) @ g),
        max_abs(chain.B - inv @ dagger(chain.B) @ g),
        max_abs(chain.Pplus + inv[1:] @ dagger(chain.Pminus) @ g[:-1]),
    )
