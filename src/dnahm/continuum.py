"""Smooth Nahm flow and its first-order discretization by chain data.

The flow is integrated in the T0 = 0 gauge directly on a skew-hermitian
triple (T1, T2, T3):

    dT1/dz = [T2, T3],  dT2/dz = [T3, T1],  dT3/dz = [T1, T2],

by fixed-step classical RK4 with a re-skewing projection after each step.
In complex variables sigma = i T1 (Hermitian in this gauge) and
tau = T2 + i T3, a trajectory embeds into a Braam-Austin chain at spacing
h via gamma* = 1/(2h) + sigma and beta* = tau at alternating z-nodes; the
chain equations then hold to first order in h, which ``residual_scaling``
measures as halving residual tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RangeNotCovered
from .linalg import CMatrix, cmatrix, dagger, max_abs
from .model import BAChain
from .spectral import bivariate_coeffs


@dataclass(frozen=True)
class NahmTriple:
    """Skew-hermitian matrices (T1, T2, T3) of equal size."""

    t1: CMatrix
    t2: CMatrix
    t3: CMatrix

    def __post_init__(self):
        shape = self.t1.shape
        for t in (self.t1, self.t2, self.t3):
            if t.shape != shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise DimensionMismatch("triple must be square matrices of equal size")
            dev = max_abs(t + dagger(t))
            if dev > 1e-12 * (1.0 + max_abs(t)):
                raise DimensionMismatch(f"triple must be skew-hermitian (deviation {dev:.3e})")

    @property
    def k(self) -> int:
        return self.t1.shape[0]


@dataclass(frozen=True)
class NahmState:
    """Complex-variable form at parameter z: sigma = T0 + i T1, tau = T2 + i T3."""

    z: float
    sigma: CMatrix
    tau: CMatrix


@dataclass(frozen=True)
class NahmTrajectory:
    """Uniform-grid RK4 output over [z0, z1] with cubic Hermite interpolation."""

    z0: float
    z1: float
    states: tuple[NahmTriple, ...]

    @property
    def step(self) -> float:
        return (self.z1 - self.z0) / (len(self.states) - 1)

    def at(self, z: float) -> NahmTriple:
        """Interpolated triple at z; raises RangeNotCovered outside.

        Cubic Hermite between the two nearest grid states, with the flow's
        own derivatives there, so the interpolation error is O(step^4) like
        RK4's. An O(step^2) linear interpolation error is as large as the
        embedded residuals that ``residual_scaling`` tabulates when they are
        near 1e-8 (up to 78% of them at its default 2000 steps).
        """
        if z < self.z0 - 1e-12 or z > self.z1 + 1e-12:
            raise RangeNotCovered(f"z = {z} outside trajectory range [{self.z0}, {self.z1}]")
        pos = (z - self.z0) / self.step
        i = int(min(max(np.floor(pos), 0), len(self.states) - 2))
        w = pos - i
        a, b = self.states[i], self.states[i + 1]
        a_t, b_t = (a.t1, a.t2, a.t3), (b.t1, b.t2, b.t3)
        da, db = _triple_rhs(*a_t), _triple_rhs(*b_t)
        # Hermite basis on [0, 1], the derivative terms scaled by the step
        wa, wb = (1 + 2 * w) * (1 - w) ** 2, w * w * (3 - 2 * w)
        wda, wdb = self.step * w * (1 - w) ** 2, self.step * w * w * (w - 1)
        t = [wa * x + wb * y + wda * dx + wdb * dy for x, y, dx, dy in zip(a_t, b_t, da, db)]
        return NahmTriple(*(cmatrix((c - dagger(c)) / 2.0) for c in t))


def state_from_triple(triple: NahmTriple, z: float = 0.0) -> NahmState:
    """Complex variables in the T0 = 0 gauge: sigma = i T1, tau = T2 + i T3."""
    return NahmState(z=z, sigma=cmatrix(1j * triple.t1), tau=cmatrix(triple.t2 + 1j * triple.t3))


def nahm_rhs(state: NahmState) -> tuple[CMatrix, CMatrix]:
    """Right-hand side (dsigma, dtau) of the complex-variable flow.

    dtau = [sigma, tau] and dsigma = ([sigma, sigma*] + [tau, tau*]) / 2,
    which in the T0 = 0 gauge (sigma Hermitian) reproduces the triple flow.
    """
    sigma, tau = state.sigma, state.tau
    if sigma.shape != tau.shape or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch("sigma and tau must be square and of equal size")
    dtau = sigma @ tau - tau @ sigma
    sh, th = dagger(sigma), dagger(tau)
    dsigma = 0.5 * ((sigma @ sh - sh @ sigma) + (tau @ th - th @ tau))
    return dsigma, dtau


def _triple_rhs(t1: CMatrix, t2: CMatrix, t3: CMatrix):
    return (t2 @ t3 - t3 @ t2, t3 @ t1 - t1 @ t3, t1 @ t2 - t2 @ t1)


def integrate_nahm(initial: NahmTriple, z0: float, z1: float, n_steps: int) -> NahmTrajectory:
    """Classical fixed-step RK4 on the triple flow, re-skewed after each step."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (z1 - z0) / n_steps
    cur = (initial.t1, initial.t2, initial.t3)
    states = [initial]
    for _ in range(n_steps):
        k1 = _triple_rhs(*cur)
        k2 = _triple_rhs(*(c + 0.5 * h * k for c, k in zip(cur, k1)))
        k3 = _triple_rhs(*(c + 0.5 * h * k for c, k in zip(cur, k2)))
        k4 = _triple_rhs(*(c + h * k for c, k in zip(cur, k3)))
        cur = tuple(
            c + (h / 6.0) * (a + 2 * b + 2 * cc + d)
            for c, a, b, cc, d in zip(cur, k1, k2, k3, k4)
        )
        cur = tuple((c - dagger(c)) / 2.0 for c in cur)
        states.append(NahmTriple(*(cmatrix(c) for c in cur)))
    return NahmTrajectory(z0=z0, z1=z1, states=tuple(states))


def lax_polynomial_coeffs(triple: NahmTriple) -> np.ndarray:
    """Coefficient grid of det(eta I - A(zeta)) with the standard Lax matrix

    A(zeta) = (T1 + i T2) - 2 i T3 zeta + (T1 - i T2) zeta^2.

    These coefficients are the conserved quantities of the smooth flow.
    """
    t1, t2, t3 = triple.t1, triple.t2, triple.t3
    k = triple.k
    eye = np.eye(k, dtype=np.complex128)

    def f(eta: complex, zeta: complex) -> complex:
        a = (t1 + 1j * t2) - 2j * t3 * zeta + (t1 - 1j * t2) * zeta * zeta
        return complex(np.linalg.det(eta * eye - a))

    return bivariate_coeffs(f, k, 2 * k)


def invariant_drift(trajectory: NahmTrajectory, stride: int = 1) -> float:
    """Max deviation of the conserved Lax coefficients along the trajectory."""
    base = lax_polynomial_coeffs(trajectory.states[0])
    worst = 0.0
    for state in trajectory.states[::stride]:
        worst = max(worst, max_abs(lax_polynomial_coeffs(state) - base))
    return worst


def embed(trajectory: NahmTrajectory, h: float, sites: range) -> BAChain:
    """Embed a trajectory as a Braam-Austin chain at spacing h.

    Site r carries beta = tau(2rh)* and the link (r, r+1) carries
    gamma = (1/(2h) + sigma((2r+1)h))*; in the T0 = 0 gauge the gammas are
    Hermitian. Raises RangeNotCovered when the needed z-values fall outside
    the trajectory.
    """
    if len(sites) < 1:
        raise ValueError("need at least one site")
    if sites.step != 1:
        raise ValueError("sites must be consecutive")
    k = trajectory.states[0].k
    eye = np.eye(k, dtype=np.complex128)
    betas = []
    gammas = []
    for r in sites:
        state = state_from_triple(trajectory.at(2 * r * h))
        betas.append(cmatrix(dagger(state.tau)))
        if r < sites.stop - 1:
            mid = state_from_triple(trajectory.at((2 * r + 1) * h))
            gammas.append(cmatrix(dagger(eye / (2.0 * h) + mid.sigma)))
    return BAChain(k=k, betas=tuple(betas), gammas=tuple(gammas), origin=sites.start)


@dataclass(frozen=True)
class ScalingRow:
    """Residual maxima of the embedded chain at one spacing h.

    r_evolution is the max norm of the evolution-equation residual
    (beta gamma - gamma beta'), r_metric of the metric-equation residual.
    """

    h: float
    r_evolution: float
    r_metric: float


def embedded_residuals(trajectory: NahmTrajectory, h: float, window: float = 1.0) -> ScalingRow:
    """Embed over z in [0, window] and report both residual families."""
    from .model import ba_residuals

    n_sites = int(np.floor(window / (2.0 * h)))
    if n_sites < 3:
        raise ValueError("window too small for this h")
    chain = embed(trajectory, h, range(0, n_sites))
    res = ba_residuals(chain)
    return ScalingRow(
        h=h,
        r_evolution=max(res.evolution, default=0.0),
        r_metric=max(res.metric, default=0.0),
    )


def residual_scaling(
    initial: NahmTriple,
    h_list: list[float],
    window: float = 1.0,
    rk_steps: int = 2000,
) -> list[ScalingRow]:
    """Residual table over a decreasing list of spacings h.

    Integrates once on a grid of node spacing at most min(h)/10, and at
    least rk_steps steps, then embeds and measures at each h. On generic
    non-commuting data successive rows halve.
    """
    if not h_list or any(h <= 0 for h in h_list):
        raise ValueError("h_list must be positive")
    if list(h_list) != sorted(h_list, reverse=True):
        raise ValueError("h_list must be decreasing")
    span = window + 3.0 * max(h_list)
    steps = max(rk_steps, int(np.ceil(10.0 * span / min(h_list))))
    trajectory = integrate_nahm(initial, 0.0, span, steps)
    return [embedded_residuals(trajectory, h, window) for h in h_list]
