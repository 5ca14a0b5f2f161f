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

from .errors import DimensionMismatch, FlowBlowUp, RangeNotCovered
from .linalg import CMatrix, cmatrix, dagger
from .model import BAChain
from .spectral import _unity_det_coeffs


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
        _require_skew(np.stack((self.t1, self.t2, self.t3)))

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
    """Uniform-grid RK4 output over [z0, z1] with cubic Hermite interpolation.

    ``nodes[i]`` is the triple (T1, T2, T3) at z0 + i * step, stacked into
    one read-only array of shape (n_steps + 1, 3, k, k). The nodes are taken
    to be skew-hermitian (``integrate_nahm`` makes them exactly so); the
    constructor checks the range, the shape and that every entry is finite.
    """

    z0: float
    z1: float
    nodes: np.ndarray

    def __post_init__(self):
        _check_range(self.z0, self.z1)
        nodes = np.asarray(self.nodes, dtype=np.complex128)
        if nodes.ndim != 4 or len(nodes) < 2 or nodes.shape[1:3] != (3, nodes.shape[3]):
            raise DimensionMismatch(
                f"nodes must have shape (n_steps + 1, 3, k, k), got {nodes.shape}"
            )
        if not np.isfinite(nodes).all():
            raise DimensionMismatch("trajectory entries must be finite")
        if nodes.flags.writeable:
            nodes = nodes.copy()
            nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def step(self) -> float:
        return (self.z1 - self.z0) / (len(self.nodes) - 1)

    @property
    def states(self) -> tuple[NahmTriple, ...]:
        """One validated triple per grid node, built from ``nodes`` on each call."""
        return tuple(NahmTriple(*node) for node in self.nodes)

    def sample(self, zs) -> np.ndarray:
        """Interpolated triples at the 1-D array zs, shape (len(zs), 3, k, k).

        Cubic Hermite between the two nearest grid nodes, with the flow's
        own derivatives there, so the interpolation error is O(step^4) like
        RK4's. An O(step^2) linear interpolation error is as large as the
        embedded residuals that ``residual_scaling`` tabulates when they are
        near 1e-8 (up to 78% of them at its default 2000 steps). Raises
        RangeNotCovered if any z lies outside [z0, z1] or is not a number.
        """
        zs = np.asarray(zs, dtype=float)
        outside = ~((zs >= self.z0 - 1e-12) & (zs <= self.z1 + 1e-12))
        if outside.any():
            z = float(zs[outside][0])
            raise RangeNotCovered(f"z = {z} outside trajectory range [{self.z0}, {self.z1}]")
        pos = (zs - self.z0) / self.step
        i = np.clip(np.floor(pos), 0, len(self.nodes) - 2).astype(np.intp)
        w = (pos - i)[:, None, None, None]
        a, b = self.nodes[i], self.nodes[i + 1]
        # Hermite basis on [0, 1], the derivative terms scaled by the step
        wa, wb = (1 + 2 * w) * (1 - w) ** 2, w * w * (3 - 2 * w)
        wda, wdb = self.step * w * (1 - w) ** 2, self.step * w * w * (w - 1)
        t = wa * a + wb * b + wda * _flow(a) + wdb * _flow(b)
        return (t - dagger(t)) / 2.0

    def at(self, z: float) -> NahmTriple:
        """Interpolated triple at z (see ``sample``); raises RangeNotCovered outside."""
        return NahmTriple(*(cmatrix(t) for t in self.sample([z])[0]))


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


def _flow(t: np.ndarray) -> np.ndarray:
    """Triple flow ([T2, T3], [T3, T1], [T1, T2]) on stacked (..., 3, k, k) triples."""
    x = t.take([1, 2, 0], axis=-3)
    y = t.take([2, 0, 1], axis=-3)
    return x @ y - y @ x


def _check_range(z0: float, z1: float) -> None:
    if not (np.isfinite(z0) and np.isfinite(z1) and z0 < z1):
        raise ValueError(f"need finite z0 < z1, got [{z0}, {z1}]")


def integrate_nahm(initial: NahmTriple, z0: float, z1: float, n_steps: int) -> NahmTrajectory:
    """Classical fixed-step RK4 on the triple flow, re-skewed after each step.

    The state is one stacked (3, k, k) array and every node is written into
    a preallocated (n_steps + 1, 3, k, k) array. The re-skew (c - c*)/2 is
    exactly skew-hermitian, so only finiteness is left to check, once, after
    the last step: a flow that blows up raises FlowBlowUp at the first node
    that is not finite. A grid numpy cannot allocate is a ValueError.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    _check_range(z0, z1)
    try:
        nodes = np.empty((n_steps + 1, 3, initial.k, initial.k), dtype=np.complex128)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"cannot allocate the RK4 nodes array: {exc}") from None
    h = (z1 - z0) / n_steps
    nodes[0] = (initial.t1, initial.t2, initial.t3)
    cur = nodes[0]
    half, sixth = 0.5 * h, h / 6.0
    # a flow that blows up is reported once, as FlowBlowUp, not with warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = _flow(cur)
            k2 = _flow(cur + half * k1)
            k3 = _flow(cur + half * k2)
            k4 = _flow(cur + h * k3)
            cur = cur + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            cur = nodes[i] = (cur - dagger(cur)) / 2.0
    finite = np.isfinite(nodes).all(axis=(1, 2, 3))
    if not finite.all():
        raise FlowBlowUp(z0 + int(np.argmin(finite)) * h)
    nodes.setflags(write=False)
    return NahmTrajectory(z0=z0, z1=z1, nodes=nodes)


def _require_skew(t: np.ndarray) -> None:
    """Refuse a stack of (..., k, k) matrices unless every one is skew-hermitian
    within 1e-12 of its own magnitude; the error names the first deviation."""
    dev = np.abs(t + dagger(t)).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(dev > 1e-12 * (1.0 + np.abs(t).max(axis=(-2, -1), initial=0.0)))
    if bad.size:
        deviation = dev.flat[bad[0]]
        raise DimensionMismatch(f"triple must be skew-hermitian (deviation {deviation:.3e})")


def _lax_coeffs(nodes: np.ndarray) -> np.ndarray:
    """Lax coefficient grids, shape (n, k + 1, 2k + 1), of an (n, 3, k, k) triple stack."""
    k = nodes.shape[-1]
    t1, t2, t3 = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    a0, a1, a2 = t1 + 1j * t2, 2j * t3, t1 - 1j * t2
    eye = np.eye(k, dtype=np.complex128)

    def matrix_at(eta: complex, zeta: complex) -> np.ndarray:
        return eta * eye - (a0 - a1 * zeta + a2 * zeta * zeta)

    return _unity_det_coeffs(matrix_at, len(nodes), k, 2 * k)


def lax_polynomial_coeffs(triple: NahmTriple) -> np.ndarray:
    """Coefficient grid of det(eta I - A(zeta)) with the standard Lax matrix

    A(zeta) = (T1 + i T2) - 2 i T3 zeta + (T1 - i T2) zeta^2.

    These coefficients are the conserved quantities of the smooth flow.
    """
    return _lax_coeffs(np.stack((triple.t1, triple.t2, triple.t3))[None])[0]


def invariant_drift(trajectory: NahmTrajectory, stride: int = 1) -> float:
    """Max deviation of the conserved Lax coefficients along the trajectory.

    Every stride-th node, from the first, is checked skew-hermitian and its
    coefficients computed in one stacked call; the drift is measured against
    the first node's. Raises ValueError for a stride below 1.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    nodes = trajectory.nodes[::stride]
    _require_skew(nodes)
    c = _lax_coeffs(nodes)
    return float(np.abs(c - c[0]).max())


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
    k = trajectory.nodes.shape[-1]
    # z = 2rh for every site and (2r+1)h for every link, in one sampling call
    t = trajectory.sample(np.arange(2 * sites.start, 2 * sites.stop - 1) * h)
    betas = dagger(t[0::2, 1] + 1j * t[0::2, 2])
    gammas = dagger(np.eye(k, dtype=np.complex128) / (2.0 * h) + 1j * t[1::2, 0])
    return BAChain(k=k, betas=betas, gammas=gammas, origin=sites.start)


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
    if not h_list or not all(0 < h < np.inf for h in h_list):
        raise ValueError("h_list must be finite and positive")
    if list(h_list) != sorted(h_list, reverse=True):
        raise ValueError("h_list must be decreasing")
    span = window + 3.0 * max(h_list)
    floor = np.ceil(10.0 * span / min(h_list))
    if not np.isfinite(floor):
        raise ValueError(f"h = {min(h_list)} needs more RK4 steps than a float can count")
    steps = max(rk_steps, int(floor))
    trajectory = integrate_nahm(initial, 0.0, span, steps)
    return [embedded_residuals(trajectory, h, window) for h in h_list]
