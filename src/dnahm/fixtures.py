"""Closed-form and random chain generators used as fixtures.

The trigonometric family is the axially symmetric charge-2 solution: pick a
half-integer mass p with 2p a positive integer, set phi = pi/(2p+2) and
s_m = sin(m phi); the chain lives on sites 1..2p, satisfies the discrete
Nahm equations through the identity

    sin(r phi) sin((r+2) phi) + sin(phi)^2 = sin((r+1) phi)^2,

is real with respect to the diagonal metric g_r = diag(s_{r+1}, s_r), has
the reducible spectral curve eta^2 - 2 cos(phi) eta zeta + zeta^2, and
meets the rank-1 boundary condition at both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution
from .errors import InconsistentScalars, InvalidMass, SeedExhausted
from .linalg import CMatrix, cmatrix, dagger, matrix_rank
from .model import DNChain
from .continuum import NahmTriple

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


# trig_solution builds about 2 kB per site: 10**5 sites take 2 s and 200 MB
TRIG_MAX_SITES = 100_000


@dataclass(frozen=True)
class TrigParams:
    p: float
    phi: float
    site_range: range


def trig_params(p: float) -> TrigParams:
    two_p = 2.0 * p
    n = round(two_p) if math.isfinite(two_p) else 0
    if p <= 0 or abs(two_p - n) > 1e-12 or n < 1:
        raise InvalidMass(f"2p must be a positive integer, got p = {p}")
    if n > TRIG_MAX_SITES:
        raise InvalidMass(f"2p must be at most {TRIG_MAX_SITES} sites, got p = {p}")
    return TrigParams(p=p, phi=math.pi / (2.0 * p + 2.0), site_range=range(1, n + 1))


@dataclass(frozen=True)
class BoundaryRanks:
    left: int
    right: int


def trig_solution(p: float) -> tuple[DNChain, np.ndarray]:
    """The trigonometric charge-2 chain on sites 1..2p and its reality metric,
    a read-only (2p, 2, 2) stack."""
    params = trig_params(p)
    phi = params.phi
    s = math.sin(phi)

    def sk(m: int) -> float:
        return math.sin(m * phi)

    sites, links = params.site_range, params.site_range[:-1]
    chain = DNChain(
        k=2,
        A=[[[0.0, -s / sk(r + 1)], [0.0, 0.0]] for r in sites],
        B=[[[-sk(r + 1) / sk(r), 0.0], [0.0, -sk(r) / sk(r + 1)]] for r in sites],
        D=[[[0.0, 0.0], [s / sk(r), 0.0]] for r in sites],
        Pplus=[[[1.0, 0.0], [0.0, sk(r) / sk(r + 1)]] for r in links],
        Pminus=[[[-sk(r + 2) / sk(r + 1), 0.0], [0.0, -1.0]] for r in links],
        origin=sites.start,
    )
    return chain, cmatrix([[[sk(r + 1), 0.0], [0.0, sk(r)]] for r in sites])


def boundary_rank_check(chain: DNChain) -> BoundaryRanks:
    """Numerical ranks (``matrix_rank``, at RANK_TOL) of B - DA at the left
    end and B - AD at the right end.

    Both equal 1 exactly for the chains that come from monopole boundary
    data; the trigonometric family realizes that whenever 2p is an integer.
    """
    A, B, D = chain.A, chain.B, chain.D
    return BoundaryRanks(
        left=matrix_rank(B[0] - D[0] @ A[0]),
        right=matrix_rank(B[-1] - A[-1] @ D[-1]),
    )


def scalar_solution(
    a: complex, b: complex, d: complex, p_minus: complex, p_plus: complex, length: int
) -> DNChain:
    """Constant charge-1 chain; requires b = p- p+ + a d to hold exactly."""
    if length < 1:
        raise ValueError("length must be >= 1")
    deviation = abs(b - (p_minus * p_plus + a * d))
    scale = 1.0 + max(abs(a), abs(b), abs(d), abs(p_minus), abs(p_plus))
    if deviation > 1e-12 * scale:
        raise InconsistentScalars(f"b - (p- p+ + a d) = {deviation:.3e}")
    sites, links = (length, 1, 1), (length - 1, 1, 1)
    return DNChain(
        k=1,
        A=np.full(sites, a, dtype=np.complex128),
        B=np.full(sites, b, dtype=np.complex128),
        D=np.full(sites, d, dtype=np.complex128),
        Pplus=np.full(links, p_plus, dtype=np.complex128),
        Pminus=np.full(links, p_minus, dtype=np.complex128),
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflowing first step is retried
def random_reality_seed(
    k: int, seed: int, spread: float
) -> tuple[CMatrix, CMatrix]:
    """Deterministic random evolution seed (gamma0, beta0) in the reality class.

    beta has entries uniform in the complex disc of radius spread; gamma is
    the identity plus a small Hermitian positive perturbation scaled by
    spread, so spread = 0 gives exactly (I, 0). If the first forward step breaks
    down (or overflows), the spread is shrunk and the draw retried. Raises
    ValueError for k < 1 or a spread that is not a finite number >= 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(spread) and spread >= 0.0):
        raise ValueError(f"spread must be a finite number >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    current = float(spread)
    for _ in range(100):
        radius = current * np.sqrt(rng.uniform(size=(k, k)))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(k, k))
        beta = radius * np.exp(1j * angle)
        x = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0 * k)
        gamma, beta = cmatrix(np.eye(k) + current * (x @ dagger(x))), cmatrix(beta)
        if evolution.evolve((gamma, beta), 2)[1] is None:  # the first step advances
            return gamma, beta
        current *= 0.7
    raise SeedExhausted(f"no positive seed after 100 retries (k={k}, seed={seed})")


def euler_top_triple(f: tuple[float, float, float] = (0.3, 0.4, 0.5)) -> NahmTriple:
    """su(2) triple T_i = (f_i/2)(-i sigma_i); the flow reduces to the Euler top."""
    return NahmTriple(
        t1=cmatrix(-0.5j * f[0] * _PAULI[0]),
        t2=cmatrix(-0.5j * f[1] * _PAULI[1]),
        t3=cmatrix(-0.5j * f[2] * _PAULI[2]),
    )


def random_skew_triple(k: int, seed: int, scale: float = 0.08) -> NahmTriple:
    """Deterministic random skew-hermitian triple for continuum experiments.

    The default amplitude keeps the embedded-chain residuals firmly in the
    first-order regime at spacings down to h = 0.01.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        x = scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        mats.append(cmatrix((x - dagger(x)) / 2.0))
    return NahmTriple(*mats)
