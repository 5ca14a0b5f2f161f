"""Discrete-time stepping of the Braam-Austin system.

One forward step takes (gamma_{i-1}, beta_i) to (gamma_{i+1}, beta_{i+2}):
the metric equation gives H = gamma*_{i-1} gamma_{i-1} + [beta*_i, beta_i],
whose positive square root is the gauge-fixed gamma_{i+1} (so every produced
gamma is Hermitian positive-definite, the self-adjoint gauge), and the
evolution equation then gives beta_{i+2} = gamma_{i+1}^{-1} beta_i gamma_{i+1}.
If H fails to be positive-definite the evolution cannot be continued; that
is a breakdown, not an error. So is an H that overflows the doubles, in an
entry or only in its largest eigenvalue; its lambda_min is reported as NaN,
and neither the steps nor evolve raise a RuntimeWarning for it.
step_backward inverts a forward step, and evolve runs either one as the same
walk: each step reads the newest link and site and appends the next of each,
and a backward walk is reversed once at its end into chain order.

Breakdown is lambda_min(H) <= BREAKDOWN_TOL * ||H||_max (max-abs entry), one
fixed rule with no per-call override. BREAKDOWN_TOL = 6e-8 comes from the
stated long-chain accuracy: evolving the closed-form charge-2 chain from its
first link reproduces each gamma to delta = 1e-8 (p <= 590). At its rank-1
boundary lambda_min is exactly 0, and entry errors of at most delta in gamma
and beta move it, to first order, by at most
||dH||_2 <= 2k (||gamma||_2 + 2 ||beta||_2) delta = 5.3e-8 ||H||_max (p >= 50),
rounded up to 6e-8; interior steps keep lambda_min >= 0.33 ||H||_max.
Per-step rounding does not explain the boundary value: at p = 200 it is
-1.9e-9 or +1.9e-10 by how the seed was gauged, and a 60-digit run of the
recurrence from the same seed agrees, so its spread is the problem's
conditioning of the seed's rounding. A step that passes the rule has
lambda_min seven orders above an eigensolve's rounding, so the square root
that follows always sees a positive-definite H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg
from .errors import NotRealityCompatible, SingularGamma
from .linalg import CMatrix, cmatrix, dagger, max_abs
from .model import BAChain

BREAKDOWN_TOL = 6e-8  # lambda_min <= tol * ||H||_max counts as breakdown


class StepStatus(Enum):
    ADVANCED = "advanced"
    BREAKDOWN = "breakdown"


@dataclass(frozen=True)
class StepOutcome:
    """Result of one evolution step.

    lambda_min is the smallest eigenvalue of the step matrix H; produced is
    (gamma, beta) on success and None exactly when status is BREAKDOWN.
    """

    status: StepStatus
    lambda_min: float
    produced: Optional[tuple[CMatrix, CMatrix]] = None


def _commutator_dag(beta: CMatrix) -> CMatrix:
    return dagger(beta) @ beta - beta @ dagger(beta)


def _beta_forward(gamma: CMatrix, beta: CMatrix) -> np.ndarray:
    """The evolution equation beta gamma = gamma beta' solved forward:
    beta' = gamma^{-1} beta gamma, the site after the link from the one before."""
    return np.linalg.inv(gamma) @ beta @ gamma


def _beta_backward(gamma: CMatrix, beta_next: CMatrix) -> np.ndarray:
    """The same equation solved backward: beta = gamma beta' gamma^{-1}."""
    return gamma @ beta_next @ np.linalg.inv(gamma)


def _sqrt_step(h: CMatrix) -> tuple[StepStatus, float, Optional[CMatrix]]:
    hs = (h + dagger(h)) / 2.0
    scale = max_abs(hs)
    if not math.isfinite(scale):  # H overflowed the doubles
        return StepStatus.BREAKDOWN, math.nan, None
    lam = np.linalg.eigvalsh(hs)
    if not math.isfinite(lam[-1]):  # finite entries, but an eigenvalue past the doubles
        return StepStatus.BREAKDOWN, math.nan, None
    lam_min = float(lam[0])
    if lam_min <= BREAKDOWN_TOL * scale:
        return StepStatus.BREAKDOWN, lam_min, None
    # hs is exactly Hermitian, so positive_sqrt runs at tol = 0 (its floor,
    # tol * (1 + |H|), would stop positive chains of small scale)
    return StepStatus.ADVANCED, lam_min, linalg.positive_sqrt(hs, tol=0.0)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing H is a breakdown
def step_forward(gamma_prev: CMatrix, beta_cur: CMatrix) -> StepOutcome:
    """Advance one step: solve for the next gamma, then the next beta, unless H
    meets the fixed breakdown rule (module docstring) or overflows."""
    linalg.require_invertible(gamma_prev, error=SingularGamma)
    h = dagger(gamma_prev) @ gamma_prev + _commutator_dag(beta_cur)
    status, lam_min, gamma_next = _sqrt_step(h)
    if status is StepStatus.BREAKDOWN:
        return StepOutcome(status, lam_min)
    beta_next = _beta_forward(gamma_next, beta_cur)
    return StepOutcome(status, lam_min, (cmatrix(gamma_next), cmatrix(beta_next)))


@np.errstate(over="ignore", invalid="ignore")  # as in step_forward
def step_backward(gamma_next: CMatrix, beta_next: CMatrix) -> StepOutcome:
    """Invert a forward step: recover beta_cur, then the previous gamma.

    Returns produced = (gamma_prev, beta_cur). Composing with step_forward
    is the identity on self-adjoint-gauge chains. Breaks down as step_forward.
    """
    linalg.require_invertible(gamma_next, error=SingularGamma)
    beta_cur = _beta_backward(gamma_next, beta_next)
    h = gamma_next @ dagger(gamma_next) - _commutator_dag(beta_cur)
    status, lam_min, gamma_prev = _sqrt_step(h)
    if status is StepStatus.BREAKDOWN:
        return StepOutcome(status, lam_min)
    return StepOutcome(status, lam_min, (cmatrix(gamma_prev), cmatrix(beta_cur)))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing step is a breakdown
def evolve(
    seed: tuple[CMatrix, CMatrix],
    n_steps: int,
    backward: bool = False,
) -> tuple[BAChain, Optional[int]]:
    """Evolve a chain of up to n_steps links from a seed (gamma0, beta0).

    The seed is the chain's first link and first site (last link and last
    site when backward). Forward output occupies sites 0..n, backward
    output sites -n..0, so the seed site is always index 0. On breakdown
    the partial chain is returned together with the index of the link at
    the broken end; otherwise that index is None.

    The evolution is a pure function of the seed: reruns are bit-identical.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    gamma0, beta0 = cmatrix(seed[0]), cmatrix(seed[1])
    linalg.require_invertible(gamma0, error=SingularGamma)
    k = gamma0.shape[0]

    # The lists hold links and sites in walk order. The site at the far end
    # of a link is one conjugation across it: forward, for the seed link,
    # before the walk; backward, for the last link, after it.
    step = step_backward if backward else step_forward
    gammas = [gamma0]
    betas = [beta0] if backward else [beta0, cmatrix(_beta_forward(gamma0, beta0))]
    broke = False
    for _ in range(1, n_steps):
        outcome = step(gammas[-1], betas[-1])
        if outcome.status is StepStatus.BREAKDOWN:
            broke = True
            break
        gamma, beta = outcome.produced
        gammas.append(gamma)
        betas.append(beta)
    if not backward:
        chain = BAChain(k=k, betas=betas, gammas=gammas)
        return chain, (len(gammas) - 1 if broke else None)
    betas.append(cmatrix(_beta_backward(gammas[-1], betas[-1])))
    origin = -len(gammas)
    chain = BAChain(k=k, betas=betas[::-1], gammas=gammas[::-1], origin=origin)
    return chain, (origin if broke else None)


def seed_from_triple(A: CMatrix, B: CMatrix, D: CMatrix) -> tuple[CMatrix, CMatrix]:
    """Evolution seed from a single (A, B, D) triple in the reality class.

    Returns (gamma0, beta0) = (positive sqrt of A D - B, -A); evolving from
    it yields a chain whose site-0 triple reproduces (A, B, D). The triple
    must belong to the reality class, each test at 1e-9 relative: D = -A*
    (otherwise the regenerated site would carry -A* in place of D) and A D - B
    Hermitian positive-definite. Raises NotRealityCompatible, NotHermitian or
    NotPositiveDefinite; no attempt is made to continue outside the class.
    """
    deviation = max_abs(D + dagger(A))
    if deviation > 1e-9 * (1.0 + max(max_abs(A), max_abs(D))):
        raise NotRealityCompatible(deviation)
    gamma0 = linalg.positive_sqrt(A @ D - B, tol=1e-9)
    return cmatrix(gamma0), cmatrix(-A)
