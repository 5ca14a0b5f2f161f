"""Discrete-time stepping of the Braam-Austin system.

One forward step takes (gamma_{i-1}, beta_i) to (gamma_{i+1}, beta_{i+2}):
the metric equation gives H = gamma*_{i-1} gamma_{i-1} + [beta*_i, beta_i],
whose positive square root is the gauge-fixed gamma_{i+1} (so every produced
gamma is Hermitian positive-definite, the self-adjoint gauge), and the
evolution equation then gives beta_{i+2} = gamma_{i+1}^{-1} beta_i gamma_{i+1}.
If H fails to be positive-definite the evolution cannot be continued; that
is a breakdown, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg
from .errors import NotRealityCompatible, SingularGamma
from .linalg import CMatrix, cmatrix, dagger, max_abs
from .model import BAChain

BREAKDOWN_TOL = 1e-10  # lambda_min <= tol * ||H||_max counts as breakdown


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


def _sqrt_step(h: CMatrix, tol: float) -> tuple[StepStatus, float, Optional[CMatrix]]:
    hs = (h + dagger(h)) / 2.0
    lam_min = float(np.linalg.eigvalsh(hs)[0])
    if lam_min <= tol * max_abs(hs):
        return StepStatus.BREAKDOWN, lam_min, None
    # the rule above alone decides breakdown: hs is exactly Hermitian and, for
    # tol >= 0, lam_min > 0, so positive_sqrt's checks pass at tol = 0 (its own
    # floor, tol * (1 + |H|), would stop positive chains of small scale)
    return StepStatus.ADVANCED, lam_min, linalg.positive_sqrt(hs, tol=0.0)


def step_forward(gamma_prev: CMatrix, beta_cur: CMatrix, tol: float = BREAKDOWN_TOL) -> StepOutcome:
    """Advance one step: solve for the next gamma, then the next beta."""
    linalg.require_invertible(gamma_prev, error=SingularGamma)
    h = dagger(gamma_prev) @ gamma_prev + _commutator_dag(beta_cur)
    status, lam_min, gamma_next = _sqrt_step(h, tol)
    if status is StepStatus.BREAKDOWN:
        return StepOutcome(status, lam_min)
    beta_next = np.linalg.inv(gamma_next) @ beta_cur @ gamma_next
    return StepOutcome(status, lam_min, (cmatrix(gamma_next), cmatrix(beta_next)))


def step_backward(gamma_next: CMatrix, beta_next: CMatrix, tol: float = BREAKDOWN_TOL) -> StepOutcome:
    """Invert a forward step: recover beta_cur, then the previous gamma.

    Returns produced = (gamma_prev, beta_cur). Composing with step_forward
    is the identity on self-adjoint-gauge chains.
    """
    linalg.require_invertible(gamma_next, error=SingularGamma)
    beta_cur = gamma_next @ beta_next @ np.linalg.inv(gamma_next)
    h = gamma_next @ dagger(gamma_next) - _commutator_dag(beta_cur)
    status, lam_min, gamma_prev = _sqrt_step(h, tol)
    if status is StepStatus.BREAKDOWN:
        return StepOutcome(status, lam_min)
    return StepOutcome(status, lam_min, (cmatrix(gamma_prev), cmatrix(beta_cur)))


def evolve(
    seed: tuple[CMatrix, CMatrix],
    n_steps: int,
    tol: float = BREAKDOWN_TOL,
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

    if not backward:
        gammas = [gamma0]
        betas = [beta0, cmatrix(np.linalg.inv(gamma0) @ beta0 @ gamma0)]
        for j in range(1, n_steps):
            outcome = step_forward(gammas[j - 1], betas[j], tol)
            if outcome.status is StepStatus.BREAKDOWN:
                return BAChain(k=k, betas=betas, gammas=gammas), j - 1
            gamma_next, beta_next = outcome.produced
            gammas.append(gamma_next)
            betas.append(beta_next)
        return BAChain(k=k, betas=betas, gammas=gammas), None

    # Backward: the seed site is the right end. Each step produces the link
    # to the left and the beta between the two leftmost links; the beta at
    # the far left end is a single conjugation across the leftmost link.
    gammas = [gamma0]
    betas = [beta0]
    broke = False
    for _ in range(1, n_steps):
        outcome = step_backward(gammas[0], betas[0], tol)
        if outcome.status is StepStatus.BREAKDOWN:
            broke = True
            break
        gamma_prev, beta_mid = outcome.produced
        betas.insert(0, beta_mid)
        gammas.insert(0, gamma_prev)
    betas.insert(0, cmatrix(gammas[0] @ betas[0] @ np.linalg.inv(gammas[0])))
    origin = -len(gammas)
    chain = BAChain(k=k, betas=betas, gammas=gammas, origin=origin)
    return chain, (origin if broke else None)


def seed_from_triple(
    A: CMatrix, B: CMatrix, D: CMatrix, tol: float = 1e-9
) -> tuple[CMatrix, CMatrix]:
    """Evolution seed from a single (A, B, D) triple in the reality class.

    Returns (gamma0, beta0) = (positive sqrt of A D - B, -A); evolving from
    it yields a chain whose site-0 triple reproduces (A, B, D). The triple
    must belong to the reality class: D = -A* within tol (otherwise the
    regenerated site would carry -A* in place of D) and A D - B Hermitian
    positive-definite. Raises NotRealityCompatible, NotHermitian or
    NotPositiveDefinite; no attempt is made to continue outside the class.
    """
    deviation = max_abs(D + dagger(A))
    if deviation > tol * (1.0 + max(max_abs(A), max_abs(D))):
        raise NotRealityCompatible(deviation)
    gamma0 = linalg.positive_sqrt(A @ D - B, tol=tol)
    return cmatrix(gamma0), cmatrix(-A)
