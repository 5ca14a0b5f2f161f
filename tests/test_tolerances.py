"""The library's fixed tolerances, each probed on both sides of its threshold.

Every rule gets an input at 0.5x and at 2x its threshold: the first lies on
the accepted (or unflagged) side and the second on the other. The values are
the ones README's "Tolerances" paragraph lists: a rule that moves fails here.
"""

import numpy as np
import pytest

import dnahm
from dnahm import linalg
from dnahm.errors import (
    DimensionMismatch,
    NoConvergence,
    NotRealityCompatible,
    PointNotOnCurve,
    Singular,
)

import helpers


@pytest.mark.parametrize("factor, singular", [(0.5, True), (2.0, False)])
def test_require_invertible_at_rank_tol(factor, singular):
    # smallest over largest singular value at factor x RANK_TOL = 1e-9
    m = dnahm.cmatrix(np.diag([1.0, factor * 1e-9]))
    if singular:
        with pytest.raises(Singular):
            linalg.require_invertible(m)
    else:
        linalg.require_invertible(m)


@pytest.mark.parametrize("factor, rank", [(0.5, 1), (2.0, 2)])
def test_boundary_rank_check_at_rank_tol(factor, rank):
    # A = D = 0, so B - DA and B - AD are B = diag(1, factor x 1e-9)
    b = np.diag([1.0, factor * 1e-9])
    zero = np.zeros((2, 2, 2))
    chain = dnahm.DNChain(k=2, A=zero, B=[b, b], D=zero, Pplus=zero[:1], Pminus=zero[:1])
    assert dnahm.boundary_rank_check(chain) == dnahm.BoundaryRanks(rank, rank)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_to_braam_austin_reality_deviation(factor, accepted):
    # D = -A* exactly on a converted BA chain; one D entry moves by
    # factor x 1e-9 times the largest entry of A, D, P+ and P-
    dn = dnahm.from_braam_austin(helpers.evolved_chain(2, seed=3, steps=6)[0])
    scale = max(1.0, *(dnahm.max_abs(m) for m in (dn.A, dn.D, dn.Pplus, dn.Pminus)))
    d = np.array(dn.D)
    d[2, 0, 1] += factor * 1e-9 * scale
    moved = dnahm.DNChain(k=2, A=dn.A, B=dn.B, D=d, Pplus=dn.Pplus, Pminus=dn.Pminus)
    assert dnahm.max_abs(moved.D) < scale  # the move does not raise the scale
    if accepted:
        dnahm.to_braam_austin(moved)
    else:
        with pytest.raises(NotRealityCompatible):
            dnahm.to_braam_austin(moved)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_curve_grid_normalization(factor, accepted):
    # F = 1/2 + (1 + delta) zeta: |c[0][k] - 1| = delta against 1e-9 (1 + max |c|)
    # = 1e-9 (2 + delta), so delta = factor x 1e-9 (2 + delta)
    delta = 2.0 * factor * 1e-9 / (1.0 - factor * 1e-9)
    c = np.array([[0.5, 1.0 + delta], [0.0, 0.0]])
    if accepted:
        dnahm.antidiagonal_clearance(c, 4)
    else:
        with pytest.raises(DimensionMismatch, match="normalization"):
            dnahm.antidiagonal_clearance(c, 4)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_curve_samples_residual(factor, accepted, monkeypatch):
    # F = 1/2 + zeta has the exact root -1/2 on every slice; the root solver
    # is made to return -1/2 + delta, a residual of delta against the local
    # magnitude 1/2 + |zeta| = 1 - delta, so delta = factor x 1e-8 (1 - delta)
    c = np.array([[0.5, 1.0], [0.0, 0.0]], dtype=complex)
    delta = factor * 1e-8 / (1.0 + factor * 1e-8)
    roots = linalg.poly_roots
    monkeypatch.setattr(linalg, "poly_roots", lambda c: roots(c) + delta)
    if accepted:
        _, zeta = dnahm.curve_samples(c, 4)
        assert zeta.tolist() == [-0.5 + delta] * 4
    else:
        with pytest.raises(NoConvergence):
            dnahm.curve_samples(c, 4)


@pytest.mark.parametrize("factor, flagged", [(0.5, True), (2.0, False)])
def test_smoothness_report_flag(factor, flagged):
    # F = zeta + eta zeta: at (eta, zeta) = (-1 + g, 0) the gradient is
    # (0, g) and its magnitude bound 1 + |eta| = 2 - g, so a gradient of
    # factor x 1e-6 (2 - g) sits at factor x the flag threshold
    c = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    g = 2.0 * factor * 1e-6 / (1.0 + factor * 1e-6)
    min_gradient, flags = dnahm.smoothness_report(c, [-1.0 + g], [0.0])
    assert min_gradient == pytest.approx(g, rel=1e-9)
    assert flags.tolist() == [flagged]


@pytest.mark.parametrize("factor, on_curve", [(0.5, True), (2.0, False)])
def test_cokernel_nullity_on_curve(factor, on_curve):
    # A = B = D = 0 at k = 1 gives F = zeta, whose local magnitude |zeta| is
    # below 1, so |F| at (0, zeta) is measured against 1e-6 itself
    zero = dnahm.cmatrix([[0.0]])
    zeta = factor * 1e-6
    if on_curve:
        assert dnahm.cokernel_nullity(zero, zero, zero, 0.0, zeta) == 0
    else:
        with pytest.raises(PointNotOnCurve):
            dnahm.cokernel_nullity(zero, zero, zero, 0.0, zeta)
