"""Independent brute-force oracles for pinning expected values.

These deliberately avoid the library's code paths: bivariate determinants
by recursive cofactor expansion over explicit coefficient grids, matrix
square roots by eigendecomposition, derivatives by finite differences. The
Lax checks on the full n*k delta basis of sections share the library's Ward
operators and stand in for its 3-colour probe block only. The RK4 Nahm
flow integrated node by node, one validated triple per node, and its cubic
Hermite sampling at one z stand in for the library's stacked-array integrator
and vectorised sampling. The per-entry [re, im] pair writer and reader, with
the indented chain documents they made, stand in for the library's
whole-array JSON fields, and the per-site surface, one scalar determinant per
roots-of-unity node, for its stacked char_surface.
"""

import json
from pathlib import Path

import numpy as np

from dnahm.continuum import NahmTriple
from dnahm.errors import (
    ChainTooShort,
    DimensionMismatch,
    FormatError,
    NoConvergence,
    RangeNotCovered,
)
from dnahm.lax import WardSection, ward_minus, ward_plus
from dnahm.linalg import cmatrix, dagger, max_abs
from dnahm.model import DNChain
from dnahm.spectral import SpectralSurface, bivariate_coeffs, pencil


def poly_mul2(a, b):
    """Product of two bivariate coefficient grids by explicit convolution."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def poly_add2(a, b):
    rows = max(a.shape[0], b.shape[0])
    cols = max(a.shape[1], b.shape[1])
    out = np.zeros((rows, cols), complex)
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def det_poly(entries):
    """Determinant of a matrix of bivariate coefficient grids (cofactor expansion)."""
    k = len(entries)
    if k == 1:
        return entries[0][0]
    total = np.zeros((1, 1), complex)
    for col in range(k):
        minor = [[row[j] for j in range(k) if j != col] for row in entries[1:]]
        term = poly_mul2(entries[0][col], det_poly(minor))
        total = poly_add2(total, ((-1) ** col) * term)
    return total


def char_surface_brute(A, B, D):
    """Coefficient grid of det(eta zeta A + eta B + zeta I + D) by cofactor expansion."""
    k = A.shape[0]
    entries = [
        [
            np.array(
                [[D[i, j], 1.0 if i == j else 0.0], [B[i, j], A[i, j]]], dtype=complex
            )
            for j in range(k)
        ]
        for i in range(k)
    ]
    c = det_poly(entries)
    out = np.zeros((k + 1, k + 1), complex)
    out[: c.shape[0], : c.shape[1]] = c
    return out


def sqrt_by_eig(h):
    """Positive square root via eigendecomposition (the reconstruction oracle)."""
    lam, u = np.linalg.eigh((h + h.conj().T) / 2.0)
    return u @ np.diag(np.sqrt(lam)) @ u.conj().T


def quadratic_roots(a, b, c):
    """Both roots of a x^2 + b x + c by the quadratic formula."""
    disc = np.sqrt(complex(b * b - 4 * a * c))
    return (-b + disc) / (2 * a), (-b - disc) / (2 * a)


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hpd(rng, k, shift=0.1):
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return x @ x.conj().T + shift * np.eye(k)


# Delta-basis Lax checks: O(n^2 k^2) memory and O(n^3 k^3) time for all
# interior sites; the library probes with a 3-colour block instead.


def basis_sections(chain: DNChain) -> WardSection:
    """The full delta basis of sections as one block: unit vector e_j at site s."""
    n, k = len(chain.sites), chain.k
    values = np.zeros((n, k, n * k), dtype=np.complex128)
    for s in range(n):
        values[s, :, s * k : (s + 1) * k] = np.eye(k)
    return WardSection(start=chain.r0, values=values)


def commutator_residual(chain: DNChain, eta: complex, zeta: complex) -> float:
    """Max of ||[W+, W-] f|| over the delta basis and interior sites.

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
    f = basis_sections(chain)
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


# Per-node RK4: a tuple of 2-D matrices and one frozen, validated NahmTriple
# per grid node; the library integrates one stacked (n_steps + 1, 3, k, k) array.


def _triple_rhs(t1, t2, t3):
    return (t2 @ t3 - t3 @ t2, t3 @ t1 - t1 @ t3, t1 @ t2 - t2 @ t1)


def integrate_nahm(initial: NahmTriple, z0: float, z1: float, n_steps: int):
    """Classical fixed-step RK4 on the triple flow, re-skewed after each step.

    Returns the grid states, one NahmTriple per node.
    """
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
    return tuple(states)


def hermite_at(states, z0: float, z1: float, z: float) -> NahmTriple:
    """Cubic Hermite interpolation of per-node states at one z."""
    step = (z1 - z0) / (len(states) - 1)
    if z < z0 - 1e-12 or z > z1 + 1e-12:
        raise RangeNotCovered(f"z = {z} outside trajectory range [{z0}, {z1}]")
    pos = (z - z0) / step
    i = int(min(max(np.floor(pos), 0), len(states) - 2))
    w = pos - i
    a, b = states[i], states[i + 1]
    a_t, b_t = (a.t1, a.t2, a.t3), (b.t1, b.t2, b.t3)
    da, db = _triple_rhs(*a_t), _triple_rhs(*b_t)
    # Hermite basis on [0, 1], the derivative terms scaled by the step
    wa, wb = (1 + 2 * w) * (1 - w) ** 2, w * w * (3 - 2 * w)
    wda, wdb = step * w * (1 - w) ** 2, step * w * w * (w - 1)
    t = [wa * x + wb * y + wda * dx + wdb * dy for x, y, dx, dy in zip(a_t, b_t, da, db)]
    return NahmTriple(*(cmatrix((c - dagger(c)) / 2.0) for c in t))


# Per-entry JSON pairs: one Python float pair per matrix entry, and chain
# documents indented through json's pure-Python encoder; the library builds
# each field with one tolist over the stacked matrices and writes compactly.


def matrix_to_pairs(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def matrix_from_pairs(obj, context: str = "matrix"):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{context}: not a nested numeric array") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise FormatError(f"{context}: expected rows x cols x [re, im], got shape {arr.shape}")
    return cmatrix(arr[:, :, 0] + 1j * arr[:, :, 1])


def chain_to_document(chain, metric=None) -> dict:
    doc: dict = {"format_version": "1", "k": chain.k}
    if isinstance(chain, DNChain):
        doc["form"] = "dn"
        doc["origin"] = chain.r0
        doc["sites"] = [
            {"A": matrix_to_pairs(s.A), "B": matrix_to_pairs(s.B), "D": matrix_to_pairs(s.D)}
            for s in chain.sites
        ]
        doc["links"] = [
            {"Pplus": matrix_to_pairs(l.Pplus), "Pminus": matrix_to_pairs(l.Pminus)}
            for l in chain.links
        ]
    else:
        doc["form"] = "ba"
        doc["origin"] = chain.origin
        doc["betas"] = [matrix_to_pairs(b) for b in chain.betas]
        doc["gammas"] = [matrix_to_pairs(g) for g in chain.gammas]
    if metric is not None:
        doc["metric"] = [matrix_to_pairs(g) for g in metric]
    return doc


def save_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# Per-site surface: a closure evaluates one scalar determinant per node of
# the roots-of-unity grid; the library batches each node's determinant over
# a stack of sites.


def char_surface(A, B, D) -> SpectralSurface:
    """Spectral surface of a site triple."""
    k = A.shape[0]
    for m in (A, B, D):
        if m.shape != (k, k):
            raise DimensionMismatch("A, B, D must be square matrices of equal size")
    m_at = pencil(A, B, D)

    def f(eta: complex, zeta: complex) -> complex:
        return complex(np.linalg.det(m_at(eta, zeta)))

    c = bivariate_coeffs(f, k, k)
    if abs(c[0, k] - 1.0) > 1e-12 * (1.0 + max_abs(c)):
        raise NoConvergence("coefficient extraction lost the identity-block normalization")
    c[0, k] = 1.0  # forced by the identity block
    c.setflags(write=False)
    return SpectralSurface(k=k, c=c)
