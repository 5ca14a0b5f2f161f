"""Independent brute-force oracles for pinning expected values.

These deliberately avoid the library's code paths: bivariate determinants
by recursive cofactor expansion over explicit coefficient grids, matrix
square roots by the Denman-Beavers iteration, derivatives by finite
differences, and the charge-2 evolution recurrence at 60 digits. The
Lax checks on the full n*k delta basis of sections, the factorization one
interior site at a time, share the library's Ward operators and stand in
for its whole-chain 3-colour probe block only. The RK4 Nahm
flow integrated node by node, one validated triple per node, and its cubic
Hermite sampling at one z stand in for the library's stacked-array integrator
and vectorised sampling. The per-entry [re, im] pair writer and reader, with
the indented chain documents they made, stand in for the library's
whole-array JSON fields, and the per-site surface, one scalar determinant per
roots-of-unity node, for its stacked char_surface. Chains built from frozen
per-site DNSite/DNLink objects, and the per-site loops of the chain kernels
(conversions, residuals, gauge action, reality, Ward operators, drift and
boundary ranks), stand in for the library's (n, k, k) stacks and its
batched whole-chain expressions. The per-point curve diagnostics (samples,
slice roots, smoothness scan, anti-diagonal clearance) and the per-node Lax
drift, one Python evaluation at a time, stand in for the library's batched
evaluation path and its stacked determinant grid. The evolution's two stepping
loops, one per direction, and a random seed probed by its own first forward
step stand in for the library's one walk and the seed probed through it.
"""

import json
from pathlib import Path

import mpmath
import numpy as np

from dnahm import linalg
from dnahm.continuum import NahmTriple
from dnahm.evolution import StepStatus, step_backward, step_forward
from dnahm.errors import (
    ChainTooShort,
    DegenerateSlice,
    DimensionMismatch,
    FormatError,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    NotRealityCompatible,
    RangeNotCovered,
    SeedExhausted,
    SingularGamma,
    SingularGauge,
)
from dnahm.fixtures import BoundaryRanks
from dnahm.lax import WardSection, ward_minus, ward_plus
from dnahm.linalg import cmatrix, dagger, matrix_rank, max_abs
from dnahm.model import BAChain, BAResiduals, DNChain, DNLink, DNSite, LinkResiduals
from dnahm.spectral import bivariate_coeffs, pencil


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


def sqrt_by_denman_beavers(h):
    """Positive square root by the scaled Denman-Beavers iteration, the
    library's eigendecomposition root's independent cross-check. Stalls into
    NoConvergence on well-posed matrices from cond ~ 1e9 on."""
    tol = linalg.SYMMETRY_TOL
    hs = linalg._hermitian_part(h, tol)
    k = hs.shape[0]
    scale = 1.0 + max_abs(hs)
    lam_min = float(np.linalg.eigvalsh(hs)[0])
    if lam_min <= tol * scale:
        raise NotPositiveDefinite(lam_min)

    y = hs.copy()
    z = np.eye(k, dtype=np.complex128)
    converged = False
    for _ in range(60):
        mu = abs(np.linalg.det(y) * np.linalg.det(z)) ** (-1.0 / (2 * k))
        if not np.isfinite(mu) or mu <= 0.0:
            mu = 1.0
        y, z = mu * y, mu * z
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        step = max_abs(y_next - y)
        y, z = y_next, z_next
        if step <= 1e-14 * (1.0 + max_abs(y)):
            converged = True
            break
    root = (y + dagger(y)) / 2.0
    if not converged and max_abs(root @ root - hs) > 1e-11 * scale:
        raise NoConvergence("matrix square root iteration did not converge")
    return root


def step_spectrum_mp(gamma0, beta0, n_links, dps=60):
    """The charge-2 forward recurrence of evolution.evolve, run in mpmath at
    dps digits from a double-precision seed (gamma0, beta0).

    Each step's H = gamma* gamma + [beta*, beta] has the closed-form root
    (H + sqrt(det H) I) / sqrt(tr H + 2 sqrt(det H)). Returns one
    (lambda_min(H), max-abs entry of H) float pair per step, up to n_links
    steps or the first step whose lambda_min is <= 0.
    """
    with mpmath.workdps(dps):
        gamma = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in gamma0])
        beta = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in beta0])
        beta = mpmath.inverse(gamma) * beta * gamma
        steps = []
        for _ in range(n_links):
            h = gamma.H * gamma + beta.H * beta - beta * beta.H
            a, d, b = mpmath.re(h[0, 0]), mpmath.re(h[1, 1]), h[0, 1]
            lam_min = (a + d) / 2 - mpmath.sqrt((a - d) ** 2 / 4 + abs(b) ** 2)
            steps.append((float(lam_min), float(max(abs(a), abs(d), abs(b)))))
            if lam_min <= 0:
                break
            root_det = mpmath.sqrt(a * d - abs(b) ** 2)
            h = mpmath.matrix([[a + root_det, b], [mpmath.conj(b), d + root_det]])
            gamma = h / mpmath.sqrt(a + d + 2 * root_det)
            beta = mpmath.inverse(gamma) * beta * gamma
        return steps


# Evolution as two stepping loops: forward appends from the newest link and
# site, backward inserts at the front from the oldest; each writes its own
# conjugation across the end link. The library walks both ways in one loop.


@np.errstate(over="ignore", invalid="ignore")
def evolve_two_loops(seed, n_steps, backward=False):
    """evolution.evolve, its forward and backward walks as separate loops."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    gamma0, beta0 = cmatrix(seed[0]), cmatrix(seed[1])
    linalg.require_invertible(gamma0, error=SingularGamma)
    k = gamma0.shape[0]
    if not backward:
        gammas = [gamma0]
        betas = [beta0, cmatrix(np.linalg.inv(gamma0) @ beta0 @ gamma0)]
        for j in range(1, n_steps):
            outcome = step_forward(gammas[j - 1], betas[j])
            if outcome.status is StepStatus.BREAKDOWN:
                return BAChain(k=k, betas=betas, gammas=gammas), j - 1
            gamma_next, beta_next = outcome.produced
            gammas.append(gamma_next)
            betas.append(beta_next)
        return BAChain(k=k, betas=betas, gammas=gammas), None
    gammas = [gamma0]
    betas = [beta0]
    broke = False
    for _ in range(1, n_steps):
        outcome = step_backward(gammas[0], betas[0])
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


@np.errstate(over="ignore", invalid="ignore")
def random_reality_seed(k, seed, spread):
    """fixtures.random_reality_seed with its first forward step written out:
    its own conjugation of beta across the seed link, then one step_forward."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    current = float(spread)
    for _ in range(100):
        radius = current * np.sqrt(rng.uniform(size=(k, k)))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(k, k))
        beta = radius * np.exp(1j * angle)
        x = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0 * k)
        gamma = cmatrix(np.eye(k) + current * (x @ dagger(x)))
        beta1 = cmatrix(np.linalg.inv(gamma) @ beta @ gamma)
        if step_forward(gamma, beta1).status is StepStatus.ADVANCED:
            return gamma, cmatrix(beta)
        current *= 0.7
    raise SeedExhausted(f"no positive seed after 100 retries (k={k}, seed={seed})")


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


def m_factorization_residual(chain: DNChain, r: int, eta: complex, zeta: complex) -> float:
    """Deviation of M from eta P- W+ + P+ W- - W+ W- at interior site r.

    Composite operators read through the links: (P- g)_r = P-_{r+1} g_{r+1}
    and (P+ g)_r = P+_{r-1} g_{r-1}.
    """
    if not (chain.r0 < r < chain.r1):
        raise ChainTooShort(f"site {r} is not interior to [{chain.r0}, {chain.r1}]")
    f = basis_sections(chain)
    site = site_at(chain, r)

    wplus_f = ward_plus(chain, eta, f)
    wminus_f = ward_minus(chain, eta, zeta, f)
    term_pm_wp = eta * link_at(chain, r).Pminus @ wplus_f.at(r + 1)
    term_pp_wm = link_at(chain, r - 1).Pplus @ wminus_f.at(r - 1)
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
    # complex(re, im) keeps both parts' bits, -0.0 included; re + 1j*im would not
    return cmatrix([[complex(re, im) for re, im in row] for row in arr.tolist()])


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


def char_surface(A, B, D):
    """Coefficient grid of a site triple."""
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
    return c


# Per-site chains: frozen DNSite/DNLink objects with explicit indices, and the
# kernels as Python loops over them; the library stores (n, k, k) stacks and
# evaluates each kernel as one batched expression.


def chain_from_sites(k, sites, links) -> DNChain:
    """A DNChain from per-site objects, after checking their shapes and indices."""
    if not sites:
        raise DimensionMismatch("chain needs at least one site")
    if len(links) != len(sites) - 1:
        raise DimensionMismatch("links count must be sites count - 1")
    for i, site in enumerate(sites):
        if site.r != sites[0].r + i:
            raise DimensionMismatch("site indices must be consecutive")
        for m in (site.A, site.B, site.D):
            if m.shape != (k, k):
                raise DimensionMismatch(f"site {site.r}: expected {k}x{k} data")
    for i, link in enumerate(links):
        if link.r != sites[i].r:
            raise DimensionMismatch("link indices must follow site indices")
        for m in (link.Pplus, link.Pminus):
            if m.shape != (k, k):
                raise DimensionMismatch(f"link {link.r}: expected {k}x{k} data")
    return DNChain(
        k,
        [s.A for s in sites],
        [s.B for s in sites],
        [s.D for s in sites],
        [l.Pplus for l in links],
        [l.Pminus for l in links],
        origin=sites[0].r,
    )


def from_braam_austin(ba):
    if not len(ba.gammas):
        raise ChainTooShort("B cannot be reconstructed without at least one link")
    for g in ba.gammas:
        linalg.require_invertible(g, error=SingularGamma)
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
    return chain_from_sites(ba.k, tuple(sites), tuple(links))


def to_braam_austin(chain, tol=1e-9):
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


def site_at(chain, r):
    """Site r of a chain (numbered from its origin) as a per-site DNSite."""
    return chain.sites[r - chain.r0]


def link_at(chain, r):
    """Link (r, r+1) of a chain as a per-site DNLink."""
    return chain.links[r - chain.r0]


def dn_residuals(chain):
    """One row of four residuals per link, then the rows as LinkResiduals columns."""
    rows = []
    for i, link in enumerate(chain.links):
        s0, s1 = chain.sites[i], chain.sites[i + 1]
        comm_a = max_abs(link.Pminus @ s1.A - s0.A @ link.Pminus)
        comm_d = max_abs(link.Pplus @ s0.D - s1.D @ link.Pplus)
        b_left = max_abs(s0.B - (link.Pminus @ link.Pplus + s0.A @ s0.D))
        b_right = max_abs(s1.B - (link.Pplus @ link.Pminus + s1.D @ s1.A))
        rows.append((comm_a, comm_d, b_left, b_right))
    return LinkResiduals(chain.r0, *np.array(rows, dtype=float).reshape(-1, 4).T)


def ba_residuals(ba):
    evolution = [
        max_abs(ba.betas[j] @ g - g @ ba.betas[j + 1]) for j, g in enumerate(ba.gammas)
    ]
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
    return BAResiduals(
        evolution=np.array(evolution, dtype=float), metric=np.array(metric, dtype=float)
    )


def apply_gauge(chain, gauges):
    if len(gauges) != len(chain.sites):
        raise DimensionMismatch("need one gauge matrix per site")
    for g in gauges:
        linalg.require_invertible(np.asarray(g, dtype=complex), error=SingularGauge)
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
    return chain_from_sites(chain.k, sites, links)


def identity_metric(chain):
    return tuple(np.eye(chain.k, dtype=np.complex128) for _ in chain.sites)


def validate_metric(metric, k):
    for g in metric:
        if g.shape != (k, k):
            raise DimensionMismatch("metric matrices must match the chain charge")
        dev = max_abs(g - dagger(g))
        if dev > 1e-9 * (1.0 + max_abs(g)):
            raise NotHermitian(dev)
        lam_min = float(np.linalg.eigvalsh((g + dagger(g)) / 2.0)[0])
        if lam_min <= 0.0:
            raise NotPositiveDefinite(lam_min)


def reality_residual(chain, metric):
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


def ward_plus_per_site(chain, eta, f):
    lo = max(chain.r0 + 1, f.start + 1)
    hi = min(chain.r1, f.end)
    if lo > hi:
        raise ChainTooShort("no sites on which W+ is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    rows = []
    for r in range(lo, hi + 1):
        link = link_at(chain, r - 1)
        site = site_at(chain, r)
        rows.append(link.Pplus @ f.at(r - 1) - (eta * site.A + eye) @ f.at(r))
    return WardSection(start=lo, values=np.array(rows))


def ward_minus_per_site(chain, eta, zeta, f):
    lo = max(chain.r0, f.start)
    hi = min(chain.r1 - 1, f.end - 1)
    if lo > hi:
        raise ChainTooShort("no sites on which W- is defined")
    eye = np.eye(chain.k, dtype=np.complex128)
    rows = []
    for r in range(lo, hi + 1):
        link = link_at(chain, r)
        site = site_at(chain, r)
        rows.append(eta * link.Pminus @ f.at(r + 1) + (zeta * eye + site.D) @ f.at(r))
    return WardSection(start=lo, values=np.array(rows))


def drift_series(chain):
    """Per-site max |c_r - c_first|, in site order, from one per-site surface each."""
    base = char_surface(chain.sites[0].A, chain.sites[0].B, chain.sites[0].D)
    return [max_abs(char_surface(s.A, s.B, s.D) - base) for s in chain.sites]


def boundary_rank_check(chain):
    first, last = chain.sites[0], chain.sites[-1]
    return BoundaryRanks(
        left=matrix_rank(first.B - first.D @ first.A),
        right=matrix_rank(last.B - last.A @ last.D),
    )


# Per-point curve diagnostics on a coefficient grid c: one Python evaluation
# per sample, slice, angle or trajectory node; the library evaluates every
# point in one batched expression and every slice's roots in one stacked
# poly_roots call.


def evaluate(c, eta, zeta):
    e = eta ** np.arange(len(c))
    z = zeta ** np.arange(len(c))
    return complex(e @ c @ z)


def magnitude(c, eta, zeta):
    e = abs(eta) ** np.arange(len(c))
    z = abs(zeta) ** np.arange(len(c))
    return float(e @ np.abs(c) @ z)


def gradient(c, eta, zeta):
    i = np.arange(len(c))
    e, z = eta ** i, zeta ** i
    de = np.concatenate(([0.0], i[1:] * eta ** (i[1:] - 1)))
    dz = np.concatenate(([0.0], i[1:] * zeta ** (i[1:] - 1)))
    return complex(de @ c @ z), complex(e @ c @ dz)


def zeta_coefficients(c, eta):
    return (eta ** np.arange(len(c))) @ c


def zeta_slice_roots(c, eta):
    coeffs = zeta_coefficients(c, eta)
    scale = max(1.0, float(np.abs(c).max()), float(np.abs(coeffs).max()))
    if abs(coeffs[-1]) <= 1e-12 * scale:
        raise DegenerateSlice(f"zeta-degree collapses at eta = {eta}")
    return linalg.poly_roots(coeffs)


def curve_samples(c, n_eta, radius=1.0, residual_tol=1e-8):
    """Sample points as (eta, zeta) pairs, and the number of skipped degenerate slices."""
    points = []
    skipped = 0
    for m in range(n_eta):
        eta = radius * np.exp(2j * np.pi * m / n_eta)
        try:
            roots = zeta_slice_roots(c, eta)
        except DegenerateSlice:
            skipped += 1
            continue
        for zeta in roots:
            residual = abs(evaluate(c, eta, zeta))
            if residual > residual_tol * magnitude(c, eta, zeta):
                raise NoConvergence(
                    f"curve sample residual {residual:.3e} exceeded tolerance at eta={eta}"
                )
            points.append((complex(eta), complex(zeta)))
    return points, skipped


def smoothness_report(c, etas, zetas, flag_tol=1e-6):
    """The least gradient norm over the points, and one flag per point."""
    min_gradient = np.inf
    flagged = []
    i = np.arange(len(c))
    absc = np.abs(c)
    for eta, zeta in zip(etas, zetas):
        ge, gz = gradient(c, eta, zeta)
        gnorm = float(np.hypot(abs(ge), abs(gz)))
        ae, az = abs(eta) ** i, abs(zeta) ** i
        de = np.concatenate(([0.0], i[1:] * abs(eta) ** (i[1:] - 1)))
        dz = np.concatenate(([0.0], i[1:] * abs(zeta) ** (i[1:] - 1)))
        scale = float(de @ absc @ az + ae @ absc @ dz)
        min_gradient = min(min_gradient, gnorm)
        flagged.append(gnorm < flag_tol * max(1.0, scale))
    if not flagged:
        min_gradient = 0.0
    return float(min_gradient), flagged


def antidiagonal_clearance(c, n, radii=(0.5, 1.0, 2.0)):
    k = len(c) - 1
    best = np.inf
    for radius in radii:
        for m in range(n):
            eta = radius * np.exp(2j * np.pi * m / n)
            value = evaluate(c, eta, -1.0 / np.conj(eta))
            rescaled = abs(np.conj(eta) ** k * value) / (1.0 + abs(eta) ** 2) ** k
            best = min(best, rescaled)
    return float(best)


def lax_polynomial_coeffs(triple: NahmTriple):
    """Lax coefficient grid from one scalar determinant per grid point."""
    t1, t2, t3 = triple.t1, triple.t2, triple.t3
    k = triple.k
    eye = np.eye(k, dtype=np.complex128)

    def f(eta, zeta):
        a = (t1 + 1j * t2) - 2j * t3 * zeta + (t1 - 1j * t2) * zeta * zeta
        return complex(np.linalg.det(eta * eye - a))

    return bivariate_coeffs(f, k, 2 * k)


def invariant_drift(trajectory, stride=1):
    """Per-node Lax drift: one validated NahmTriple and one closure per node."""
    base = lax_polynomial_coeffs(NahmTriple(*trajectory.nodes[0]))
    worst = 0.0
    for node in trajectory.nodes[::stride]:
        worst = max(worst, max_abs(lax_polynomial_coeffs(NahmTriple(*node)) - base))
    return worst
