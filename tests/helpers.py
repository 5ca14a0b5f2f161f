"""Shared chain builders for the test suite."""

import numpy as np

import dnahm
import oracles


def gauged_trig(p):
    """Trigonometric chain conjugated into the identity-metric reality class."""
    chain, metric = dnahm.trig_solution(p)
    gauges = [dnahm.positive_sqrt(g) for g in metric]
    return dnahm.apply_gauge(chain, gauges)


def evolved_chain(k, seed, steps=20, spread=None):
    """A self-adjoint-gauge chain evolved from a random reality-class seed."""
    if spread is None:
        spread = 0.04 if k == 2 else 0.03
    pair = dnahm.random_reality_seed(k, seed, spread)
    return dnahm.evolve(pair, steps)


def overflowing_step_seed(k):
    """Seed (gamma, beta = 0), k = 3 or 4, whose first step matrix is
    H = gamma* gamma = c (I + J), J the all-ones matrix: gamma = sqrt(c) (I + a J)
    with 2a + k a^2 = 1. At k = 4 (c = 0.4e308) every entry of H is finite but its
    top eigenvalue 5c is not; at k = 3 (c = 0.5e308) the sum H + H* overflows."""
    c = {3: 0.5e308, 4: 0.4e308}[k]
    a = (np.sqrt(1.0 + k) - 1.0) / k
    gamma = np.sqrt(c) * (np.eye(k) + a * np.ones((k, k)))
    return dnahm.cmatrix(gamma), dnahm.cmatrix(np.zeros((k, k)))


def random_cmatrix(rng, k, scale=1.0):
    return dnahm.cmatrix(scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))))


def perturb_entry(m, i, j, eps):
    out = np.array(m)
    out[i, j] += eps
    return dnahm.cmatrix(out)


def replace_site(chain, index, **fields):
    sites = list(chain.sites)
    old = sites[index]
    sites[index] = dnahm.DNSite(
        r=old.r,
        A=fields.get("A", old.A),
        B=fields.get("B", old.B),
        D=fields.get("D", old.D),
    )
    return oracles.chain_from_sites(chain.k, tuple(sites), chain.links)


def replace_link(chain, index, **fields):
    links = list(chain.links)
    old = links[index]
    links[index] = dnahm.DNLink(
        r=old.r,
        Pplus=fields.get("Pplus", old.Pplus),
        Pminus=fields.get("Pminus", old.Pminus),
    )
    return oracles.chain_from_sites(chain.k, chain.sites, tuple(links))


def bits(m):
    """The raw 64-bit patterns of a float or complex array, so -0.0 != 0.0."""
    return np.ascontiguousarray(m).view(np.uint64)


def random_dn_chain(rng, k, n, origin=0):
    """A DN chain of n sites with random entries (shapes only; no equations hold)."""
    sites = tuple(
        dnahm.DNSite(r=origin + i, A=random_cmatrix(rng, k), B=random_cmatrix(rng, k),
                     D=random_cmatrix(rng, k))
        for i in range(n)
    )
    links = tuple(
        dnahm.DNLink(r=origin + i, Pplus=random_cmatrix(rng, k), Pminus=random_cmatrix(rng, k))
        for i in range(n - 1)
    )
    return oracles.chain_from_sites(k, sites, links)
