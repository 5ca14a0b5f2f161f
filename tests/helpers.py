"""Shared chain builders for the test suite."""

import numpy as np

import dnahm


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
    return dnahm.DNChain(k=chain.k, sites=tuple(sites), links=chain.links)


def replace_link(chain, index, **fields):
    links = list(chain.links)
    old = links[index]
    links[index] = dnahm.DNLink(
        r=old.r,
        Pplus=fields.get("Pplus", old.Pplus),
        Pminus=fields.get("Pminus", old.Pminus),
    )
    return dnahm.DNChain(k=chain.k, sites=chain.sites, links=tuple(links))


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
    return dnahm.DNChain(k=k, sites=sites, links=links)
