"""Acceptance suite: every stated criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The random-chain ensemble (criterion 3) is shared by the Lax, transport and
round-trip criteria.
"""

import numpy as np
import pytest

import dnahm

import helpers
import oracles

ETA = 0.7 + 0.3j
ZETA = 0.2 + 0.1j
TRIG_MASSES = (1, 1.5, 2, 2.5, 3)


def chain_scale(dn):
    mats = [m for s in dn.sites for m in (s.A, s.B, s.D)]
    mats += [m for l in dn.links for m in (l.Pplus, l.Pminus)]
    return 1.0 + max(dnahm.max_abs(m) for m in mats)


@pytest.fixture(scope="module")
def ensemble():
    """50 random reality-class runs: 25 at k=2, 25 at k=3, 20 steps each."""
    survivors = []
    breakdowns = []
    for k, spread, seeds in ((2, 0.04, range(0, 25)), (3, 0.03, range(100, 125))):
        for seed in seeds:
            pair = dnahm.random_reality_seed(k, seed, spread)
            chain, bk = dnahm.evolve(pair, 20)
            if bk is None:
                survivors.append((k, seed, chain, dnahm.from_braam_austin(chain)))
            else:
                breakdowns.append((k, seed, bk))
    return survivors, breakdowns


def test_criterion_1_trig_fixture():
    for p in TRIG_MASSES:
        chain, metric = dnahm.trig_solution(p)
        assert dnahm.max_dn_residual(chain) < 1e-13
        assert dnahm.reality_residual(chain, metric) < 1e-13
        ranks = dnahm.boundary_rank_check(chain)
        assert (ranks.left, ranks.right) == (1, 1)
    print(f"\ncriterion 1 PASS: trig fixture residuals < 1e-13, boundary ranks (1,1), p in {TRIG_MASSES}")


def test_criterion_2_trig_spectral_curve():
    worst = 0.0
    for p in TRIG_MASSES:
        chain, _ = dnahm.trig_solution(p)
        expected = np.zeros((3, 3), complex)
        expected[2, 0] = 1.0
        expected[1, 1] = -2.0 * np.cos(np.pi / (2 * p + 2))
        expected[0, 2] = 1.0
        for site in chain.sites:
            c = dnahm.char_surface(site.A, site.B, site.D).c
            worst = max(worst, dnahm.max_abs(c - expected))
    assert worst < 1e-12
    print(f"criterion 2 PASS: trig surface coefficients match closed form to {worst:.2e} (< 1e-12)")


def test_criterion_3_isospectrality(ensemble):
    survivors, breakdowns = ensemble
    assert len(survivors) + len(breakdowns) == 50
    assert len(survivors) >= 40  # the ensemble must not be dominated by breakdowns
    worst = 0.0
    for k, seed, ba, dn in survivors:
        drift = dnahm.invariance_drift(dn)
        base = dnahm.char_surface(dn.sites[0].A, dn.sites[0].B, dn.sites[0].D).c
        scale = max(1.0, dnahm.max_abs(base))
        assert drift < 1e-9 * scale, f"k={k} seed={seed}: drift {drift:.2e}"
        worst = max(worst, drift / scale)
    excluded = [(k, seed, bk) for k, seed, bk in breakdowns]
    print(
        f"criterion 3 PASS: {len(survivors)}/50 runs isospectral to {worst:.2e} (< 1e-9); "
        f"breakdown runs excluded (k, seed, index): {excluded}"
    )


def _assert_perturbation_detected(dn, family, idx, i, j):
    eps = 1e-3
    threshold = 1e-5 * abs(ETA)
    n = len(dn.sites)
    if family == "A":
        bad = helpers.replace_site(dn, idx, A=helpers.perturb_entry(dn.sites[idx].A, i, j, eps))
        lax_visible = idx > 0  # the first site's A only enters boundary links
    elif family == "D":
        bad = helpers.replace_site(dn, idx, D=helpers.perturb_entry(dn.sites[idx].D, i, j, eps))
        lax_visible = idx < n - 1  # the last site's D only enters boundary links
    elif family == "B":
        bad = helpers.replace_site(dn, idx, B=helpers.perturb_entry(dn.sites[idx].B, i, j, eps))
        # B never enters the Ward operators; the factorization identity at
        # its site (entry idx - 1 of the interior residuals) sees it
        if 0 < idx < n - 1:
            assert dnahm.m_factorization_residual(bad, ETA, ZETA)[idx - 1] >= threshold
        else:
            assert dnahm.max_dn_residual(bad) >= threshold
        return
    elif family == "Pplus":
        bad = helpers.replace_link(dn, idx, Pplus=helpers.perturb_entry(dn.links[idx].Pplus, i, j, eps))
        lax_visible = True
    else:
        bad = helpers.replace_link(dn, idx, Pminus=helpers.perturb_entry(dn.links[idx].Pminus, i, j, eps))
        lax_visible = True
    if lax_visible:
        assert dnahm.commutator_residual(bad, ETA, ZETA) >= threshold, (family, idx, i, j)
    else:
        # boundary entries invisible to the interior commutator still break
        # the chain equations themselves
        assert dnahm.max_dn_residual(bad) >= threshold, (family, idx, i, j)


def _entry_sweep(dn, rng, limit=None):
    k = dn.k
    entries = []
    for family, count in (("A", len(dn.sites)), ("B", len(dn.sites)), ("D", len(dn.sites)),
                          ("Pplus", len(dn.links)), ("Pminus", len(dn.links))):
        entries += [(family, idx, i, j) for idx in range(count) for i in range(k) for j in range(k)]
    if limit is not None and len(entries) > limit:
        picks = rng.choice(len(entries), size=limit, replace=False)
        entries = [entries[p] for p in picks]
    for family, idx, i, j in entries:
        _assert_perturbation_detected(dn, family, idx, i, j)
    return len(entries)


def test_criterion_4_lax_equivalence(ensemble):
    survivors, _ = ensemble
    worst_comm = 0.0
    worst_spread = 0.0
    worst_fact = 0.0
    for k, seed, ba, dn in survivors:
        scale = chain_scale(dn)
        comm = dnahm.commutator_residual(dn, ETA, ZETA)
        assert comm < 1e-11 * scale, f"k={k} seed={seed}"
        spread = abs(comm - dnahm.commutator_residual(dn, ETA, -2.0 + 1.4j))
        assert spread < 1e-13 * scale
        fact = float(dnahm.m_factorization_residual(dn, ETA, ZETA).max())
        assert fact < 1e-11 * scale
        worst_comm = max(worst_comm, comm / scale)
        worst_spread = max(worst_spread, spread / scale)
        worst_fact = max(worst_fact, fact / scale)
    # single-entry perturbations: full sweep on one chain per charge,
    # a deterministic sample on the rest
    rng = np.random.default_rng(0)
    swept = 0
    for charge in (2, 3):
        dn = next(dn for k, _, _, dn in survivors if k == charge)
        swept += _entry_sweep(dn, rng)
    for k, seed, ba, dn in survivors:
        swept += _entry_sweep(dn, rng, limit=10)
    print(
        f"criterion 4 PASS: commutator < {worst_comm:.2e} (1e-11), zeta-spread < {worst_spread:.2e} "
        f"(1e-13), factorization < {worst_fact:.2e}; {swept} entry perturbations all detected"
    )


def test_criterion_5_dual_transport(ensemble):
    survivors, _ = ensemble
    chains = [dnahm.trig_solution(2)[0], dnahm.trig_solution(3)[0]]
    chains.append(next(dn for k, _, _, dn in survivors if k == 2))
    chains.append(next(dn for k, _, _, dn in survivors if k == 3))
    radii = (0.5, 0.8, 1.25, 2.0, 1.0)
    worst = 0.0
    checked = 0
    for chain in chains:
        mid = chain.r0 + (len(chain.links) - 1) // 2
        site = oracles.site_at(chain, mid + 1)
        surface = dnahm.char_surface(site.A, site.B, site.D)
        for idx, radius in enumerate(radii):
            eta = radius * np.exp(2j * np.pi * (idx + 0.37) / len(radii))
            zeta = dnahm.zeta_slice_roots(surface, eta)[0]
            residual = dnahm.dual_transport_check(
                chain, mid, dnahm.CurvePoint(eta=eta, zeta=complex(zeta))
            )
            assert residual < 1e-8, f"radius {radius}: {residual:.2e}"
            worst = max(worst, residual)
            checked += 1
    assert checked == 20
    print(f"criterion 5 PASS: dual transport residual < {worst:.2e} (1e-8) at {checked} curve points")


def test_criterion_6_continuum_limit():
    rows = dnahm.residual_scaling(dnahm.random_skew_triple(2, seed=0), [0.04, 0.02, 0.01])
    ratios = []
    for prev, cur in zip(rows, rows[1:]):
        ratios += [cur.r_evolution / prev.r_evolution, cur.r_metric / prev.r_metric]
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios
    traj = dnahm.integrate_nahm(dnahm.euler_top_triple((0.3, 0.4, 0.5)), 0.0, 1.0, 1000)
    drift = dnahm.invariant_drift(traj)
    assert drift < 1e-8
    print(
        f"criterion 6 PASS: residual ratios {[round(r, 3) for r in ratios]} in [0.4, 0.6]; "
        f"conserved coefficients drift {drift:.2e} (< 1e-8)"
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_surface = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        a, b, d = (helpers.random_cmatrix(rng, k) for _ in range(3))
        ours = dnahm.char_surface(a, b, d).c
        brute = oracles.char_surface_brute(np.asarray(a), np.asarray(b), np.asarray(d))
        dev = dnahm.max_abs(ours - brute) / (1.0 + np.abs(brute).max())
        assert dev < 1e-12
        worst_surface = max(worst_surface, dev)
    worst_sqrt = 0.0
    for _ in range(30):
        k = int(rng.integers(2, 6))
        h = dnahm.cmatrix(oracles.random_hpd(rng, k))
        dev = dnahm.max_abs(dnahm.positive_sqrt(h) - oracles.sqrt_by_denman_beavers(h))
        assert dev < 1e-10 * (1.0 + dnahm.max_abs(h))
        worst_sqrt = max(worst_sqrt, dev)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        rank = int(rng.integers(0, k + 1))
        m = (
            oracles.random_unitary(rng, k)
            @ np.diag(np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(k - rank)]))
            @ oracles.random_unitary(rng, k)
        )
        base, _ = dnahm.nullity(dnahm.cmatrix(m))
        left, _ = dnahm.nullity(dnahm.cmatrix(oracles.random_unitary(rng, k) @ m))
        right, _ = dnahm.nullity(dnahm.cmatrix(m @ oracles.random_unitary(rng, k)))
        assert base == left == right == k - rank
    print(
        f"criterion 7 PASS: surface vs cofactor oracle {worst_surface:.2e} (1e-12), "
        f"sqrt vs Denman-Beavers oracle {worst_sqrt:.2e} (1e-10), nullity unitary-invariant over 100 trials"
    )


def test_criterion_8_determinism_and_round_trips(ensemble):
    survivors, _ = ensemble
    # bit-identical reruns
    pair = dnahm.random_reality_seed(2, seed=42, spread=0.04)
    c1, _ = dnahm.evolve(pair, 12)
    c2, _ = dnahm.evolve(pair, 12)
    assert all(np.array_equal(a, b) for a, b in zip(c1.betas, c2.betas))
    assert all(np.array_equal(a, b) for a, b in zip(c1.gammas, c2.gammas))
    # forward-then-backward returns the seed
    worst_rt = 0.0
    for k, seed, ba, dn in survivors[:6]:
        back, bk = dnahm.evolve((ba.gammas[-1], ba.betas[-1]), len(ba.gammas), backward=True)
        assert bk is None
        dev = max(
            dnahm.max_abs(back.gammas[0] - ba.gammas[0]),
            dnahm.max_abs(back.betas[0] - ba.betas[0]),
        )
        assert dev < 1e-9
        worst_rt = max(worst_rt, dev)
    # conversion round trips
    worst_conv = 0.0
    for k, seed, ba, dn in survivors[:10]:
        again = dnahm.to_braam_austin(dn)
        dev = max(
            max(dnahm.max_abs(a - b) for a, b in zip(again.betas, ba.betas)),
            max(dnahm.max_abs(a - b) for a, b in zip(again.gammas, ba.gammas)),
        )
        assert dev < 1e-13
        worst_conv = max(worst_conv, dev)
    print(
        f"criterion 8 PASS: bit-identical reruns; forward-backward seed recovery {worst_rt:.2e} "
        f"(1e-9); conversion round trips {worst_conv:.2e} (1e-13)"
    )
