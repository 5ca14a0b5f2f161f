"""The benchmark's workloads: inputs, op sequence and output checks.

Each workload is a closed loop over a fixed cycle of ``dnahm`` commands,
built from two of the op cycles below (see ``WORKLOADS``).
``prepare`` runs once in the parent process, before any timing: it builds
every input from the workload seed with dnahm's public API and writes it in
the documented chain format. ``op`` returns the argv of op number ``index``
(position ``index % cycle`` in the cycle), and ``check`` inspects that op's
exit code, stderr and output files after it has been timed. A check returns
the op's site count and its correctness value, or raises CheckFailed.

Why these op cycles: each runs one layer hard (evolution and JSON writing;
the Lax checks; spectral surfaces; the RK4 continuum flow), and the two
workloads split them so that a change to one of those layers shows on one
workload and stays flat on the other.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SPREAD = "0.002"  # random seeds at this spread evolve 250 links without breakdown
VERIFY_TOL = 1e-9  # dnahm verify's default --tol
H_LIST = (0.04, 0.02, 0.01)


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- documents in the format the README describes ----------------------------

def _pairs(m) -> list:
    m = np.asarray(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrices(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def dn_document(chain, metric=None) -> dict:
    doc = {
        "format_version": "1",
        "k": chain.k,
        "form": "dn",
        "origin": chain.sites[0].r,
        "sites": [{"A": _pairs(s.A), "B": _pairs(s.B), "D": _pairs(s.D)} for s in chain.sites],
        "links": [{"Pplus": _pairs(l.Pplus), "Pminus": _pairs(l.Pminus)} for l in chain.links],
    }
    if metric is not None:
        doc["metric"] = [_pairs(g) for g in metric]
    return doc


def ba_document(chain) -> dict:
    return {
        "format_version": "1",
        "k": chain.k,
        "form": "ba",
        "origin": chain.origin,
        "betas": [_pairs(b) for b in chain.betas],
        "gammas": [_pairs(g) for g in chain.gammas],
    }


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc))


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc


def stderr_diagnostic(stderr: str) -> dict:
    """The single-line JSON object a nonzero exit must leave on stderr."""
    lines = stderr.strip().splitlines()
    require(len(lines) == 1, f"expected one line of JSON on stderr, got {len(lines)} lines")
    try:
        diagnostic = json.loads(lines[0])
    except ValueError as exc:
        raise CheckFailed(f"stderr is not JSON: {lines[0][:200]}") from exc
    require(isinstance(diagnostic, dict), "stderr JSON is not an object")
    return diagnostic


def dag(m):
    return np.swapaxes(m.conj(), -1, -2)


def max_abs(m) -> float:
    return float(np.abs(m).max()) if np.size(m) else 0.0


def ba_arrays(doc) -> tuple[np.ndarray, np.ndarray]:
    require(doc.get("form") == "ba", f"expected a ba chain, got form {doc.get('form')!r}")
    betas, gammas = _matrices(doc["betas"]), _matrices(doc["gammas"])
    require(len(gammas) == len(betas) - 1, "gammas count must be betas count - 1")
    return betas, gammas


def ba_residual(betas, gammas) -> float:
    """Max of the Braam-Austin evolution and metric residuals, stacked over the chain."""
    evolution = betas[:-1] @ gammas - gammas @ betas[1:]
    inner = betas[1:-1]
    metric = (dag(gammas[:-1]) @ gammas[:-1] - gammas[1:] @ dag(gammas[1:])
              + dag(inner) @ inner - inner @ dag(inner))
    return max(max_abs(evolution), max_abs(metric))


def scratch(work, name) -> str:
    return str(Path(work) / name)


# -- evolve cycle --------------------------------------------------------------

class EvolveChains:
    """Forward evolution at k = 2, 4, 8, one backward run, one p = 200 reproduction."""

    cycle = 5

    def cycle_length(self, plan) -> int:
        return self.cycle

    def prepare(self, dnahm, work, seed, smoke, seconds) -> dict:
        p = 10 if smoke else 200
        chain, metric = dnahm.trig_solution(p)
        gauged = dnahm.apply_gauge(chain, [dnahm.positive_sqrt(g) for g in metric])
        write_json(scratch(work, "trig_gauged.json"), dn_document(gauged))
        # the gauged chain is in the identity-metric class: gamma = -P-
        np.save(scratch(work, "trig_gammas.npy"), -np.array([l.Pminus for l in gauged.links]))
        forward = [[2, 12], [4, 10], [8, 8]] if smoke else [[2, 250], [4, 200], [8, 120]]
        return {"p": p, "forward": forward, "seed": seed}

    def _forward_seed(self, plan, index):
        return plan["seed"] * 1_000_003 + index

    def op(self, plan, work, index) -> list[str]:
        pos = index % self.cycle
        out = scratch(work, f"evolve_{pos}.json")
        if pos < 3:
            k, steps = plan["forward"][pos]
            return ["evolve", "--random-k", str(k), "--seed", str(self._forward_seed(plan, index)),
                    "--spread", SPREAD, "--steps", str(steps), "--out", out]
        if pos == 3:
            # backward from the last link of the k = 4 chain this cycle wrote,
            # over all its links; if it is unreadable the check reports that
            source = scratch(work, "evolve_1.json")
            try:
                links = len(read_json(source)["gammas"])
            except (CheckFailed, KeyError, TypeError):
                links = plan["forward"][1][1]
            return ["evolve", "--in", source, "--backward", "--steps", str(links), "--out", out]
        return ["evolve", "--in", scratch(work, "trig_gauged.json"),
                "--steps", str(2 * plan["p"]), "--out", out]

    def check(self, dnahm, plan, work, index, code, stderr):
        pos = index % self.cycle
        betas, gammas = ba_arrays(read_json(scratch(work, f"evolve_{pos}.json")))
        if pos < 3:
            k, steps = plan["forward"][pos]
            require(code in (0, 3), f"forward evolve exited {code}")
            if code == 0:
                require(len(gammas) == steps, f"expected {steps} links, got {len(gammas)}")
            else:
                d = stderr_diagnostic(stderr)
                require(d.get("links") == len(gammas), "breakdown diagnostic disagrees with output")
            gamma0, beta0 = dnahm.random_reality_seed(k, self._forward_seed(plan, index),
                                                      float(SPREAD))
            require(np.array_equal(gammas[0], gamma0) and np.array_equal(betas[0], beta0),
                    "chain does not start at its seed")
            # every link solves its own step equations to rounding; scale 1
            # since the chain stays near the identity
            residual = ba_residual(betas, gammas)
            require(residual <= 1e-10, f"Braam-Austin residual {residual:.3e}")
            require(max_abs(gammas - dag(gammas)) <= 1e-12,
                    "gammas not Hermitian (self-adjoint gauge)")
            return len(betas), None
        if pos == 3:
            require(code == 0, f"backward evolve exited {code}")
            f_betas, f_gammas = ba_arrays(read_json(scratch(work, "evolve_1.json")))
            # backward steps invert forward ones; errors stay at rounding level
            require(gammas.shape == f_gammas.shape, "backward chain has another length")
            err = max(max_abs(gammas - f_gammas), max_abs(betas - f_betas))
            require(err <= 1e-10, f"backward chain differs from forward chain by {err:.3e}")
            return len(betas), None
        p = plan["p"]
        require(code == 3, f"reproduction exited {code}, expected 3")
        d = stderr_diagnostic(stderr)
        require(d.get("breakdown_at") == 2 * p - 2 and d.get("links") == 2 * p - 1,
                f"breakdown_at {d.get('breakdown_at')}, expected {2 * p - 2}")
        expected = np.load(scratch(work, "trig_gammas.npy"))
        error = max_abs(gammas - expected[: len(gammas)])
        # the forward error grows towards the boundary, where s_r -> 0; it is
        # 3.1e-10 at p = 200, and the tolerance keeps 1.5 digits of headroom
        require(len(gammas) == 2 * p - 1 and error <= 1e-8, f"gamma error {error:.3e}")
        return len(betas), error


# -- verify cycle --------------------------------------------------------------

class VerifyChains:
    """dnahm verify on trig DN chains with metric, evolved BA chains, perturbed copies."""

    # op cost rises through the list as written. The middle three cost about
    # the same and the slowest kind, 80-site chains, fills a fifth of the
    # cycle, so p50 and p90 fall inside one cost level rather than on the edge
    # between two, where they would read an extreme of one kind's times.
    LAYOUT = [("trig", 2, 15), ("ba", 2, 30), ("ba", 4, 30), ("ba", 2, 40), ("trig", 2, 20),
              ("perturbed", 2, 20), ("ba", 4, 40), ("ba", 8, 30), ("ba", 2, 80), ("ba", 2, 80)]
    SMOKE = [("trig", 2, 3), ("ba", 2, 6), ("ba", 8, 5), ("perturbed", 2, 3)]

    def cycle_length(self, plan) -> int:
        return len(plan["inputs"])

    def prepare(self, dnahm, work, seed, smoke, seconds) -> dict:
        rng = np.random.default_rng(seed)
        inputs = []
        for i, (kind, k, size) in enumerate(self.SMOKE if smoke else self.LAYOUT):
            path = scratch(work, f"verify_in_{i}.json")
            entry = {"path": path, "kind": kind, "k": k}
            if kind == "ba":
                gamma_seed = dnahm.random_reality_seed(k, seed * 1000 + i, float(SPREAD))
                chain, broke = dnahm.evolve(gamma_seed, size - 1)
                require(broke is None, "input chain broke down")
                write_json(path, ba_document(chain))
                entry["sites"] = size
            else:
                chain, metric = dnahm.trig_solution(size)
                doc = dn_document(chain, metric)
                entry["sites"] = len(chain.sites)
                if kind == "perturbed":
                    site = int(rng.integers(1, len(chain.sites) - 1))
                    before = doc["sites"][site]["B"][0][0][0]
                    doc["sites"][site]["B"][0][0][0] = before + 1e-6
                    entry["delta"] = doc["sites"][site]["B"][0][0][0] - before
                write_json(path, doc)
            inputs.append(entry)
        return {"inputs": inputs}

    def op(self, plan, work, index) -> list[str]:
        pos = index % len(plan["inputs"])
        return ["verify", "--in", plan["inputs"][pos]["path"],
                "--report", scratch(work, f"report_{pos}.json")]

    def check(self, dnahm, plan, work, index, code, stderr):
        pos = index % len(plan["inputs"])
        entry = plan["inputs"][pos]
        report = read_json(scratch(work, f"report_{pos}.json"))
        checks = report.get("checks", {})
        n = entry["sites"]
        dn = checks["dn_residuals"]
        require(len(dn["per_link"]) == n - 1, "dn_residuals does not cover every link")
        lax_max = checks["lax_commutator"]["max"]
        fact = checks["m_factorization"]["max"]
        require(lax_max <= VERIFY_TOL, f"lax commutator {lax_max:.3e}")
        if entry["kind"] == "perturbed":
            require(code == 1, f"perturbed chain exited {code}, expected 1")
            d = stderr_diagnostic(stderr)
            require(d.get("failures") == ["dn_residuals", "m_factorization"],
                    f"perturbed chain failures {d.get('failures')}")
            require(report["passed"] is False, "report passes a perturbed chain")
            # one B entry moved by delta: b_left and b_right read exactly delta
            require(abs(dn["max"] - abs(entry["delta"])) <= 1e-12,
                    f"dn residual {dn['max']:.3e}, perturbation {entry['delta']:.3e}")
            require(fact > VERIFY_TOL, "m_factorization missed the perturbation")
            return n, None
        require(code == 0, f"verify exited {code}: {stderr.strip()[:200]}")
        require(report["passed"] is True and report["failures"] == [], "report did not pass")
        values = [dn["max"], lax_max, fact]
        if entry["kind"] == "ba":
            values.append(checks["ba_residuals"]["max"])
        else:
            values.append(checks["reality_residual"])
            require(checks["boundary_ranks"] == {"left": 1, "right": 1},
                    f"boundary ranks {checks['boundary_ranks']}")
        worst = max(values)
        require(worst <= VERIFY_TOL, f"residual {worst:.3e} above tolerance")
        return n, worst


# -- spectral cycle ------------------------------------------------------------

class SurfaceScan:
    """dnahm spectral with curve samples, anti-diagonal scan and drift CSV."""

    LAYOUT = [("ba", 2, 150), ("ba", 4, 100), ("ba", 8, 60), ("trig", 2, 50)]
    SMOKE = [("ba", 2, 8), ("ba", 8, 5), ("trig", 2, 3)]

    def cycle_length(self, plan) -> int:
        return len(plan["inputs"])

    def prepare(self, dnahm, work, seed, smoke, seconds) -> dict:
        rng = np.random.default_rng(seed)
        inputs = []
        for i, (kind, k, size) in enumerate(self.SMOKE if smoke else self.LAYOUT):
            path = scratch(work, f"spectral_in_{i}.json")
            if kind == "ba":
                gamma_seed = dnahm.random_reality_seed(k, seed * 1000 + i, float(SPREAD))
                chain, broke = dnahm.evolve(gamma_seed, size - 1)
                require(broke is None, "input chain broke down")
                write_json(path, ba_document(chain))
                # site 0 of the DN form: A = -beta, D = beta*, B = -gamma gamma* + A D
                a, d, g = -chain.betas[0], dag(chain.betas[0]), chain.gammas[0]
                triple, n = (a, -g @ dag(g) + a @ d, d), size
            else:
                chain, metric = dnahm.trig_solution(size)
                write_json(path, dn_document(chain, metric))
                s0 = chain.sites[0]
                triple, n = (s0.A, s0.B, s0.D), len(chain.sites)
            # an independent value of the site-0 surface at two points on the torus
            points = np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
            values = [complex(np.linalg.det(e * z * triple[0] + e * triple[1] + z * np.eye(k)
                                            + triple[2])) for e, z in points]
            inputs.append({"path": path, "kind": kind, "k": k, "sites": n, "size": size,
                           "points": [[[e.real, e.imag], [z.real, z.imag]] for e, z in points],
                           "values": [[v.real, v.imag] for v in values]})
        return {"inputs": inputs}

    def op(self, plan, work, index) -> list[str]:
        pos = index % len(plan["inputs"])
        return ["spectral", "--in", plan["inputs"][pos]["path"],
                "--out", scratch(work, f"surfaces_{pos}.json"),
                "--drift", scratch(work, f"drift_{pos}.csv"),
                "--samples", "32", "--antidiagonal", "64"]

    def check(self, dnahm, plan, work, index, code, stderr):
        pos = index % len(plan["inputs"])
        entry = plan["inputs"][pos]
        require(code == 0, f"spectral exited {code}: {stderr.strip()[:200]}")
        doc = read_json(scratch(work, f"surfaces_{pos}.json"))
        k, n = entry["k"], entry["sites"]
        c = _matrices(doc["surfaces"])
        require(doc["k"] == k and c.shape == (n, k + 1, k + 1), f"surface grid shape {c.shape}")
        require(np.all(c[:, 0, k] == 1.0), "surfaces lose the normalization c[0][k] = 1")
        scale = 1.0 + max_abs(c)
        drift = np.abs(c - c[0]).max(axis=(1, 2))
        reported = np.array([d for _, d in doc["drift"]["per_site"]])
        require(np.array_equal(reported, drift), "reported drift differs from the surfaces")
        # isospectrality holds to rounding in the surface coefficients
        require(doc["drift"]["max"] <= 1e-9 * scale, f"drift {doc['drift']['max']:.3e}")
        with open(scratch(work, f"drift_{pos}.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["site", "max_abs_drift"] and len(rows) == n + 1, "drift CSV shape")
        require(np.array_equal(np.array([float(r[1]) for r in rows[1:]]), drift),
                "drift CSV differs from the JSON")
        require(0 < len(doc["samples"]) <= 32 * k, f"{len(doc['samples'])} curve samples")
        require(math.isfinite(doc["antidiagonal_clearance"]), "anti-diagonal clearance not finite")
        powers = np.arange(k + 1)
        for (e, z), value in zip(entry["points"], entry["values"]):
            eta, zeta = complex(*e), complex(*z)
            got = (eta ** powers) @ c[0] @ (zeta ** powers)
            magnitude = np.abs(c[0]).sum()  # |eta| = |zeta| = 1
            require(abs(got - complex(*value)) <= 1e-9 * magnitude,
                    f"site-0 surface misses det(M) by {abs(got - complex(*value)):.3e}")
        worst = doc["drift"]["max"]
        if entry["kind"] == "trig":
            # eta^2 - 2 cos(phi) eta zeta + zeta^2 with phi = pi / (2p + 2)
            exact = np.zeros((3, 3), dtype=complex)
            exact[2, 0] = exact[0, 2] = 1.0
            exact[1, 1] = -2.0 * math.cos(math.pi / (2 * entry["size"] + 2))
            error = max_abs(c - exact)
            require(error <= 1e-9, f"trig surface coefficient error {error:.3e}")
            worst = max(worst, error)
        return n, worst


# -- continuum cycle -----------------------------------------------------------

def _flow(x, y):
    """The bilinear form B with dT/dz = B(T, T) for dT1/dz = [T2, T3] (cyclic).

    Triples are stacked on axis -3, so B applies to many nodes at once.
    """
    def c(a, b):
        return x[..., a, :, :] @ y[..., b, :, :] - y[..., b, :, :] @ x[..., a, :, :]
    return np.stack([c(1, 2), c(2, 0), c(0, 1)], axis=-3)


def reference_table(triple, k, rk_steps):
    """R11/R12 rows and their tolerances from a tight-tolerance reference flow.

    The flow dT1 = [T2, T3] (cyclic) is integrated by scipy's DOP853 at
    rtol 1e-13 and sampled at the embedding nodes z = m h. The embedding is
    the one dnahm documents: beta_r = tau(2rh)*, gamma_r = (1/(2h) +
    sigma((2r+1)h))*, sigma = i T1, tau = T2 + i T3, on floor(1/(2h)) sites.

    dnahm samples its RK4 grid (spacing dz) by linear interpolation, which
    moves T by at most E = dz^2/8 max|T''| per real component. Each residual
    multiplies that error by gamma ~ 1/(2h) and sums at most 2k products, so
    the tolerance on R11 and R12 at spacing h is 4 k sqrt(2) E / h.
    """
    from scipy.integrate import solve_ivp

    size = 3 * k * k
    t0 = np.stack([np.asarray(triple.t1), np.asarray(triple.t2), np.asarray(triple.t3)])

    def rhs(_, y):
        t = (y[:size] + 1j * y[size:]).reshape(3, k, k)
        d = _flow(t, t).ravel()
        return np.concatenate([d.real, d.imag])

    nodes = {}
    for h in H_LIST:
        for m in range(2 * int(math.floor(1.0 / (2.0 * h)))):
            nodes[(h, m)] = m * h
    z = np.array(sorted(set(nodes.values())))
    y0 = t0.ravel()
    sol = solve_ivp(rhs, (0.0, z[-1]), np.concatenate([y0.real, y0.imag]), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=z)
    require(sol.success, f"reference integration failed: {sol.message}")
    states = (sol.y[:size] + 1j * sol.y[size:]).T.reshape(-1, 3, k, k)
    at = {zv: states[i] for i, zv in enumerate(z)}
    d1 = _flow(states, states)
    d2 = max_abs(_flow(d1, states) + _flow(states, d1))
    span = 1.0 + 3.0 * max(H_LIST)
    dz = span / max(rk_steps, math.ceil(10.0 * span / min(H_LIST)))
    interpolation = dz * dz / 8.0 * d2
    rows = []
    eye = np.eye(k)
    for h in H_LIST:
        n = int(math.floor(1.0 / (2.0 * h)))
        t_even = np.array([at[nodes[(h, 2 * r)]] for r in range(n)])
        t_odd = np.array([at[nodes[(h, 2 * r + 1)]] for r in range(n - 1)])
        betas = dag(t_even[:, 1] + 1j * t_even[:, 2])
        gammas = dag(eye / (2.0 * h) + 1j * t_odd[:, 0])
        r11 = max_abs(betas[:-1] @ gammas - gammas @ betas[1:])
        inner = betas[1:-1]
        r12 = max_abs(dag(gammas[:-1]) @ gammas[:-1] - gammas[1:] @ dag(gammas[1:])
                      + dag(inner) @ inner - inner @ dag(inner))
        tol = 4.0 * k * math.sqrt(2.0) * interpolation / h + 1e-13
        rows.append({"h": h, "sites": n, "r11": r11, "r12": r12, "tol": tol})
    return rows


class ContinuumTable:
    """dnahm continuum --k 2|3|4 --h 0.04,0.02,0.01 with a fresh seed per op."""

    DEFAULT_STEPS = 2000  # dnahm continuum's default --steps
    SMOKE_STEPS = 200

    def cycle_length(self, plan) -> int:
        return 3

    def prepare(self, dnahm, work, seed, smoke, seconds) -> dict:
        steps = self.SMOKE_STEPS if smoke else self.DEFAULT_STEPS
        pool = []
        # three ops take about a second and share the run with other ops, so
        # the pool lasts the whole run; a longer run reuses it from the start
        for c in range(max(2, seconds // 2)):
            for k in (2, 3, 4):
                s = seed * 1000 + c
                rows = reference_table(dnahm.random_skew_triple(k, s), k, steps)
                ratios = [rows[-1]["r11"] / rows[-2]["r11"], rows[-1]["r12"] / rows[-2]["r12"]]
                # dnahm exits 1 when the smallest-pair ratio leaves [0.4, 0.6]
                expected = 0 if all(0.4 <= q <= 0.6 for q in ratios) else 1
                pool.append({"k": k, "seed": s, "rows": rows, "exit": expected})
        return {"pool": pool, "smoke": smoke}

    def op(self, plan, work, index) -> list[str]:
        entry = plan["pool"][index % len(plan["pool"])]
        argv = ["continuum", "--k", str(entry["k"]), "--h", ",".join(map(str, H_LIST)),
                "--seed", str(entry["seed"]), "--out", scratch(work, "table.csv")]
        if plan["smoke"]:
            argv += ["--steps", str(self.SMOKE_STEPS)]
        return argv

    def check(self, dnahm, plan, work, index, code, stderr):
        entry = plan["pool"][index % len(plan["pool"])]
        require(code == entry["exit"], f"continuum exited {code}, expected {entry['exit']}")
        if code:
            require(stderr_diagnostic(stderr).get("error") == "ScalingOutOfBand",
                    "unexpected diagnostic")
        with open(scratch(work, "table.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["h", "R11", "R12", "ratio11", "ratio12"], f"table header {rows[0]}")
        require([float(r[0]) for r in rows[1:]] == list(H_LIST), "table rows do not follow --h")
        worst = 0.0
        for i, (row, ref) in enumerate(zip(rows[1:], entry["rows"])):
            for column, key in ((1, "r11"), (2, "r12")):
                got = float(row[column])
                require(abs(got - ref[key]) <= ref["tol"],
                        f"h={ref['h']} {key}: {got:.6e} vs reference {ref[key]:.6e}")
                worst = max(worst, abs(got - ref[key]) / ref[key])
                if i:
                    ratio = got / float(rows[i][column])
                    require(abs(float(row[column + 2]) - ratio) <= 1e-12, "ratio column")
        return sum(ref["sites"] for ref in entry["rows"]), worst


class Pipeline:
    """Two op cycles run back to back as one cycle.

    The parts keep their own inputs, op numbering and checks: op ``index``
    of the pipeline is op ``c * len(part) + j`` of its part, where ``c`` is
    the pipeline cycle and ``j`` the position within the part's cycle.
    """

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts

    def cycle_length(self, plan) -> int:
        return sum(part.cycle_length(data) for part, data in zip(self.parts, plan["parts"]))

    def prepare(self, dnahm, work, seed, smoke, seconds) -> dict:
        return {"parts": [part.prepare(dnahm, work, seed, smoke, seconds) for part in self.parts]}

    def _locate(self, plan, index):
        cycle, pos = divmod(index, self.cycle_length(plan))
        for part, data in zip(self.parts, plan["parts"]):
            length = part.cycle_length(data)
            if pos < length:
                return part, data, cycle * length + pos
            pos -= length
        raise AssertionError("position beyond the cycle")

    def op(self, plan, work, index) -> list[str]:
        part, data, local = self._locate(plan, index)
        return part.op(data, work, local)

    def check(self, dnahm, plan, work, index, code, stderr):
        part, data, local = self._locate(plan, index)
        return part.check(dnahm, data, work, local, code, stderr)


# Two pipelines, so that each run can be long enough to average over the
# minutes-long slow spells of a shared host: the first evolves chains and
# scans surfaces (evolution, linalg, io writes, spectral), the second
# verifies chains and tabulates the continuum limit (lax, model, io reads,
# continuum). Each layer's work runs on one pipeline and is absent from the
# other. Cycle lengths are odd (9 and 13 ops), so the median falls inside
# one op kind's times rather than between two.
WORKLOADS = {w.name: w for w in (
    Pipeline("evolve_scan", EvolveChains(), SurfaceScan()),
    Pipeline("verify_continuum", VerifyChains(), ContinuumTable()),
)}
